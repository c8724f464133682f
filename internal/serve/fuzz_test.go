package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzSubmitBody POSTs arbitrary bytes to both submit endpoints, the
// request bodies any client controls. Every job is cancelled before it
// starts, so no engine work runs. Nothing may panic, and every answer is
// one the API defines: 200 or 202 for an accepted body, 400 for a bad
// one, 429 when the queue is full, 503 while draining.
func FuzzSubmitBody(f *testing.F) {
	srv := New(Config{Workers: 1, QueueSize: 4})
	srv.testHookJobStart = func(j *Job) { j.requestCancel() }
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
	handler := srv.Handler()

	for _, body := range []string{
		`{"seed":"a"}`,
		`{"seed":"a"}garbage`,
		`{"seed":"a"}{"seed":"b"}`,
		"{\"seed\":\"a\"}\n",
		`{"seed":"fuzz","profiles":["Showtime"],"probes":["q2"],"devices":["pixel"],"dialect":"hls"}`,
		`{"specs":[{"seed":"a"},{"seed":"b","probes":["q1"]}],"concurrency":2}`,
		`{"specs":[]}`,
		`{"specs":[{"seed":"a"}]}{"specs":[]}`,
		`{"faults":{"rate":2}}`,
		"", "{}", "null", "[]",
	} {
		f.Add(false, []byte(body))
		f.Add(true, []byte(body))
	}
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/studies"
		if batch {
			path = "/v1/batches"
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s %q: status %d (body %q)", path, body, rec.Code, rec.Body.String())
		}
	})
}
