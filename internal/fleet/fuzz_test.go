package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

// FuzzRouterSubmit POSTs arbitrary bytes to the router's study and batch
// submit endpoints, the request bodies any client controls. The router
// decodes and splits them and places the parts on two in-process
// replicas, which cancel every job at its start, so no engine work runs.
// Nothing may panic, and every answer is one the API defines: 200 or 202
// for an accepted body, 400 for a bad one, 429 when every candidate
// replica sheds, 503 when none can take it.
func FuzzRouterSubmit(f *testing.F) {
	fl, err := StartLocal(2, serve.Config{Workers: 1, QueueSize: 4}, Options{HealthInterval: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	for _, rep := range fl.Replicas {
		rep.Server().CancelJobsAtStart()
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := fl.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
	})
	handler := fl.Router.Handler()

	for _, body := range []string{
		`{"seed":"a"}`,
		`{"seed":"a"}garbage`,
		`{"seed":"a"}{"seed":"b"}`,
		"{\"seed\":\"a\"}\n",
		`{"seed":"fuzz","profiles":["Showtime"],"probes":["q2"],"devices":["pixel"],"dialect":"hls"}`,
		`{"specs":[{"seed":"a"},{"seed":"b","probes":["q1"]}],"concurrency":2}`,
		`{"specs":[{"seed":"a"},{"seed":"a"}]}`,
		`{"specs":[]}`,
		`{"specs":[{"seed":"a"}]}{"specs":[]}`,
		`{"specs":[{"seed":"a","faults":{"rate":2}}]}`,
		`{"faults":{"rate":2}}`,
		`{"profiles":["nope"]}`,
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
