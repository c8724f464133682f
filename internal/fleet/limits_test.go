package fleet

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/httpkit"
	"repro/internal/serve"
)

// A client that sends half a request line and stops is disconnected
// once httpkit.ReadHeaderTimeout passes, by the router and by a replica
// alike, instead of holding its connection forever.
func TestServers_DropStalledRequestHeaders(t *testing.T) {
	f := startFleet(t, 1, serve.Config{Workers: 1})
	for name, url := range map[string]string{"router": f.URL, "replica": f.Replicas[0].URL} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write([]byte("GET /v1/stud")); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			const slack = 5 * time.Second
			conn.SetReadDeadline(start.Add(httpkit.ReadHeaderTimeout + slack))
			buf := make([]byte, 512)
			for {
				_, err = conn.Read(buf)
				if err != nil {
					break
				}
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open %v after a stalled request line (read header timeout %v)", time.Since(start), httpkit.ReadHeaderTimeout)
			}
			if waited := time.Since(start); waited < httpkit.ReadHeaderTimeout/2 {
				t.Errorf("connection closed after %v, before the read header timeout %v: %v", waited, httpkit.ReadHeaderTimeout, err)
			}
		})
	}
}
