// Command wideleakd serves the WideLeak study engine over HTTP: a job
// queue and worker pool behind a JSON API, with a content-addressed
// result cache, per-job event logs, Prometheus metrics, load shedding
// and graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	wideleakd [-addr host:port] [-workers n] [-queue n] [-cache n]
//	          [-prewarm n] [-prewarm-seed s] [-drain-timeout d]
//	          [-pprof host:port]
//
// See internal/serve for the API surface and README.md for curl
// examples.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux (side listener only)
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpkit"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "wideleakd:", err)
		os.Exit(1)
	}
}

// run boots the daemon and blocks until a shutdown signal has been
// handled and every accepted job has drained. ready, when non-nil, is
// called with the bound address once the listener is accepting —
// tests bind :0 and learn the real port through it.
func run(args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("wideleakd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", 0, "study worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 16, "job queue capacity (a full queue sheds submissions with 429)")
	cacheSize := fs.Int("cache", 64, "result cache capacity (content-addressed LRU)")
	prewarm := fs.Int("prewarm", 0, "device RSA keys to pre-mint for the default seed at boot (-1 = all; 0 = none)")
	prewarmSeed := fs.String("prewarm-seed", "default", "seed to prewarm (with -prewarm)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to finish accepted jobs on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this side address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The profiler gets its own listener so the API mux stays closed: the
	// job surface never exposes /debug/pprof, and the side port can stay
	// firewalled while the API is reachable.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		go http.Serve(pln, nil) // DefaultServeMux carries the pprof handlers
		fmt.Printf("wideleakd: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	srv := serve.New(serve.Config{Workers: *workers, QueueSize: *queue, CacheSize: *cacheSize})
	if *prewarm != 0 {
		// Warm in the background so the listener is up immediately; the
		// keypool serves pre-minted keys to any request that races it.
		n := *prewarm
		if n < 0 {
			n = 0 // serve.Prewarm: <= 0 selects the full device set
		}
		go func() {
			start := time.Now()
			resident, err := srv.Prewarm(context.Background(), *prewarmSeed, n, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wideleakd: prewarm seed %q: %v\n", *prewarmSeed, err)
				return
			}
			fmt.Printf("wideleakd: prewarmed %d device keys for seed %q in %s\n",
				resident, *prewarmSeed, time.Since(start).Round(time.Millisecond))
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := httpkit.NewServer(srv.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("wideleakd: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		// The listener died before any signal arrived.
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way
	fmt.Fprintln(os.Stderr, "wideleakd: signal received, draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then run every accepted job to
	// completion. An expired drain budget cancels the in-flight jobs.
	httpErr := httpSrv.Shutdown(drainCtx)
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	<-serveErr // http.ErrServerClosed once Shutdown has begun
	if httpErr != nil {
		return fmt.Errorf("http shutdown: %w", httpErr)
	}
	fmt.Fprintln(os.Stderr, "wideleakd: drained cleanly")
	return nil
}
