// Command wideleakfleet fronts a fleet of wideleakd replicas with a
// consistent-hash router: every study, and every part of a batch, is
// routed by its world identity (seed + fault schedule), so each replica
// accumulates an independent warm cache set, 429 sheds and dead replicas
// spill to the ring successor, and a replica lost mid-run is failed over
// transparently (determinism makes the rerun byte-identical).
//
// Usage:
//
//	wideleakfleet [-addr host:port] (-spawn n | -replicas url1,url2,...)
//	              [-replica-workers n] [-replica-queue n] [-replica-cache n]
//	              [-health-interval d] [-drain-timeout d] [-pprof host:port]
//
// With -spawn n the daemon boots n in-process wideleakd children on
// random ports — a self-contained fleet in one command. With -replicas
// it fronts externally managed daemons instead.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/httpkit"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "wideleakfleet:", err)
		os.Exit(1)
	}
}

// run boots the fleet and blocks until a shutdown signal has been
// handled. ready, when non-nil, receives the router's bound address —
// tests bind :0 and learn the real port through it.
func run(args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("wideleakfleet", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "router listen address")
	spawn := fs.Int("spawn", 0, "spawn this many in-process wideleakd replicas on random ports")
	replicaURLs := fs.String("replicas", "", "comma-separated base URLs of externally managed wideleakd replicas")
	replicaWorkers := fs.Int("replica-workers", 0, "worker pool size per spawned replica (0 = GOMAXPROCS)")
	replicaQueue := fs.Int("replica-queue", 16, "job queue capacity per spawned replica")
	replicaCache := fs.Int("replica-cache", 64, "result cache capacity per spawned replica")
	healthInterval := fs.Duration("health-interval", 500*time.Millisecond, "active /healthz probe period")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max time to drain the router and spawned replicas on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this side address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Side listener: the routed API never exposes /debug/pprof.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		go http.Serve(pln, nil) // DefaultServeMux carries the pprof handlers
		fmt.Printf("wideleakfleet: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	if *spawn > 0 && *replicaURLs != "" {
		return fmt.Errorf("-spawn and -replicas are mutually exclusive")
	}
	if *spawn <= 0 && *replicaURLs == "" {
		return fmt.Errorf("need a fleet: pass -spawn n or -replicas url1,url2,...")
	}

	var members []fleet.Member
	var spawned []*fleet.LocalReplica
	if *spawn > 0 {
		var err error
		spawned, err = fleet.SpawnLocal(*spawn, serve.Config{
			Workers:   *replicaWorkers,
			QueueSize: *replicaQueue,
			CacheSize: *replicaCache,
		})
		if err != nil {
			return err
		}
		for _, rep := range spawned {
			members = append(members, fleet.Member{ID: rep.ID, URL: rep.URL})
			fmt.Printf("wideleakfleet: replica %s on %s\n", rep.ID, rep.URL)
		}
	} else {
		for i, url := range strings.Split(*replicaURLs, ",") {
			url = strings.TrimSpace(url)
			if url == "" {
				continue
			}
			members = append(members, fleet.Member{ID: fmt.Sprintf("r%d", i), URL: url})
		}
	}

	router, err := fleet.NewRouter(members, fleet.Options{HealthInterval: *healthInterval})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		router.Close()
		return err
	}
	httpSrv := httpkit.NewServer(router.Handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("wideleakfleet: routing %d replicas on http://%s\n", len(members), ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "wideleakfleet: signal received, draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	httpErr := httpSrv.Shutdown(drainCtx)
	router.Close()
	for _, rep := range spawned {
		if err := rep.Shutdown(drainCtx); err != nil {
			return fmt.Errorf("replica %s drain: %w", rep.ID, err)
		}
	}
	<-serveErr
	if httpErr != nil {
		return fmt.Errorf("http shutdown: %w", httpErr)
	}
	fmt.Fprintln(os.Stderr, "wideleakfleet: drained cleanly")
	return nil
}
