package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"repro/internal/httpkit"
	"repro/internal/serve"
)

// LocalReplica is one in-process wideleakd child: a full serve.Server
// behind its own TCP listener on 127.0.0.1:0. The fleet daemon's -spawn
// mode, the e2e suites and the fleet smoke test use it to stand up a
// self-contained fleet with no external processes.
type LocalReplica struct {
	ID  string
	URL string

	server  *serve.Server
	httpSrv *http.Server
	ln      net.Listener
}

// SpawnLocal boots n replicas, each with its own queue, worker pool and
// cache tiers, listening on distinct random ports. IDs are "r0".."rN-1".
func SpawnLocal(n int, cfg serve.Config) ([]*LocalReplica, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fleet: spawn count must be positive, got %d", n)
	}
	replicas := make([]*LocalReplica, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, r := range replicas {
				r.Kill()
			}
			return nil, err
		}
		srv := serve.New(cfg)
		rep := &LocalReplica{
			ID:      fmt.Sprintf("r%d", i),
			URL:     "http://" + ln.Addr().String(),
			server:  srv,
			httpSrv: httpkit.NewServer(srv.Handler()),
			ln:      ln,
		}
		go rep.httpSrv.Serve(ln)
		replicas = append(replicas, rep)
	}
	return replicas, nil
}

// Server exposes the replica's serve.Server (tests prewarm through it).
func (r *LocalReplica) Server() *serve.Server { return r.server }

// Kill tears the replica down abruptly — the chaos suites' stand-in for
// a crashed process. Open connections are closed mid-flight and every
// running job is cancelled; nothing drains gracefully.
func (r *LocalReplica) Kill() {
	r.httpSrv.Close()
	// Cancel whatever was running so an orphaned study stops burning CPU
	// alongside the failover rerun. An already-expired context makes
	// Shutdown cancel in-flight jobs instead of draining them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	go r.server.Shutdown(ctx)
}

// Shutdown drains the replica gracefully: the listener stops accepting,
// accepted jobs finish, the worker pool exits.
func (r *LocalReplica) Shutdown(ctx context.Context) error {
	httpErr := r.httpSrv.Shutdown(ctx)
	if err := r.server.Shutdown(ctx); err != nil {
		return err
	}
	return httpErr
}

// Local is a self-contained fleet: n spawned replicas behind a router
// listening on its own random port.
type Local struct {
	URL      string
	Router   *Router
	Replicas []*LocalReplica

	httpSrv *http.Server
	ln      net.Listener
}

// StartLocal spawns n local replicas and mounts a router over them on
// 127.0.0.1:0.
func StartLocal(n int, cfg serve.Config, opts Options) (*Local, error) {
	replicas, err := SpawnLocal(n, cfg)
	if err != nil {
		return nil, err
	}
	members := make([]Member, len(replicas))
	for i, rep := range replicas {
		members[i] = Member{ID: rep.ID, URL: rep.URL}
	}
	router, err := NewRouter(members, opts)
	if err != nil {
		for _, rep := range replicas {
			rep.Kill()
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		router.Close()
		for _, rep := range replicas {
			rep.Kill()
		}
		return nil, err
	}
	f := &Local{
		URL:      "http://" + ln.Addr().String(),
		Router:   router,
		Replicas: replicas,
		httpSrv:  httpkit.NewServer(router.Handler()),
		ln:       ln,
	}
	go f.httpSrv.Serve(ln)
	return f, nil
}

// Replica returns the spawned replica with the given ID, nil if unknown.
func (f *Local) Replica(id string) *LocalReplica {
	for _, rep := range f.Replicas {
		if rep.ID == id {
			return rep
		}
	}
	return nil
}

// Shutdown drains the fleet: router listener first, then every replica.
func (f *Local) Shutdown(ctx context.Context) error {
	err := f.httpSrv.Shutdown(ctx)
	f.Router.Close()
	for _, rep := range f.Replicas {
		if serr := rep.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
