package cdn_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cdn"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/wvcrypto"
)

func packagedTitle(t *testing.T) *media.Packaged {
	t.Helper()
	tracks := media.GenerateTitle("movie-1", media.DefaultGenerateOptions())
	p, err := media.Package("movie-1", tracks,
		media.KeyPolicy{EncryptAudio: true}, wvcrypto.NewDeterministicReader("cdn"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAddPackagedAndLookup(t *testing.T) {
	s := cdn.NewServer("cdn.example")
	if s.Host() != "cdn.example" {
		t.Errorf("host = %q", s.Host())
	}
	p := packagedTitle(t)
	if err := s.AddPackaged(p); err != nil {
		t.Fatal(err)
	}
	m, ok := s.Manifest("movie-1")
	if !ok || len(m) == 0 {
		t.Error("manifest missing")
	}
	if _, ok := s.Manifest("other"); ok {
		t.Error("unknown manifest found")
	}
	for path, data := range p.Files {
		got, ok := s.Object(path)
		if !ok || !bytes.Equal(got, data) {
			t.Errorf("object %q mismatch", path)
		}
	}
	if _, ok := s.Object("nope"); ok {
		t.Error("unknown object found")
	}
}

func TestHandler(t *testing.T) {
	s := cdn.NewServer("cdn.example")
	p := packagedTitle(t)
	if err := s.AddPackaged(p); err != nil {
		t.Fatal(err)
	}
	network := netsim.NewNetwork()
	network.RegisterHost(s.Host(), s.Handler())
	client := netsim.NewClient(network)

	resp, err := client.Do(netsim.Request{Host: "cdn.example", Path: cdn.ManifestPrefix + "movie-1"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("manifest fetch: %d %v", resp.Status, err)
	}

	resp, err = client.Do(netsim.Request{Host: "cdn.example", Path: cdn.ObjectPrefix + "movie-1/video/540p/init.mp4"})
	if err != nil || resp.Status != 200 {
		t.Fatalf("object fetch: %d %v", resp.Status, err)
	}

	if _, err := client.Do(netsim.Request{Host: "cdn.example", Path: cdn.ObjectPrefix + "missing"}); err == nil {
		t.Error("missing object: want error")
	}
	if _, err := client.Do(netsim.Request{Host: "cdn.example", Path: "/bogus"}); err == nil {
		t.Error("bogus path: want error")
	}
}

// TestHandler_RetriedFetchUnderFaults drives the CDN through a flaky
// network with the shared retry policy: every object must still arrive,
// while a genuine 404 is returned after exactly one handler call.
func TestHandler_RetriedFetchUnderFaults(t *testing.T) {
	s := cdn.NewServer("cdn.example")
	p := packagedTitle(t)
	if err := s.AddPackaged(p); err != nil {
		t.Fatal(err)
	}
	network := netsim.NewNetwork()
	handlerCalls := 0
	inner := s.Handler()
	network.RegisterHost(s.Host(), func(req netsim.Request) (netsim.Response, error) {
		handlerCalls++
		return inner(req)
	})
	plan := netsim.NewFaultPlan(wvcrypto.NewDeterministicReader("cdn-faults"),
		netsim.FaultProfile{DropRate: 0.15, BusyRate: 0.15, FlapRate: 0.15})
	network.SetFaultPlan(plan)

	client := netsim.NewClient(network)
	client.SetRetryPolicy(netsim.DefaultRetryPolicy(
		wvcrypto.NewDeterministicReader("cdn-jitter"), netsim.NewVirtualClock()))

	for path, data := range p.Files {
		resp, err := client.Do(netsim.Request{Host: "cdn.example", Path: cdn.ObjectPrefix + path})
		if err != nil || resp.Status != 200 {
			t.Fatalf("object %q under faults: %d %v", path, resp.Status, err)
		}
		if !bytes.Equal(resp.Body, data) {
			t.Errorf("object %q corrupted in transit", path)
		}
	}
	if plan.Stats().Total() == 0 {
		t.Fatal("no faults injected — the retry check is vacuous")
	}

	// A 404 is deterministic: no matter how flaky the network, the handler
	// must be asked exactly once for it.
	handlerCalls = 0
	for {
		_, err := client.Do(netsim.Request{Host: "cdn.example", Path: cdn.ObjectPrefix + "missing"})
		if errors.Is(err, cdn.ErrNotFound) {
			break
		}
		// An injected fault struck before the handler; the retry layer may
		// legitimately exhaust on it. Ask again until the handler answers.
		if err == nil {
			t.Fatal("missing object fetch succeeded")
		}
	}
	if handlerCalls != 1 {
		t.Errorf("404 reached the handler %d times, want 1", handlerCalls)
	}
}

// Servers filled by AddPackaged each hold a private catalog, so each
// repacks a dialect form on its own first request — the cost a
// standalone server prices — even when both ingested one Packaged.
func TestAddPackaged_PrivateCatalogsEachRepack(t *testing.T) {
	p := packagedTitle(t)
	var forms [2][]byte
	for i := range forms {
		s := cdn.NewServer("cdn.example")
		if err := s.AddPackaged(p); err != nil {
			t.Fatal(err)
		}
		before := cdn.Repacks()
		for range 2 {
			m, err := s.ManifestDialect("movie-1", "hls")
			if err != nil {
				t.Fatal(err)
			}
			forms[i] = m
		}
		if got := cdn.Repacks() - before; got != 1 {
			t.Errorf("server %d repacked %d times over two requests, want 1", i, got)
		}
	}
	if !bytes.Equal(forms[0], forms[1]) {
		t.Error("the two servers repacked different bytes")
	}
}

// Servers over one catalog share its objects and its repack memo, and
// keep their own serve counts. AddPackaged on one of them leaves the
// shared catalog, and so every other server, unchanged.
func TestCatalogServer_SharedCatalog(t *testing.T) {
	catalog, err := cdn.NewCatalog(packagedTitle(t))
	if err != nil {
		t.Fatal(err)
	}
	a := cdn.NewCatalogServer("cdn.a", catalog)
	b := cdn.NewCatalogServer("cdn.b", catalog)
	before := cdn.Repacks()
	for _, s := range []*cdn.Server{a, b, a} {
		if _, err := s.ManifestDialect("movie-1", "sstr"); err != nil {
			t.Fatal(err)
		}
	}
	if got := cdn.Repacks() - before; got != 1 {
		t.Errorf("two servers over one catalog repacked %d times, want 1", got)
	}
	if got := a.ServeCounts()["sstr"]; got != 2 {
		t.Errorf("server a counted %d sstr serves, want 2", got)
	}
	if got := b.ServeCounts()["sstr"]; got != 1 {
		t.Errorf("server b counted %d sstr serves, want 1", got)
	}
	const path = "movie-1/video/540p/init.mp4"
	oa, _ := a.Object(path)
	ob, ok := b.Object(path)
	if !ok || len(oa) == 0 || &oa[0] != &ob[0] {
		t.Fatal("servers over one catalog do not share its objects")
	}

	other := &media.Packaged{ContentID: "movie-2", Files: map[string][]byte{"movie-2/x": {1}}, MPD: packagedTitle(t).MPD}
	if err := a.AddPackaged(other); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Manifest("movie-2"); !ok {
		t.Error("AddPackaged title missing from its own server")
	}
	if _, ok := b.Manifest("movie-2"); ok {
		t.Error("AddPackaged on one server reached another server's shared catalog")
	}
	if _, ok := b.Object("movie-2/x"); ok {
		t.Error("AddPackaged object reached the shared catalog")
	}
}
