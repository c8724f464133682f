package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/wideleak"
)

// TestServer_CacheIdenticalRequests is the cache-correctness acceptance
// test: two identical canonical requests return byte-identical tables,
// and the second does zero device work — no new observations, no new
// events, served straight from the result cache.
func TestServer_CacheIdenticalRequests(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueSize: 4})

	cold := submit(t, ts, smallSpec(), http.StatusAccepted)
	coldStatus := waitTerminal(t, ts, cold.ID)
	if coldStatus.State != JobDone {
		t.Fatalf("cold run state = %s (err %q)", coldStatus.State, coldStatus.Error)
	}
	if coldStatus.Observations == 0 {
		t.Fatal("cold run did no observations; the cache test would be vacuous")
	}

	// An equivalent spelling of the same canonical request: probe list
	// spelled with its dependency dupes, profile case-folded, different
	// concurrency. Must hit the cache: 200, born done.
	equivalent := wideleak.RunSpec{
		Seed:        smallSpec().Seed,
		Profiles:    []string{"showtime"},
		Probes:      []string{"q2", "q2"},
		Concurrency: 3,
	}
	warm := submit(t, ts, equivalent, http.StatusOK)
	if !warm.Cached || warm.State != JobDone {
		t.Fatalf("second submission not served from cache: %+v", warm)
	}
	if warm.ID == cold.ID {
		t.Fatal("cache hit reused the original job ID")
	}

	warmStatus := getStatus(t, ts, warm.ID)
	if warmStatus.Observations != 0 || warmStatus.LegacyPlaybacks != 0 {
		t.Errorf("cached job reports device work: observations = %d, playbacks = %d",
			warmStatus.Observations, warmStatus.LegacyPlaybacks)
	}
	if warmStatus.Events != coldStatus.Events {
		t.Errorf("cached job events = %d, want the original run's %d", warmStatus.Events, coldStatus.Events)
	}

	// The cached job's event stream replays the producing run: every
	// event its status counts, then the done frame.
	sresp, err := http.Get(ts.URL + "/v1/studies/" + warm.ID + "/events?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	stream.ReadFrom(sresp.Body)
	sresp.Body.Close()
	if got := strings.Count(stream.String(), "data: "); got != warmStatus.Events+1 {
		t.Errorf("cached job stream carried %d data frames, want %d events + done", got, warmStatus.Events)
	}

	for _, format := range wideleak.TableFormats() {
		coldTable := fetchTable(t, ts, cold.ID, format)
		warmTable := fetchTable(t, ts, warm.ID, format)
		if !bytes.Equal(coldTable, warmTable) {
			t.Errorf("format %s: cached table differs from cold table", format)
		}
	}

	if got := srv.cache.Len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
	metrics := metricsText(t, ts)
	for _, want := range []string{
		"wideleakd_cache_hits_total 1",
		"wideleakd_cache_misses_total 1",
		"wideleakd_jobs_submitted_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServer_FaultSeedMissesCache: the fault schedule is part of the
// content address — same rate under a different seed is a different run.
func TestServer_FaultSeedMissesCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueSize: 4})

	withFaults := func(seed string) wideleak.RunSpec {
		spec := smallSpec()
		spec.Faults = &wideleak.RunFaults{Rate: 0.2, Seed: seed}
		return spec
	}

	first := submit(t, ts, withFaults("a"), http.StatusAccepted)
	if st := waitTerminal(t, ts, first.ID); st.State != JobDone {
		t.Fatalf("first run state = %s (err %q)", st.State, st.Error)
	}

	// Same rate, different schedule seed: a cold run, not a cache hit.
	second := submit(t, ts, withFaults("b"), http.StatusAccepted)
	if second.Cached {
		t.Fatal("different fault seed served from cache")
	}
	if st := waitTerminal(t, ts, second.ID); st.State != JobDone {
		t.Fatalf("second run state = %s (err %q)", st.State, st.Error)
	}

	// Re-submitting seed "a" verbatim does hit.
	third := submit(t, ts, withFaults("a"), http.StatusOK)
	if !third.Cached {
		t.Fatal("identical fault spec missed the cache")
	}
	if metrics := metricsText(t, ts); !strings.Contains(metrics, "wideleakd_cache_misses_total 2") {
		t.Error("expected exactly two cold runs")
	}
}
