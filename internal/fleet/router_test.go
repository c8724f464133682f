package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wideleak"
)

// startFleet boots a self-contained local fleet with a fast health loop
// and tears it down with the test.
func startFleet(t *testing.T, n int, cfg serve.Config) *Local {
	t.Helper()
	return startFleetOpts(t, n, cfg, Options{HealthInterval: 100 * time.Millisecond})
}

func startFleetOpts(t *testing.T, n int, cfg serve.Config, opts Options) *Local {
	t.Helper()
	f, err := StartLocal(n, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		if err := f.Shutdown(ctx); err != nil {
			t.Logf("fleet shutdown: %v", err)
		}
	})
	return f
}

// fleetSubmit POSTs a spec body to the fleet and decodes the response.
func fleetSubmit(t *testing.T, base, body string, wantStatus int) (fleetSubmitResponse, http.Header) {
	t.Helper()
	resp, err := http.Post(base+"/v1/studies", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("submit = %d, want %d (body: %s)", resp.StatusCode, wantStatus, buf.String())
	}
	var sub fleetSubmitResponse
	if wantStatus < 400 {
		if err := json.Unmarshal(buf.Bytes(), &sub); err != nil {
			t.Fatal(err)
		}
	}
	return sub, resp.Header
}

// fleetStatus is the slice of a job-status document the tests read.
type fleetStatus struct {
	ID           string `json:"id"`
	TableURL     string `json:"table_url"`
	EventsURL    string `json:"events_url"`
	State        string `json:"state"`
	Error        string `json:"error"`
	Observations int    `json:"observations"`
	WorldCache   string `json:"world_cache"`
}

func getFleetStatus(t *testing.T, base, id string) (fleetStatus, http.Header) {
	t.Helper()
	resp, err := http.Get(base + "/v1/studies/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("status %s = %d (body: %s)", id, resp.StatusCode, buf.String())
	}
	var st fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.Header
}

// waitFleetDone polls a fleet job until done, tolerating the transient
// states a failover introduces.
func waitFleetDone(t *testing.T, base, id string, deadline time.Duration) (fleetStatus, http.Header) {
	t.Helper()
	limit := time.Now().Add(deadline)
	for time.Now().Before(limit) {
		st, hdr := getFleetStatus(t, base, id)
		switch st.State {
		case "done":
			return st, hdr
		case "failed":
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return fleetStatus{}, nil
}

func fetchFleetTable(t *testing.T, base, id, format string) []byte {
	t.Helper()
	url := base + "/v1/studies/" + id + "/table"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table %s = %d (body: %s)", id, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// scrape fetches a Prometheus text page and returns one metric's value
// ("" when the line is absent).
func scrape(t *testing.T, url, metric string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, metric+" ") {
			return strings.TrimPrefix(line, metric+" ")
		}
	}
	return ""
}

func worldKeyOf(t *testing.T, spec wideleak.RunSpec) string {
	t.Helper()
	wk, err := spec.WorldKey()
	if err != nil {
		t.Fatal(err)
	}
	return wk
}

// TestRouter_SpillOn429: when the ring owner's queue is full and it
// sheds with 429, the submission spills to the ring successor instead of
// failing, and the fleet metrics attribute both sides.
func TestRouter_SpillOn429(t *testing.T) {
	f := startFleet(t, 2, serve.Config{Workers: 1, QueueSize: 1})
	base := f.URL

	seed := "spill-seed"
	wk := worldKeyOf(t, wideleak.RunSpec{Seed: seed})
	seq := f.Router.Sequence(wk)
	owner, successor := seq[0], seq[1]

	// Fill the owner: one running study (all probes — slow enough to hold
	// the worker) plus one queued subset. Distinct probe sets keep the
	// canonical keys distinct, so nothing coalesces.
	running, hdr := fleetSubmit(t, base,
		fmt.Sprintf(`{"seed": %q, "profiles": ["Showtime"]}`, seed), http.StatusAccepted)
	if got := hdr.Get(HeaderReplica); got != owner {
		t.Fatalf("first submit landed on %s, ring owner is %s", got, owner)
	}
	if got := hdr.Get(HeaderRoute); got != "owner" {
		t.Fatalf("first submit route = %q, want owner", got)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, _ := getFleetStatus(t, base, running.ID)
		if st.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first study never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fleetSubmit(t, base,
		fmt.Sprintf(`{"seed": %q, "profiles": ["Showtime"], "probes": ["q2"]}`, seed), http.StatusAccepted)

	// The owner's queue is now full: the next distinct submission sheds
	// there and must spill to the successor.
	_, hdr = fleetSubmit(t, base,
		fmt.Sprintf(`{"seed": %q, "profiles": ["Showtime"], "probes": ["q3"]}`, seed), http.StatusAccepted)
	if got := hdr.Get(HeaderReplica); got != successor {
		t.Errorf("shed submission landed on %s, want ring successor %s", got, successor)
	}
	if got := hdr.Get(HeaderRoute); got != "spill" {
		t.Errorf("shed submission route = %q, want spill", got)
	}
	if got := f.Router.Metrics().Spilled()[successor]; got != 1 {
		t.Errorf("spilled_total{%s} = %d, want 1", successor, got)
	}
	if got := scrape(t, base+"/metrics", fmt.Sprintf("wideleakfleet_replica_shed_total{replica=%q}", owner)); got != "1" {
		t.Errorf("replica_shed_total{%s} = %q, want 1", owner, got)
	}
}

// TestRouter_CacheAffinity pins the fleet's reason to exist: identical
// requests land on the same replica and hit its tier-1 result cache, and
// a probe-subset variant of the same seed lands there too and reuses its
// memoized cells and its seed's key pool — attributed through the
// provenance headers and the replica's own /metrics.
func TestRouter_CacheAffinity(t *testing.T) {
	f := startFleet(t, 3, serve.Config{})
	base := f.URL

	spec := `{"seed": "affinity", "profiles": ["Showtime"], "probes": ["q2"]}`
	wk := worldKeyOf(t, wideleak.RunSpec{Seed: "affinity"})
	pool := wideleak.SharedKeyPool("affinity") // no other test uses the seed
	owner := f.Router.OwnerOf(wk)
	ownerRep := f.Replica(owner)
	if ownerRep == nil {
		t.Fatalf("owner %s is not a spawned replica", owner)
	}

	// Cold run: a tier-1 miss on the owner that builds its world and
	// mints its keys.
	first, hdr := fleetSubmit(t, base, spec, http.StatusAccepted)
	if got := hdr.Get(HeaderReplica); got != owner {
		t.Fatalf("cold submit landed on %s, ring owner is %s", got, owner)
	}
	if got := hdr.Get(serve.HeaderCacheTier); got != "miss" {
		t.Errorf("cold submit %s = %q, want miss", serve.HeaderCacheTier, got)
	}
	st, hdr := waitFleetDone(t, base, first.ID, 120*time.Second)
	if st.WorldCache != "miss" {
		t.Errorf("cold run world_cache = %q, want miss", st.WorldCache)
	}
	if got := hdr.Get(serve.HeaderWorldCache); got != "miss" {
		t.Errorf("cold run %s = %q, want miss", serve.HeaderWorldCache, got)
	}
	coldMints := pool.Minted()
	if coldMints == 0 {
		t.Fatal("the cold run minted no keys into the seed's pool")
	}

	// Identical request: tier-1 hit on the same replica, zero new work.
	second, hdr := fleetSubmit(t, base, spec, http.StatusOK)
	if !second.Cached {
		t.Error("identical submit was not served from cache")
	}
	if got := hdr.Get(HeaderReplica); got != owner {
		t.Errorf("identical submit landed on %s, want %s (affinity broken)", got, owner)
	}
	if got := hdr.Get(serve.HeaderCacheTier); got != "hit" {
		t.Errorf("identical submit %s = %q, want hit", serve.HeaderCacheTier, got)
	}
	if st, _ := getFleetStatus(t, base, second.ID); st.Observations != 0 {
		t.Errorf("cached job reports %d observations, want 0", st.Observations)
	}

	// Probe-subset variant: same world key, new result key → same
	// replica, tier-1 miss, memoized cells reused and no key minted.
	variant := `{"seed": "affinity", "profiles": ["Showtime"], "probes": ["q3"]}`
	third, hdr := fleetSubmit(t, base, variant, http.StatusAccepted)
	if got := hdr.Get(HeaderReplica); got != owner {
		t.Errorf("variant landed on %s, want %s (world affinity broken)", got, owner)
	}
	if got := hdr.Get(serve.HeaderCacheTier); got != "miss" {
		t.Errorf("variant submit %s = %q, want miss", serve.HeaderCacheTier, got)
	}
	st, hdr = waitFleetDone(t, base, third.ID, 120*time.Second)
	if st.WorldCache != "miss" {
		t.Errorf("variant world_cache = %q, want miss (q3 cells were never run)", st.WorldCache)
	}
	if got := hdr.Get(serve.HeaderWorldCache); got != "miss" {
		t.Errorf("variant %s = %q, want miss", serve.HeaderWorldCache, got)
	}
	if got := pool.Minted(); got != coldMints {
		t.Errorf("the variant minted %d keys, want 0", got-coldMints)
	}
	if got := scrape(t, ownerRep.URL+"/metrics", "wideleakd_cells_cached_total"); got == "" || got == "0" {
		t.Errorf("owner cells_cached = %q after the variant, want > 0", got)
	}

	// The other replicas saw none of it.
	for _, rep := range f.Replicas {
		if rep.ID == owner {
			continue
		}
		if got := scrape(t, rep.URL+"/metrics", "wideleakd_jobs_submitted_total"); got != "0" {
			t.Errorf("replica %s ran %s jobs for another replica's world", rep.ID, got)
		}
	}
}

// failoverRuns numbers TestRouter_FailoverMidRun's subtest runs in this
// process.
var failoverRuns int

// TestRouter_FailoverMidRun is the chaos acceptance test, for a study
// and for a batch: a full ten-app study (alone, or as spec 0 of a batch
// with a second spec on another replica's world) is submitted through
// the router, its owner replica is killed mid-run, and the job must
// fail over to the ring successor and still return a byte-identical
// Table I. The dead replica flips unhealthy and receives no further
// traffic. Each run studies a seed new to the process, so it mints every
// device key and is still running when the kill lands; Table I's bytes
// do not depend on the seed, so the default goldens still apply.
func TestRouter_FailoverMidRun(t *testing.T) {
	for _, kind := range []string{"study", "batch"} {
		t.Run(kind, func(t *testing.T) {
			f := startFleet(t, 3, serve.Config{Workers: 1})
			base := f.URL

			failoverRuns++
			full := wideleak.RunSpec{Seed: fmt.Sprintf("failover-mid-run-%d", failoverRuns)}
			wk := worldKeyOf(t, full)
			seq := f.Router.Sequence(wk)
			owner, successor := seq[0], seq[1]

			// state reads the full spec's run; where waits for the job
			// to finish and names the replica that ran it.
			var id, landed string
			var state, where func() string
			var other wideleak.RunSpec
			if kind == "study" {
				sub, hdr := fleetSubmit(t, base, `{"seed": "`+full.Seed+`"}`, http.StatusAccepted)
				id, landed = sub.ID, hdr.Get(HeaderReplica)
				state = func() string { st, _ := getFleetStatus(t, base, id); return st.State }
				where = func() string { _, hdr := waitFleetDone(t, base, id, 300*time.Second); return hdr.Get(HeaderReplica) }
			} else {
				other = wideleak.RunSpec{Seed: seedOwnedElsewhere(t, f.Router, "failover-b", owner), Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
				id, _, _ = fleetSubmitBatch(t, base, []wideleak.RunSpec{full, other}, http.StatusAccepted)
				landed = getFleetBatchStatus(t, base, id).Parts[0].Replica
				state = func() string { return string(getFleetBatchStatus(t, base, id).Parts[0].State) }
				where = func() string { return waitFleetBatchDone(t, base, id, 300*time.Second).Parts[0].Replica }
			}
			if landed != owner {
				t.Fatalf("full study landed on %s, ring owner is %s", landed, owner)
			}

			// Wait for the study to actually start, then crash its replica.
			deadline := time.Now().Add(120 * time.Second)
			for {
				st := state()
				if st == "running" {
					break
				}
				if st == "done" {
					t.Fatal("study finished before the kill — cannot exercise mid-run failover")
				}
				if time.Now().After(deadline) {
					t.Fatal("study never started running")
				}
				time.Sleep(5 * time.Millisecond)
			}
			f.Replica(owner).Kill()

			if got := where(); got != successor {
				t.Errorf("failed-over study served by %s, want ring successor %s", got, successor)
			}

			tables := map[string][]byte{}
			if kind == "study" {
				tables["txt"] = fetchFleetTable(t, base, id, "txt")
			} else {
				tables["txt"] = fetchFleetBatchTable(t, base, id, 0, "txt")
				tables["json"] = fetchFleetBatchTable(t, base, id, 0, "json")
				if !bytes.Equal(fetchFleetBatchTable(t, base, id, 1, "json"), freshTableJSON(t, other)) {
					t.Errorf("spec 1 table differs from a fresh run")
				}
			}
			for format, got := range tables {
				want, err := os.ReadFile(filepath.Join("..", "wideleak", "testdata", "tableI_default."+format))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("failed-over %s table diverges from golden (%d bytes vs %d)", format, len(got), len(want))
				}
			}
			if n := f.Router.Metrics().Failovers(); n < 1 {
				t.Errorf("failovers_total = %d, want >= 1", n)
			}

			// The dead replica is unhealthy and stops receiving traffic.
			for _, id := range f.Router.HealthyIDs() {
				if id == owner {
					t.Fatalf("killed replica %s still marked healthy", owner)
				}
			}
			// Six fault seeds give six world keys spread over the ring;
			// the failed-over study left the seed's keys resident, so
			// this traffic mints none.
			for i := 0; i < 6; i++ {
				_, hdr := fleetSubmit(t, base,
					fmt.Sprintf(`{"seed": %q, "profiles": ["Showtime"], "probes": ["q2"], "faults": {"rate": 0.05, "seed": "failover-traffic-%d"}}`, full.Seed, i),
					http.StatusAccepted)
				if got := hdr.Get(HeaderReplica); got == owner {
					t.Errorf("dead replica %s still receiving traffic", owner)
				}
			}
			routed := f.Router.Metrics().Routed()
			if routed[owner] != 1 {
				t.Errorf("routed_total{%s} = %d, want 1 (only the pre-kill submit)", owner, routed[owner])
			}
		})
	}
}

// TestRouter_SubmitDeadOrDrainingOwner: a study or a batch submitted
// while its world's owner is dead (connection refused) or draining
// (answers 503) — before the health loop has noticed either — spills to
// the ring successor and is accepted there.
func TestRouter_SubmitDeadOrDrainingOwner(t *testing.T) {
	for _, kind := range []string{"study", "batch"} {
		for _, fault := range []string{"killed", "draining"} {
			t.Run(kind+"/"+fault, func(t *testing.T) {
				f := startFleetOpts(t, 2, serve.Config{Workers: 1}, Options{HealthInterval: time.Hour})
				spec := wideleak.RunSpec{Seed: "dead-owner", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
				seq := f.Router.Sequence(worldKeyOf(t, spec))
				owner, successor := seq[0], seq[1]
				if fault == "killed" {
					f.Replica(owner).Kill()
				} else if err := f.Replica(owner).Server().Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}

				var hdr http.Header
				if kind == "study" {
					body, err := json.Marshal(spec)
					if err != nil {
						t.Fatal(err)
					}
					_, hdr = fleetSubmit(t, f.URL, string(body), http.StatusAccepted)
				} else {
					_, _, hdr = fleetSubmitBatch(t, f.URL, []wideleak.RunSpec{spec}, http.StatusAccepted)
				}
				if got := hdr.Get(HeaderReplica); got != successor {
					t.Errorf("%s landed on %s, want ring successor %s", kind, got, successor)
				}
				if got := hdr.Get(HeaderRoute); got != "spill" {
					t.Errorf("%s route = %q, want spill", kind, got)
				}
			})
		}
	}
}

// TestRouter_CancelNeverResubmits: a DELETE of a study or batch whose
// replica died reports the lost replica and reruns nothing — a cancel
// must not resubmit the job it is cancelling, and neither may a later
// read of the cancelled job.
func TestRouter_CancelNeverResubmits(t *testing.T) {
	for _, kind := range []string{"study", "batch"} {
		t.Run(kind, func(t *testing.T) {
			f := startFleetOpts(t, 2, serve.Config{Workers: 1}, Options{HealthInterval: time.Hour})
			spec := wideleak.RunSpec{Seed: "cancel-dead", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
			owner := f.Router.OwnerOf(worldKeyOf(t, spec))

			path := ""
			if kind == "study" {
				body, err := json.Marshal(spec)
				if err != nil {
					t.Fatal(err)
				}
				sub, _ := fleetSubmit(t, f.URL, string(body), http.StatusAccepted)
				path = "/v1/studies/" + sub.ID
			} else {
				id, _, _ := fleetSubmitBatch(t, f.URL, []wideleak.RunSpec{spec}, http.StatusAccepted)
				path = "/v1/batches/" + id
			}
			f.Replica(owner).Kill()

			req, err := http.NewRequest(http.MethodDelete, f.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("DELETE %s on a dead replica = %d, want 503 (body: %s)", kind, resp.StatusCode, buf.String())
			}
			if n := f.Router.Metrics().Failovers(); n != 0 {
				t.Errorf("failovers_total = %d after a cancel, want 0", n)
			}

			get, err := http.Get(f.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			drainBody(get)
			if n := f.Router.Metrics().Failovers(); n != 0 {
				t.Errorf("failovers_total = %d after a GET of the cancelled %s, want 0", n, kind)
			}
			for _, rep := range f.Replicas {
				if rep.ID == owner {
					continue
				}
				var listed []json.RawMessage
				resp, err := http.Get(rep.URL + "/v1/" + map[string]string{"study": "studies", "batch": "batches"}[kind])
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&listed)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if len(listed) != 0 {
					t.Errorf("replica %s holds %d %s jobs after the cancel, want 0 (the cancelled %s was rerun)", rep.ID, len(listed), kind, kind)
				}
			}
		})
	}
}

// TestRouter_StudyCancelOnDeadReplica: after a DELETE on a study whose
// replica died, reads report it canceled (status canceled, table 409,
// an event log that ends canceled) instead of 503 on every read, rerun
// nothing, and let the router drop the record like any finished job.
func TestRouter_StudyCancelOnDeadReplica(t *testing.T) {
	f := startFleetOpts(t, 2, serve.Config{Workers: 1}, Options{HealthInterval: time.Hour})
	f.Router.mu.Lock()
	f.Router.jobs = newJobTable(1)
	f.Router.mu.Unlock()
	spec := wideleak.RunSpec{Seed: "study-cancel-dead", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Router.OwnerOf(worldKeyOf(t, spec))
	sub, _ := fleetSubmit(t, f.URL, string(body), http.StatusAccepted)
	f.Replica(owner).Kill()

	get := func(method, suffix string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, f.URL+"/v1/studies/"+sub.ID+suffix, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, _ := get(http.MethodDelete, ""); code != http.StatusServiceUnavailable {
		t.Fatalf("DELETE on a dead replica = %d, want 503", code)
	}

	st, _ := getFleetStatus(t, f.URL, sub.ID)
	if st.State != string(serve.JobCanceled) || st.ID != sub.ID {
		t.Errorf("status after a cancel on a dead replica: id %s, state %s; want %s, canceled", st.ID, st.State, sub.ID)
	}
	if code, out := get(http.MethodGet, "/table"); code != http.StatusConflict {
		t.Errorf("GET /table = %d (%s), want 409", code, out)
	}
	if code, out := get(http.MethodGet, "/events"); code != http.StatusOK || strings.TrimSpace(out) != "[]" {
		t.Errorf("GET /events = %d %q, want 200 []", code, out)
	}
	if code, out := get(http.MethodGet, "/events?stream=1"); code != http.StatusOK || !strings.Contains(out, "event: done") || !strings.Contains(out, `"canceled"`) {
		t.Errorf("GET /events?stream=1 = %d %q, want a stream ending done canceled", code, out)
	}
	if n := f.Router.Metrics().Failovers(); n != 0 {
		t.Errorf("failovers_total = %d, want 0: a cancelled study is never rerun", n)
	}

	// The reads showed the study over, so the next record displaces it.
	fleetSubmit(t, f.URL, `{"seed":"study-cancel-dead-next","profiles":["Showtime"],"probes":["q2"]}`, http.StatusAccepted)
	if code, _ := get(http.MethodGet, ""); code != http.StatusGone {
		t.Errorf("GET of the cancelled study after a newer submit = %d, want 410 (record dropped)", code)
	}
}

// TestRouter_ListBatches: GET /v1/batches through the router lists every
// replica's batches, as GET /v1/studies lists their studies.
func TestRouter_ListBatches(t *testing.T) {
	f := startFleet(t, 2, serve.Config{Workers: 1})
	spec := wideleak.RunSpec{Seed: "list-batches", Profiles: []string{"Showtime"}, Probes: []string{"q2"}}
	owner := f.Router.OwnerOf(worldKeyOf(t, spec))
	id, _, _ := fleetSubmitBatch(t, f.URL, []wideleak.RunSpec{spec}, http.StatusAccepted)
	part := getFleetBatchStatus(t, f.URL, id).Parts[0]

	resp, err := http.Get(f.URL + "/v1/batches")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/batches through the router = %d, want 200", resp.StatusCode)
	}
	var listing []struct {
		Replica string `json:"replica"`
		Error   string `json:"error"`
		Batches []struct {
			ID string `json:"id"`
		} `json:"batches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 2 {
		t.Fatalf("listing covers %d replicas, want 2", len(listing))
	}
	for _, entry := range listing {
		want := 0
		if entry.Replica == owner {
			want = 1
		}
		if entry.Error != "" || len(entry.Batches) != want {
			t.Errorf("replica %s lists %d batches (error %q), want %d", entry.Replica, len(entry.Batches), entry.Error, want)
		}
		if want == 1 && entry.Batches[0].ID != part.BatchID {
			t.Errorf("replica %s lists batch %s, want the part's %s", entry.Replica, entry.Batches[0].ID, part.BatchID)
		}
	}
}

// TestRouter_StudyStatusLinks: a study's status read through the router
// names the fleet job, and its table and event links resolve through the
// router to the same bytes as the fleet job's own endpoints.
func TestRouter_StudyStatusLinks(t *testing.T) {
	f := startFleet(t, 2, serve.Config{Workers: 1})
	base := f.URL

	sub, _ := fleetSubmit(t, base, `{"seed": "status-links", "profiles": ["Showtime"], "probes": ["q2"]}`, http.StatusAccepted)
	st, _ := waitFleetDone(t, base, sub.ID, 120*time.Second)
	if st.ID != sub.ID {
		t.Errorf("status id = %q, want the fleet id %q", st.ID, sub.ID)
	}
	if want := "/v1/studies/" + sub.ID + "/events"; st.EventsURL != want {
		t.Errorf("events_url = %q, want %q", st.EventsURL, want)
	}
	resp, err := http.Get(base + st.TableURL)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET table_url %s through the router = %d (body: %s)", st.TableURL, resp.StatusCode, buf.String())
	}
	if want := fetchFleetTable(t, base, sub.ID, ""); !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("table_url bytes differ from the fleet job's table")
	}
}

// TestRouter_JobRetention: past the fleet job-table bound, registering a
// job drops the oldest record the router has seen finish, whose ID then
// answers 410. A job whose end the router never saw counts as live and
// stays, and an ID the router never issued answers 404.
func TestRouter_JobRetention(t *testing.T) {
	const bound = 3
	f := startFleet(t, 1, serve.Config{Workers: 1})
	f.Router.mu.Lock()
	f.Router.jobs = newJobTable(bound)
	f.Router.mu.Unlock()
	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(f.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		drainBody(resp)
		return resp.StatusCode
	}
	spec := `{"seed":"fleet-retention","profiles":["Showtime"],"probes":["q2"]}`

	first, _ := fleetSubmit(t, f.URL, spec, http.StatusAccepted)
	waitFleetDone(t, f.URL, first.ID, 60*time.Second)
	unread, _ := fleetSubmit(t, f.URL, `{"seed":"fleet-retention-unread","profiles":["Showtime"],"probes":["q2"]}`, http.StatusAccepted)
	var hits []string
	for i := 0; i < bound; i++ {
		sub, _ := fleetSubmit(t, f.URL, spec, http.StatusOK) // result-cache hit: born done
		hits = append(hits, sub.ID)
	}

	// Records in submission order: first, unread, hits[0..2]. Two had to
	// go: first, then hits[0], skipping the job never seen to finish.
	for _, id := range []string{first.ID, hits[0]} {
		for _, suffix := range []string{"", "/table", "/events"} {
			if got := status("/v1/studies/" + id + suffix); got != http.StatusGone {
				t.Errorf("GET %s%s = %d, want 410", id, suffix, got)
			}
		}
	}
	for _, id := range append([]string{unread.ID}, hits[1:]...) {
		if got := status("/v1/studies/" + id); got != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", id, got)
		}
	}
	for _, path := range []string{"/v1/studies/f999999-00000000", "/v1/studies/f00000x", "/v1/batches/fb000001", "/v1/batches/" + hits[1]} {
		if got := status(path); got != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, got)
		}
	}
}
