package wideleak

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/ott"
)

// TestBuildTable_ConcurrencyMatchesSequential is the determinism contract
// of the parallel engine: for the same seed, the strictly sequential build
// and a highly concurrent build must render byte-identical tables — across
// two independent runs of each.
func TestBuildTable_ConcurrencyMatchesSequential(t *testing.T) {
	render := func(parallelism int) string {
		w, err := NewWorld("parallel-determinism", nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStudy(w)
		s.Concurrency = parallelism
		table, err := s.BuildTable()
		if err != nil {
			t.Fatal(err)
		}
		return table.Render()
	}

	seq := render(1)
	for _, parallelism := range []int{1, 8} {
		if got := render(parallelism); got != seq {
			t.Errorf("parallelism %d diverged from sequential build:\n%s\nvs\n%s", parallelism, got, seq)
		}
	}
}

// TestBuildTable_DefaultConcurrency checks that the rewired BuildTable
// (default GOMAXPROCS workers) still reproduces the paper's Table I.
func TestBuildTable_DefaultConcurrency(t *testing.T) {
	w, err := NewWorld("default-concurrency", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(w)
	if s.Concurrency != 0 {
		t.Fatalf("fresh study Concurrency = %d, want 0 (auto)", s.Concurrency)
	}
	table, err := s.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := table.Diff(PaperTable()); len(diffs) != 0 {
		t.Errorf("parallel table diverged from paper: %v", diffs)
	}
}

// TestFixture_ConcurrentDistinctApps is the regression test for the old
// coarse World.mu: concurrent Fixture calls for different apps must all
// succeed, and concurrent calls for the same app must share one build.
func TestFixture_ConcurrentDistinctApps(t *testing.T) {
	w, err := NewWorld("concurrent-fixtures", nil)
	if err != nil {
		t.Fatal(err)
	}
	apps := w.Profiles()

	var wg sync.WaitGroup
	fixtures := make([][]*AppFixture, len(apps))
	for i := range apps {
		fixtures[i] = make([]*AppFixture, 3)
		for j := 0; j < 3; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				f, err := w.Fixture(apps[i].Name)
				if err != nil {
					t.Errorf("fixture %s: %v", apps[i].Name, err)
					return
				}
				fixtures[i][j] = f
			}(i, j)
		}
	}
	wg.Wait()
	for i := range apps {
		if fixtures[i][0] == nil {
			continue // already reported
		}
		if fixtures[i][1] != fixtures[i][0] || fixtures[i][2] != fixtures[i][0] {
			t.Errorf("%s: concurrent Fixture calls built distinct fixtures", apps[i].Name)
		}
	}
}

// TestFixture_OrderIndependent verifies the per-app rand forking: building
// fixtures in reverse order yields the exact same device material as
// building them in profile order.
func TestFixture_OrderIndependent(t *testing.T) {
	forward, err := NewWorld("order", nil)
	if err != nil {
		t.Fatal(err)
	}
	reverse, err := NewWorld("order", nil)
	if err != nil {
		t.Fatal(err)
	}
	apps := forward.Profiles()
	for i := range apps {
		if _, err := forward.Fixture(apps[i].Name); err != nil {
			t.Fatal(err)
		}
		if _, err := reverse.Fixture(apps[len(apps)-1-i].Name); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range apps {
		ff, _ := forward.Fixture(p.Name)
		rf, _ := reverse.Fixture(p.Name)
		fid, _, err := ff.Device("pixel").Engine.KeyboxInfo()
		if err != nil {
			t.Fatal(err)
		}
		rid, _, err := rf.Device("pixel").Engine.KeyboxInfo()
		if err != nil {
			t.Fatal(err)
		}
		if fid != rid {
			t.Errorf("%s: stable ID depends on build order: %q vs %q", p.Name, fid, rid)
		}
		fkey, ok := forward.Registry.DeviceKey(fid)
		if !ok {
			t.Fatalf("%s: device %s not registered", p.Name, fid)
		}
		rkey, ok := reverse.Registry.DeviceKey(rid)
		if !ok {
			t.Fatalf("%s: device %s not registered", p.Name, rid)
		}
		if fkey != rkey {
			t.Errorf("%s: device key depends on build order", p.Name)
		}
	}
}

// TestWarmFixtures pre-builds every fixture on a bounded pool and checks
// the warmed world still reproduces the paper's table.
func TestWarmFixtures(t *testing.T) {
	w, err := NewWorld("warm", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WarmFixtures(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	s := NewStudy(w)
	s.Concurrency = 4
	table, err := s.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := table.Diff(PaperTable()); len(diffs) != 0 {
		t.Errorf("warmed table diverged from paper: %v", diffs)
	}
}

// TestWarmFixtures_Canceled propagates context cancellation.
func TestWarmFixtures_Canceled(t *testing.T) {
	w, err := NewWorld("warm-cancel", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.WarmFixtures(ctx, 2); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestShortName_Collisions: apps sharing an eight-character alphanumeric
// prefix must still mint distinct device serials.
func TestShortName_Collisions(t *testing.T) {
	pairs := [][2]string{
		{"Disney+ Originals", "Disney+ Kids"},
		{"Amazon Prime Video", "Amazon Freevee"},
		{"StreamingOne", "Streaming Two"},
	}
	for _, pair := range pairs {
		a, b := shortName(pair[0]), shortName(pair[1])
		if a == b {
			t.Errorf("shortName(%q) == shortName(%q) == %q", pair[0], pair[1], a)
		}
	}
	// Stability: same input, same token.
	if shortName("Netflix") != shortName("Netflix") {
		t.Error("shortName is not stable")
	}
	if !strings.Contains(shortName("Netflix"), "-") {
		t.Error("shortName lacks the hash suffix")
	}
}

// TestBuildTable_ErrorPropagation: a row whose fixture cannot build
// surfaces as an error naming the row instead of deadlocking the pool or
// truncating the table silently.
func TestBuildTable_ErrorPropagation(t *testing.T) {
	w, err := NewWorld("err-prop", []ott.Profile{ott.Profiles()[0], ott.Profiles()[1]})
	if err != nil {
		t.Fatal(err)
	}
	// Smuggle in a profile whose fixture build is pre-failed.
	w.profiles = append(w.profiles, ott.Profile{Name: "Ghost App"})
	broken := &fixtureEntry{}
	broken.once.Do(func() { broken.err = errors.New("boom") })
	w.fixtures["Ghost App"] = broken
	s := NewStudy(w)
	s.Concurrency = 4
	_, err = s.BuildTable()
	if err == nil {
		t.Fatal("want error for unknown app row")
	}
	if !strings.Contains(err.Error(), "Ghost App") {
		t.Errorf("error %q does not name the failing row", err)
	}
}
