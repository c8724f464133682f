package httpkit

import (
	"fmt"
	"testing"
)

type testJob struct {
	id   string
	over bool
}

// TestJobTable_DropsOldestTerminal: past max records, Add drops the
// oldest terminal record first and never a live one.
func TestJobTable_DropsOldestTerminal(t *testing.T) {
	tab := NewJobTable(3, func(j *testJob) string { return j.id }, func(j *testJob) bool { return j.over })
	jobs := make([]*testJob, 6)
	for i := range jobs {
		jobs[i] = &testJob{id: fmt.Sprint("j", i), over: i != 1}
	}
	for _, j := range jobs {
		tab.Add(j)
		if n := len(tab.All()); n > 3 {
			t.Fatalf("after adding %s the table holds %d records, max 3", j.id, n)
		}
	}
	var held []string
	for _, j := range tab.All() {
		held = append(held, j.id)
	}
	if fmt.Sprint(held) != "[j1 j4 j5]" {
		t.Errorf("held %v, want [j1 j4 j5]: the live j1 stays, terminal ones go oldest first", held)
	}
	for _, j := range jobs {
		_, ok := tab.Get(j.id)
		if want := j.id == "j1" || j.id == "j4" || j.id == "j5"; ok != want {
			t.Errorf("Get(%s) held = %v, want %v", j.id, ok, want)
		}
	}

	// With every record live, nothing can go.
	live := NewJobTable(1, func(j *testJob) string { return j.id }, func(j *testJob) bool { return j.over })
	live.Add(&testJob{id: "a"})
	live.Add(&testJob{id: "b"})
	if len(live.All()) != 2 {
		t.Errorf("live records dropped: %d held, want 2", len(live.All()))
	}
}

func TestIDSeq(t *testing.T) {
	for _, tc := range []struct {
		id, prefix string
		seq        int64
		ok         bool
	}{
		{"s000012-1a2b3c4d", "s", 12, true},
		{"b000007", "b", 7, true},
		{"fb000007", "fb", 7, true},
		{"fb000007", "f", 0, false},
		{"f000003-abc", "fb", 0, false},
		{"s000000", "s", 0, false},
		{"s", "s", 0, false},
		{"s-12", "s", 0, false},
		{"s+12", "s", 0, false},
		{"s12x", "s", 0, false},
		{"s99999999999999999999", "s", 0, false},
	} {
		seq, ok := IDSeq(tc.id, tc.prefix)
		if seq != tc.seq || ok != tc.ok {
			t.Errorf("IDSeq(%q, %q) = %d, %v; want %d, %v", tc.id, tc.prefix, seq, ok, tc.seq, tc.ok)
		}
	}
}
