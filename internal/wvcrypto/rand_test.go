package wvcrypto

import (
	"bytes"
	"io"
	"testing"
)

func readN(t *testing.T, r io.Reader, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	return buf
}

func TestFork_IndependentOfConsumption(t *testing.T) {
	// Forking before or after reading from the parent must yield the same
	// child stream: children depend on the seed, not the stream position.
	fresh := NewDeterministicReader("world")
	early := readN(t, fresh.Fork("app-a"), 256)

	drained := NewDeterministicReader("world")
	readN(t, drained, 4096)
	late := readN(t, drained.Fork("app-a"), 256)

	if !bytes.Equal(early, late) {
		t.Fatal("fork depends on parent stream position")
	}
}

func TestFork_DistinctStreams(t *testing.T) {
	parent := NewDeterministicReader("world")
	a := readN(t, parent.Fork("app-a"), 256)
	b := readN(t, parent.Fork("app-b"), 256)
	p := readN(t, NewDeterministicReader("world"), 256)
	if bytes.Equal(a, b) {
		t.Fatal("fork labels app-a and app-b produced the same stream")
	}
	if bytes.Equal(a, p) || bytes.Equal(b, p) {
		t.Fatal("forked stream equals the parent stream")
	}
	// Re-forking with the same label reproduces the same child.
	a2 := readN(t, parent.Fork("app-a"), 256)
	if !bytes.Equal(a, a2) {
		t.Fatal("re-fork with same label diverged")
	}
}

func TestFork_NestedForksDiverge(t *testing.T) {
	parent := NewDeterministicReader("world")
	child := parent.Fork("fixture")
	grand := child.Fork("app")
	direct := parent.Fork("app")
	if bytes.Equal(readN(t, grand, 128), readN(t, direct, 128)) {
		t.Fatal("nested fork collided with a direct fork of the same label")
	}
}

func TestDeterministicReader_ConcurrentReads(t *testing.T) {
	// Concurrent readers must not corrupt the stream: the union of bytes
	// handed out equals the single-reader stream (order aside, every block
	// appears exactly once). Here we just exercise it under -race.
	r := NewDeterministicReader("concurrent")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			buf := make([]byte, 64)
			for j := 0; j < 100; j++ {
				if _, err := r.Read(buf); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// Skipping n bytes leaves a reader exactly where reading them does, from
// any position (mid-block or on a block boundary) and for any n, and
// Offset counts skipped bytes like read ones.
func TestDeterministicReader_SkipMatchesRead(t *testing.T) {
	for _, start := range []int{0, 1, 31, 32, 33, 100} {
		for _, n := range []uint64{0, 1, 5, 31, 32, 33, 64, 95, 1000} {
			read := NewDeterministicReader("skip")
			skipped := NewDeterministicReader("skip")
			readN(t, read, start)
			readN(t, skipped, start)
			readN(t, read, int(n))
			skipped.Skip(n)
			if got, want := skipped.Offset(), uint64(start)+n; got != want || read.Offset() != want {
				t.Fatalf("start %d, n %d: offsets skip %d read %d, want %d", start, n, got, read.Offset(), want)
			}
			if !bytes.Equal(readN(t, skipped, 70), readN(t, read, 70)) {
				t.Fatalf("start %d, n %d: skipped stream diverged from the read one", start, n)
			}
		}
	}
	if off := NewDeterministicReader("skip").Offset(); off != 0 {
		t.Fatalf("new reader offset %d, want 0", off)
	}
}
