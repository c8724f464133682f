package ott

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/wvcrypto"
)

// concurrentRuns makes each run of TestTitleStore_ConcurrentFirstUse
// (-count > 1) use a seed no earlier run put in the store.
var concurrentRuns int

// N goroutines deploying every app from one new seed at once package
// each app's titles once: the rest join the first packaging, serve its
// catalog, and end with their deploy streams where it left its own.
// make race runs this under the race detector.
func TestTitleStore_ConcurrentFirstUse(t *testing.T) {
	const workers = 8
	concurrentRuns++
	seed := fmt.Sprintf("title-store-concurrent-%d", concurrentRuns)
	profiles := Profiles()
	packaged := TitlesPackaged()
	calls, hits := TitleStoreStats()

	type deployed struct {
		dep    *Deployment
		stream *wvcrypto.DeterministicReader
	}
	out := make([][]deployed, workers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := wvcrypto.NewDeterministicReader(seed)
			for _, p := range profiles {
				stream := root.Fork("deploy/" + p.Name)
				dep, err := NewDeployment(p, []string{"movie-1"}, provision.NewRegistry(), netsim.NewNetwork(), stream)
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = append(out[i], deployed{dep, stream})
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if got := TitlesPackaged() - packaged; got != int64(len(profiles)) {
		t.Errorf("%d goroutines packaged %d times over %d apps, want once per app", workers, got, len(profiles))
	}
	gotCalls, gotHits := TitleStoreStats()
	if gotCalls-calls != workers*int64(len(profiles)) || gotHits-hits != (workers-1)*int64(len(profiles)) {
		t.Errorf("title store: %d calls, %d hits; want %d and %d",
			gotCalls-calls, gotHits-hits, workers*len(profiles), (workers-1)*len(profiles))
	}
	for a, p := range profiles {
		first := out[0][a]
		want, _ := first.dep.CDN().Manifest("movie-1")
		tail := make([]byte, 32)
		io.ReadFull(first.stream, tail)
		for i := 1; i < workers; i++ {
			d := out[i][a]
			got, _ := d.dep.CDN().Manifest("movie-1")
			if &got[0] != &want[0] {
				t.Errorf("%s: worker %d serves a catalog of its own", p.Name, i)
			}
			next := make([]byte, 32)
			io.ReadFull(d.stream, next)
			if !bytes.Equal(next, tail) {
				t.Errorf("%s: worker %d's deploy stream ended elsewhere than the packager's", p.Name, i)
			}
		}
	}
}

// A stream that has already drawn bytes is not the one a key names, so
// it packages without consulting the store.
func TestTitleStore_DrawnStreamPackages(t *testing.T) {
	stream := wvcrypto.NewDeterministicReader("title-store-drawn")
	stream.Skip(1)
	packaged := TitlesPackaged()
	calls, _ := TitleStoreStats()
	if _, err := NewDeployment(Profiles()[0], []string{"movie-1"}, provision.NewRegistry(), netsim.NewNetwork(), stream); err != nil {
		t.Fatal(err)
	}
	if got := TitlesPackaged() - packaged; got != 1 {
		t.Errorf("drawn stream packaged %d times, want 1", got)
	}
	if got, _ := TitleStoreStats(); got != calls {
		t.Errorf("drawn stream made %d title-store calls, want 0", got-calls)
	}
}
