package main

import (
	"fmt"
	"math/rand"

	"repro/internal/fleet"
	"repro/internal/ott"
	"repro/internal/wideleak"
)

// replicaIDs are the replicas `wideleakfleet -spawn 2` names. A router
// built here over the same IDs and the default virtual-node count has the
// same ring, so the op stream can steer worlds onto chosen replicas before
// the server exists.
var replicaIDs = []string{"r0", "r1"}

// faultRate is the transient fault rate of every fault-seeded world. Chaos
// invariance makes their tables equal to the fault-free rendering.
const faultRate = 0.05

// Repeat workload shape: popularSpecs primed specs over repeatWorlds
// fixed fault-seed worlds, drawn with Zipf skew zipfS.
const (
	popularSpecs = 32
	repeatWorlds = 4
	zipfS        = 1.1
)

// op is one unit of load: a single study (one spec) or a batch.
type op struct {
	specs []wideleak.RunSpec
	batch bool
	// tier is the X-Wideleak-Cache answer a study must get: "hit" on the
	// primed repeat set, "miss" on a never-seen fresh spec. Batches carry
	// no per-op tier header; their tiers are checked per phase.
	tier string
}

// opStream generates a run's ops from the workload seed: app, probe and
// dialect draws, Zipf draws, fault seeds and the arrival gaps. The world
// seed stays "default" throughout.
type opStream struct {
	workload string
	seed     int64
	rng      *rand.Rand
	ring     *fleet.Router // ownership queries only; its health loop is stopped
	apps     []string
	probes   []string
	n        int // ops generated so far; fault seeds are unique by index

	popular []wideleak.RunSpec // repeat: the primed set
	zipf    *rand.Zipf

	// fresh: shuffled decks of (app, dialect) pairs and probe subsets,
	// dealt in turn and reshuffled when empty, so every stretch of the
	// stream holds close to the same mix and runs differ in order, not in
	// how much work they ask for.
	pairs, subsets []int
}

func newOpStream(workload string, seed int64) (*opStream, error) {
	members := make([]fleet.Member, len(replicaIDs))
	for i, id := range replicaIDs {
		members[i] = fleet.Member{ID: id, URL: "http://127.0.0.1:9"}
	}
	ring, err := fleet.NewRouter(members, fleet.Options{})
	if err != nil {
		return nil, err
	}
	ring.Close()
	s := &opStream{
		workload: workload,
		seed:     seed,
		rng:      rand.New(rand.NewSource(seed)),
		ring:     ring,
		probes:   wideleak.DefaultProbeIDs(),
	}
	for _, p := range ott.Profiles() {
		s.apps = append(s.apps, p.Name)
	}
	switch workload {
	case "repeat":
		if err := s.initRepeat(); err != nil {
			return nil, err
		}
	case "fresh", "batch":
	default:
		return nil, fmt.Errorf("no op generator for workload %q", workload)
	}
	return s, nil
}

// owner names the replica the ring assigns a spec's world to.
func (s *opStream) owner(spec wideleak.RunSpec) string {
	key, err := spec.WorldKey()
	if err != nil {
		panic(err) // specs are built here from registered names
	}
	return s.ring.OwnerOf(key)
}

// faulted returns spec under the benchmark's fault rate and a fault seed.
func faulted(spec wideleak.RunSpec, faultSeed string) wideleak.RunSpec {
	spec.Faults = &wideleak.RunFaults{Rate: faultRate, Seed: faultSeed}
	return spec
}

// steered finds the first fault seed "<prefix>-<k>" whose world the ring
// gives to replica.
func (s *opStream) steered(spec wideleak.RunSpec, prefix, replica string) wideleak.RunSpec {
	for k := 0; ; k++ {
		c := faulted(spec, fmt.Sprintf("%s-%d", prefix, k))
		if s.owner(c) == replica {
			return c
		}
	}
}

// subset draws a non-empty probe subset.
func (s *opStream) subset() []string {
	return s.probeSet(1 + s.rng.Intn(1<<len(s.probes)-1))
}

// probeSet lists the probes a non-empty bit mask selects.
func (s *opStream) probeSet(mask int) []string {
	var ids []string
	for i, id := range s.probes {
		if mask&(1<<i) != 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// deal takes the next card of a deck of n, reshuffling an empty deck.
func (s *opStream) deal(deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = s.rng.Perm(n)
	}
	card := (*deck)[0]
	*deck = (*deck)[1:]
	return card
}

// initRepeat draws the popular set: distinct (app, probe subset, world)
// specs over fixed fault-seed worlds, half of them owned by each replica.
func (s *opStream) initRepeat() error {
	var worlds []string
	for i := 0; len(worlds) < repeatWorlds; i++ {
		want := replicaIDs[len(worlds)%len(replicaIDs)]
		seed := fmt.Sprintf("repeat-%d", i)
		if s.owner(faulted(wideleak.RunSpec{}, seed)) == want {
			worlds = append(worlds, seed)
		}
	}
	seen := make(map[string]bool)
	for len(s.popular) < popularSpecs {
		spec := faulted(wideleak.RunSpec{
			Profiles: []string{s.apps[s.rng.Intn(len(s.apps))]},
			Probes:   s.subset(),
		}, worlds[len(s.popular)%len(worlds)])
		key, err := spec.Key()
		if err != nil {
			return err
		}
		if !seen[key] {
			seen[key] = true
			s.popular = append(s.popular, spec)
		}
	}
	s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.popular)-1))
	return nil
}

// nextOp generates the stream's next op.
func (s *opStream) nextOp() op {
	i := s.n
	s.n++
	switch s.workload {
	case "repeat":
		return op{specs: []wideleak.RunSpec{s.popular[s.zipf.Uint64()]}, tier: "hit"}
	case "fresh":
		dialects := []string{"", "hls", "sstr"}
		pair := s.deal(&s.pairs, len(s.apps)*len(dialects))
		spec := faulted(wideleak.RunSpec{
			Profiles: []string{s.apps[pair/len(dialects)]},
			Probes:   s.probeSet(1 + s.deal(&s.subsets, 1<<len(s.probes)-1)),
			Dialect:  dialects[pair%len(dialects)],
		}, fmt.Sprintf("fresh-%d-%d", s.seed, i))
		return op{specs: []wideleak.RunSpec{spec}, tier: "miss"}
	default:
		return op{specs: s.batchSpecs(i), batch: true}
	}
}

// batchSpecs builds one batch: per replica, a fresh fault-seed world with
// two app pairs x four probe subsets. The subsets are the four adjacent
// pairs of a probe cycle, so every probe cell is asked for twice: half of
// the cells the specs ask for are shared.
func (s *opStream) batchSpecs(i int) []wideleak.RunSpec {
	var specs []wideleak.RunSpec
	for _, replica := range replicaIDs {
		apps := s.rng.Perm(len(s.apps))[:4]
		cycle := s.rng.Perm(len(s.probes))
		world := s.steered(wideleak.RunSpec{}, fmt.Sprintf("batch-%d-%d-%s", s.seed, i, replica), replica).Faults
		for pair := 0; pair < 2; pair++ {
			for k := range cycle {
				probes := []string{s.probes[cycle[k]], s.probes[cycle[(k+1)%len(cycle)]]}
				specs = append(specs, wideleak.RunSpec{
					Profiles: []string{s.apps[apps[2*pair]], s.apps[apps[2*pair+1]]},
					Probes:   probes,
					Faults:   world,
				})
			}
		}
	}
	return specs
}

// arrivals returns n arrival offsets at the given rate: gaps uniform in
// [0.9, 1.1] / rate. The schedule is seeded, but nearly periodic, so that
// latency at a fixed rate measures the server rather than how often the
// schedule happens to bunch ops up.
func (s *opStream) arrivals(n int, rate float64) []float64 {
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		at[i] = t
		t += (0.9 + 0.2*s.rng.Float64()) / rate
	}
	return at
}

// warmSpecs returns one full default study per replica, each in a world
// the ring gives to that replica: running them mints every device key of
// the world seed into that replica's key pool.
func (s *opStream) warmSpecs() []wideleak.RunSpec {
	var specs []wideleak.RunSpec
	for _, replica := range replicaIDs {
		specs = append(specs, s.steered(wideleak.RunSpec{}, "warm-"+replica, replica))
	}
	return specs
}
