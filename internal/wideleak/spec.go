package wideleak

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/device"
	"repro/internal/manifest"
	"repro/internal/ott"
)

// RunSpec is the canonical description of one study run — the unit the
// service layer queues, caches and hashes. Two specs that canonicalize to
// the same value describe the same device work and therefore the same
// table bytes, so a content-addressed cache may serve one's result for
// the other without re-running anything.
type RunSpec struct {
	// Seed names the reproducible world ("" canonicalizes to "default").
	Seed string `json:"seed"`
	// Probes selects the probes to run by ID; empty selects the default
	// set, and canonicalization expands both to the resolved selection in
	// registry order (so [] and ["q1","q2","q3","q4"] share a cache key).
	Probes []string `json:"probes,omitempty"`
	// Profiles restricts the studied apps by exact name (empty = all).
	// Order is significant — it is the table's row order.
	Profiles []string `json:"profiles,omitempty"`
	// Devices selects the device set each app's fixture manufactures, by
	// registered profile name (empty = the default pixel,l3,nexus5 trio).
	// Order is NOT significant: canonicalization sorts the set into
	// registry order, so every permutation shares one cache key.
	Devices []string `json:"devices,omitempty"`
	// Dialect selects the manifest wire format every studied app fetches
	// and plays through: "" or "dash" (canonical, the default), "hls", or
	// "sstr". Canonicalization folds the default spelling to "" so default
	// cache keys and goldens are byte-identical to pre-dialect specs.
	Dialect string `json:"dialect,omitempty"`
	// Faults optionally installs deterministic fault injection.
	Faults *RunFaults `json:"faults,omitempty"`
	// Concurrency caps the row workers. It does not contribute to the
	// cache key: the rendered table is byte-identical at every setting.
	Concurrency int `json:"concurrency,omitempty"`
}

// RunFaults configures a spec's deterministic fault layer: a transient
// fault rate in [0,1) and the fault schedule seed ("" canonicalizes to
// "chaos", matching the CLI default).
type RunFaults struct {
	Rate float64 `json:"rate"`
	Seed string  `json:"seed,omitempty"`
}

// Canonicalize validates the spec and returns its canonical form: seed
// defaulted, probes resolved through the registry (deduplicated, registry
// order), profiles expanded and matched to their exact registered names,
// zero-rate fault configs dropped. The canonical form is what Key hashes
// and what job status endpoints echo back.
func (r RunSpec) Canonicalize() (RunSpec, error) {
	c := RunSpec{Seed: canonicalSeed(r.Seed), Concurrency: r.Concurrency}
	if c.Concurrency < 0 {
		c.Concurrency = 0
	}

	selected, _, err := probeRegistry.Resolve(r.Probes)
	if err != nil {
		return RunSpec{}, err
	}
	c.Probes = selected

	known := ott.Profiles()
	if len(r.Profiles) == 0 {
		for _, p := range known {
			c.Profiles = append(c.Profiles, p.Name)
		}
	} else {
		seen := make(map[string]bool, len(r.Profiles))
		for _, name := range r.Profiles {
			resolved := ""
			for _, p := range known {
				if strings.EqualFold(p.Name, name) {
					resolved = p.Name
					break
				}
			}
			if resolved == "" {
				return RunSpec{}, fmt.Errorf("wideleak: unknown app %q", name)
			}
			if seen[resolved] {
				return RunSpec{}, fmt.Errorf("wideleak: duplicate app %q", resolved)
			}
			seen[resolved] = true
			c.Profiles = append(c.Profiles, resolved)
		}
	}

	if c.Devices, err = CanonicalDeviceNames(r.Devices); err != nil {
		return RunSpec{}, err
	}

	if c.Dialect, err = manifest.CanonicalName(r.Dialect); err != nil {
		return RunSpec{}, err
	}

	if r.Faults != nil && r.Faults.Rate != 0 {
		if r.Faults.Rate < 0 || r.Faults.Rate >= 1 {
			return RunSpec{}, fmt.Errorf("wideleak: fault rate must be in [0,1), got %g", r.Faults.Rate)
		}
		seed := r.Faults.Seed
		if seed == "" {
			seed = "chaos"
		}
		c.Faults = &RunFaults{Rate: r.Faults.Rate, Seed: seed}
	}
	return c, nil
}

// Key returns the spec's content address: a hex SHA-256 over the
// canonical form's result-determining fields. Concurrency is excluded —
// it never changes the produced bytes — while the fault schedule is
// included, because it changes the run's event log and virtual timeline
// even when the rendered table is invariant.
func (r RunSpec) Key() (string, error) {
	c, err := r.Canonicalize()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "wideleak-run-v1\nseed=%s\nprobes=%s\nprofiles=%s\ndevices=%s\n",
		c.Seed, strings.Join(c.Probes, ","), strings.Join(c.Profiles, ","), strings.Join(c.Devices, ","))
	// The dialect line appears only for non-default dialects, so every
	// pre-dialect key is unchanged.
	if c.Dialect != "" {
		fmt.Fprintf(h, "dialect=%s\n", c.Dialect)
	}
	if c.Faults != nil {
		fmt.Fprintf(h, "faults=%g:%s\n", c.Faults.Rate, c.Faults.Seed)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WorldKey returns the spec's world identity: a hex SHA-256 over only
// the fields that shape the world's expensive state — the seed, the
// device set each fixture manufactures, and the fault schedule. Probes,
// profiles and concurrency are deliberately excluded: every piece of
// world material is keyed by stable labels, so two requests differing
// only in probe subset or profile list share one warmed world. The
// device set IS included — it decides which cells a fixture builds and
// which observation cells the study plays on, so worlds with different
// device sets are different worlds. The dialect IS included: fixtures
// bake profiles (and with them the dialect each installed app speaks)
// into the world at build time, so worlds cannot be shared across
// dialects. The matrix planner groups a batch's specs into one world per
// key, and the fleet router routes every request of one key to the same
// replica.
func (r RunSpec) WorldKey() (string, error) {
	c, err := r.Canonicalize()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "wideleak-world-v1\nseed=%s\ndevices=%s\n", c.Seed, strings.Join(c.Devices, ","))
	if c.Dialect != "" {
		fmt.Fprintf(h, "dialect=%s\n", c.Dialect)
	}
	if c.Faults != nil {
		fmt.Fprintf(h, "faults=%g:%s\n", c.Faults.Rate, c.Faults.Seed)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// CellKey returns the content address of one probe cell — the
// (world, device set, profile, probe) unit the matrix scheduler
// deduplicates, executes and memoizes. The address covers exactly what
// determines the cell's bytes: the world seed, the canonical device set
// (a Q4 cell's revocation matrix — and every observation cell's device
// selection — depends on which devices the fixture manufactures), the
// fault schedule (a permanent-host schedule changes which cells degrade
// to transport annotations), the app profile and the probe ID.
// Concurrency is excluded for the same reason it is excluded from
// RunSpec.Key: scheduling never changes the produced bytes. Request
// ordering is also excluded deliberately — the chaos suite's invariant
// (transient faults are always masked by the retry budget, permanent
// hosts consume no fault-stream draws) makes a cell's outcome
// independent of which other probes ran before it. The devices slice
// must already be canonical (CanonicalDeviceNames); nil selects the
// default trio. The dialect must already be canonical
// (manifest.CanonicalName); "" is the default DASH trio and adds no key
// line, keeping every pre-dialect cell address stable.
func CellKey(seed string, faults *RunFaults, devices []string, dialect, profile, probeID string) string {
	if len(devices) == 0 {
		devices = defaultDeviceNamesCached
	}
	h := sha256.New()
	fmt.Fprintf(h, "wideleak-cell-v1\nseed=%s\ndevices=%s\n", canonicalSeed(seed), strings.Join(devices, ","))
	if dialect != "" {
		fmt.Fprintf(h, "dialect=%s\n", dialect)
	}
	if faults != nil && faults.Rate != 0 {
		fseed := faults.Seed
		if fseed == "" {
			fseed = "chaos"
		}
		fmt.Fprintf(h, "faults=%g:%s\n", faults.Rate, fseed)
	}
	fmt.Fprintf(h, "profile=%s\nprobe=%s\n", profile, probeID)
	return hex.EncodeToString(h.Sum(nil))
}

// defaultDeviceNamesCached avoids re-allocating the default set on every
// CellKey call (the hot path of batch planning).
var defaultDeviceNamesCached = device.DefaultProfileNames()

// Build materializes the spec: a fresh world for its seed and profile
// set, faults installed when configured, and a study with the spec's
// probe selection and concurrency.
func (r RunSpec) Build() (*Study, error) {
	return r.build(nil)
}

// BuildFromSnapshot materializes the spec over a restored world, the one
// way to restore World.Snapshot output: the snapshot's RSA identities are
// installed up front (zero key generation for every device it covers)
// and the spec's own profile and device sets, fault schedule, probes and
// concurrency are applied on top. The snapshot must carry the spec's
// seed.
func (r RunSpec) BuildFromSnapshot(snapshot []byte) (*Study, error) {
	return r.build(snapshot)
}

func (r RunSpec) build(snapshot []byte) (*Study, error) {
	c, err := r.Canonicalize()
	if err != nil {
		return nil, err
	}
	var profiles []ott.Profile
	for _, name := range c.Profiles {
		for _, p := range ott.Profiles() {
			if p.Name == name {
				profiles = append(profiles, p)
				break
			}
		}
	}
	if c.Dialect != "" {
		// The spec's dialect overrides every studied app's wire format
		// (the registered profiles are copied above, never mutated).
		for i := range profiles {
			profiles[i].ManifestDialect = c.Dialect
		}
	}
	var world *World
	if snapshot != nil {
		world, err = restoreWorld(snapshot, c.Seed, profiles, c.Devices)
	} else {
		world, err = NewWorldDevices(c.Seed, profiles, c.Devices)
	}
	if err != nil {
		return nil, err
	}
	if c.Faults != nil {
		world.InstallFaults(FaultSpec{
			Seed:    c.Faults.Seed,
			Default: TransientFaults(c.Faults.Rate),
		})
	}
	study := NewStudy(world)
	study.Probes = c.Probes
	study.Concurrency = c.Concurrency
	return study, nil
}
