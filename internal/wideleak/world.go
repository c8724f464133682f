// Package wideleak is the paper's primary contribution rebuilt as a
// library: an automated study engine that answers the four research
// questions (Q1 Widevine usage, Q2 content protection, Q3 key usage, Q4
// discontinued-device support) for a set of OTT apps, producing Table I,
// and that runs the §IV-D practical-impact attack chain.
//
// The engine is strictly observational: it derives every cell from monitor
// traces, intercepted network traffic and downloaded assets — never from
// the apps' configured profiles — mirroring the paper's black-box
// methodology against closed-source apps.
package wideleak

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/oemcrypto"
	"repro/internal/ott"
	"repro/internal/provision"
	"repro/internal/wvcrypto"
)

// ContentID is the catalog title every deployment serves.
const ContentID = "movie-1"

// World is the full experimental setup: ten OTT deployments on a shared
// network, a device factory, and per-app device/app fixtures built lazily.
//
// Every randomness consumer gets its own stream forked from the world seed
// by stable label, so the world's material is identical regardless of the
// order (or concurrency) in which fixtures are built.
type World struct {
	Network  *netsim.Network
	Registry *provision.Registry
	Factory  *device.Factory

	seed     string
	root     *wvcrypto.DeterministicReader
	clock    *netsim.VirtualClock
	profiles []ott.Profile
	devices  []device.Profile

	deployments map[string]*ott.Deployment

	// mu guards the fixtures map and cellCounts; fixture construction
	// itself runs under a per-app once-guard so concurrent callers
	// building different apps never serialize.
	mu         sync.Mutex
	fixtures   map[string]*fixtureEntry
	cellCounts map[string]int // device profile name → fixture cells built
}

// fixtureEntry is the per-app build guard: concurrent Fixture calls for the
// same app share one build, calls for different apps proceed in parallel.
type fixtureEntry struct {
	once sync.Once
	f    *AppFixture
	err  error
}

// DeviceCell is one (device, installed app) unit of an app's fixture —
// the device axis' atom. Cells are ordered by the world's canonical
// device list and each one draws from its own rand fork, so a cell's
// material is a pure function of (seed, app, device profile).
type DeviceCell struct {
	Profile device.Profile
	Device  *device.Device
	App     *ott.App
}

// AppFixture is one app's device matrix: the app installed on every
// device the world manufactures, one cell per device profile, in
// canonical device order (the default set is the paper's trio — L1
// Pixel, modern L3 phone, discontinued Nexus 5).
type AppFixture struct {
	Profile ott.Profile
	Cells   []DeviceCell
}

// Cell returns the cell for a device profile name, nil when the world
// doesn't manufacture it.
func (f *AppFixture) Cell(name string) *DeviceCell {
	for i := range f.Cells {
		if f.Cells[i].Profile.Name == name {
			return &f.Cells[i]
		}
	}
	return nil
}

// Device returns the named profile's device, nil when absent.
func (f *AppFixture) Device(name string) *device.Device {
	if c := f.Cell(name); c != nil {
		return c.Device
	}
	return nil
}

// App returns the app install on the named profile's device, nil when
// absent.
func (f *AppFixture) App(name string) *ott.App {
	if c := f.Cell(name); c != nil {
		return c.App
	}
	return nil
}

// ObservationL1 returns the cell the study observes L1 behaviour on:
// the first current (non-legacy) L1 device with a trusted identity.
// Nil when the device set has no such device.
func (f *AppFixture) ObservationL1() *DeviceCell {
	for i := range f.Cells {
		p := f.Cells[i].Profile
		if p.Level == oemcrypto.L1 && !p.Legacy && !p.Revoked() {
			return &f.Cells[i]
		}
	}
	return nil
}

// ObservationL3 returns the cell the study observes L3 behaviour on:
// the first current (non-legacy) L3 device with a trusted identity.
// Nil when the device set has no such device.
func (f *AppFixture) ObservationL3() *DeviceCell {
	for i := range f.Cells {
		p := f.Cells[i].Profile
		if p.Level == oemcrypto.L3 && !p.Legacy && !p.Revoked() {
			return &f.Cells[i]
		}
	}
	return nil
}

// LegacyCells returns every discontinued-device cell in canonical
// order — the population Q4's revocation matrix plays on.
func (f *AppFixture) LegacyCells() []*DeviceCell {
	var out []*DeviceCell
	for i := range f.Cells {
		if f.Cells[i].Profile.Legacy {
			out = append(out, &f.Cells[i])
		}
	}
	return out
}

// Legacy returns the first discontinued-device cell (the Nexus 5 in the
// default set), nil when the device set has none.
func (f *AppFixture) Legacy() *DeviceCell {
	for i := range f.Cells {
		if f.Cells[i].Profile.Legacy {
			return &f.Cells[i]
		}
	}
	return nil
}

// CanonicalDeviceNames resolves a requested device set against the
// profile registry: names are matched case-insensitively, duplicates
// rejected, and the result ordered canonically (registry registration
// order), so any permutation of the same set yields one canonical list.
// nil or empty selects the default trio. The unknown-name error lists
// every registered profile.
func CanonicalDeviceNames(names []string) ([]string, error) {
	if len(names) == 0 {
		return device.DefaultProfileNames(), nil
	}
	out := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		p, ok := device.ByName(name)
		if !ok {
			return nil, fmt.Errorf("wideleak: unknown device profile %q (registered: %s)",
				name, strings.Join(device.ProfileNames(), ", "))
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("wideleak: duplicate device profile %q", p.Name)
		}
		seen[p.Name] = true
		out = append(out, p.Name)
	}
	device.SortByRegistry(out)
	return out, nil
}

// ResolveDeviceProfiles canonicalizes a device set (see
// CanonicalDeviceNames) and resolves it to profiles.
func ResolveDeviceProfiles(names []string) ([]device.Profile, error) {
	canonical, err := CanonicalDeviceNames(names)
	if err != nil {
		return nil, err
	}
	out := make([]device.Profile, len(canonical))
	for i, name := range canonical {
		out[i] = device.MustProfile(name)
	}
	return out, nil
}

// NewWorld builds the deployments for the given profiles (defaulting to the
// paper's ten apps when profiles is nil) over the default device trio. The
// seed makes the whole world reproducible: every deployment and fixture
// draws from a stream forked from the seed by stable label, never from a
// shared cursor.
func NewWorld(seed string, profiles []ott.Profile) (*World, error) {
	return NewWorldDevices(seed, profiles, nil)
}

// NewWorldDevices is NewWorld with an explicit device set: each app's
// fixture manufactures one cell per named device profile. nil devices
// selects the default trio; the set is canonicalized (order-insensitive,
// registry-validated) before the world is built. The seed "" is
// "default".
func NewWorldDevices(seed string, profiles []ott.Profile, devices []string) (*World, error) {
	if profiles == nil {
		profiles = ott.Profiles()
	}
	deviceProfiles, err := ResolveDeviceProfiles(devices)
	if err != nil {
		return nil, err
	}
	seed = canonicalSeed(seed)
	root := worldRoot(seed)
	w := &World{
		Network:     netsim.NewNetwork(),
		Registry:    provision.NewRegistry(),
		seed:        seed,
		root:        root,
		clock:       netsim.NewVirtualClock(),
		profiles:    profiles,
		devices:     deviceProfiles,
		deployments: make(map[string]*ott.Deployment, len(profiles)),
		fixtures:    make(map[string]*fixtureEntry, len(profiles)),
		cellCounts:  make(map[string]int, len(deviceProfiles)),
	}
	// Device RSA keys mint from per-device forks of the world's
	// provisioning root — a pure function of (seed, stable ID), never of
	// provisioning order — so every world of the seed provisions from the
	// process-wide store's one pool.
	w.Registry.UseKeyPool(provision.SharedKeyPool(mintRoot(seed)))
	w.Factory = device.NewFactory(w.Registry, root.Fork("factory"))
	for _, p := range profiles {
		dep, err := ott.NewDeployment(p, []string{ContentID}, w.Registry, w.Network, root.Fork("deploy/"+p.Name))
		if err != nil {
			return nil, fmt.Errorf("wideleak: deploy %s: %w", p.Name, err)
		}
		w.deployments[p.Name] = dep
	}
	return w, nil
}

// Profiles returns the studied app profiles.
func (w *World) Profiles() []ott.Profile { return w.profiles }

// DeviceNames returns the world's device profile names in canonical
// order.
func (w *World) DeviceNames() []string {
	names := make([]string, len(w.devices))
	for i, p := range w.devices {
		names[i] = p.Name
	}
	return names
}

// DeviceCellCounts reports how many fixture cells the world has built
// per device profile — the device-cell dimension batch stats and the
// daemon's wideleakd_device_cells_total counter surface.
func (w *World) DeviceCellCounts() map[string]int {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]int, len(w.cellCounts))
	for k, v := range w.cellCounts {
		out[k] = v
	}
	return out
}

// ManifestServeCounts reports how many manifests the world's CDNs have
// served per dialect, summed across deployments — the protocol dimension
// batch stats and the daemon's wideleakd_manifests_served_total counter
// surface.
func (w *World) ManifestServeCounts() map[string]int {
	out := make(map[string]int)
	for _, dep := range w.deployments {
		for dialect, n := range dep.CDN().ServeCounts() {
			out[dialect] += int(n)
		}
	}
	return out
}

// Seed returns the world's reproducibility seed.
func (w *World) Seed() string { return w.seed }

// canonicalSeed is the one spelling of a seed that worlds, key pools, run
// specs and cell keys share: "" is "default".
func canonicalSeed(seed string) string {
	if seed == "" {
		return "default"
	}
	return seed
}

// worldRoot is the rand root every world of a seed forks from.
func worldRoot(seed string) *wvcrypto.DeterministicReader {
	return wvcrypto.NewDeterministicReader("wideleak-world-" + canonicalSeed(seed))
}

// mintRoot derives a seed's RSA provisioning root from its world root.
// The label is part of the determinism contract.
func mintRoot(seed string) *wvcrypto.DeterministicReader {
	return worldRoot(seed).Fork("provision/rsa")
}

// NewKeyPool builds a fresh, unshared Device RSA key pool for a seed,
// minting keys byte-identical to the ones any World with that seed mints
// on demand. Worlds already share their seed's pool in the process-wide
// store (SharedKeyPool); a fresh pool is for callers that must start
// empty, such as a keygen timing or a pool filled from stored keys.
func NewKeyPool(seed string) *provision.KeyPool {
	return provision.NewKeyPool(mintRoot(seed))
}

// SharedKeyPool returns the process-wide store's pool for a seed: the
// pool every world of that seed provisions from unless another is
// attached.
func SharedKeyPool(seed string) *provision.KeyPool {
	return provision.SharedKeyPool(mintRoot(seed))
}

// AttachKeyPool replaces the world's store pool with another pool of
// its seed, so keys put there elsewhere (a fresh pool prewarmed or
// filled from stored keys) are served without generation. The pool must
// derive from this world's seed — attaching a mismatched pool would
// silently change every device identity, so it is rejected instead.
// Attach before any provisioning traffic.
func (w *World) AttachKeyPool(pool *provision.KeyPool) error {
	if got, want := pool.Fingerprint(), mintRoot(w.seed).Fingerprint(); got != want {
		return fmt.Errorf("wideleak: key pool seed mismatch (pool %s, world %s)", got, want)
	}
	w.Registry.UseKeyPool(pool)
	return nil
}

// DeviceStableIDs returns the stable IDs (device serials) of every
// device this world's fixtures will manufacture, in profile order —
// the prewarm set for its seed's key pool.
func (w *World) DeviceStableIDs() []string {
	return stableIDs(w.profiles, w.devices)
}

// DeviceStableIDs enumerates the device serials the given profiles'
// fixtures mint over the default device trio (nil = the paper's ten
// apps). See DeviceStableIDsFor.
func DeviceStableIDs(profiles []ott.Profile) []string {
	ids, _ := DeviceStableIDsFor(profiles, nil)
	return ids
}

// DeviceStableIDsFor enumerates the device serials the given app
// profiles' fixtures mint over a device set (nil devices = default
// trio): per app, one serial per device cell in canonical device order,
// plus — for apps shipping an embedded Widevine library — the embedded
// CDM identities their installs register on each L3-level device. The
// list is what a key pool prewarms; it is derived from the device
// registry, not enumerated, so serials stay a pure function of (app
// profile names, device set) and can be computed without building any
// world.
func DeviceStableIDsFor(profiles []ott.Profile, devices []string) ([]string, error) {
	deviceProfiles, err := ResolveDeviceProfiles(devices)
	if err != nil {
		return nil, err
	}
	return stableIDs(profiles, deviceProfiles), nil
}

func stableIDs(profiles []ott.Profile, devices []device.Profile) []string {
	if profiles == nil {
		profiles = ott.Profiles()
	}
	out := make([]string, 0, len(devices)*len(profiles))
	for _, p := range profiles {
		// Device serials first, then embedded CDM identities, matching the
		// historical prewarm order for the default trio.
		for _, dp := range devices {
			out = append(out, deviceSerial(dp, p.Name))
		}
		if p.EmbeddedCDMOnL3 {
			for _, dp := range devices {
				if dp.Level == oemcrypto.L3 {
					out = append(out, embeddedSerial(deviceSerial(dp, p.Name)))
				}
			}
		}
	}
	return out
}

// embeddedSerial derives the stable ID of an app-embedded CDM's keybox
// from its host device's serial, mirroring ott.Install exactly.
func embeddedSerial(deviceSerial string) string {
	serial := deviceSerial + "-emb"
	if len(serial) > 32 {
		serial = serial[:32]
	}
	return serial
}

// deviceSerial returns the serial one app's fixture cell manufactures
// for a device profile. Serials double as provisioning stable IDs, so
// fixture building and key-pool prewarming must agree on them exactly.
func deviceSerial(dp device.Profile, app string) string {
	return dp.SerialPrefix + "-" + shortName(app)
}

// Clock returns the world's virtual clock. Injected latency and retry
// backoff are charged to it, so fault-laden studies complete in real
// milliseconds while the accumulated delay stays observable.
func (w *World) Clock() *netsim.VirtualClock { return w.clock }

// FaultSpec configures deterministic fault injection for a world. The
// schedule depends only on the world seed, the fault seed, and each
// host's own request sequence — never on wall time or goroutine order.
type FaultSpec struct {
	// Seed names the fault schedule: the same world seed and fault seed
	// always reproduce the exact same faults.
	Seed string
	// Default applies to every host without a PerHost override.
	Default netsim.FaultProfile
	// PerHost overrides the mix for specific hosts (e.g. one app's
	// license server marked Permanent).
	PerHost map[string]netsim.FaultProfile
}

// InstallFaults puts a deterministic fault layer on the world's network.
// Transient profiles with the default burst cap are masked by the stock
// retry policies (the rendered Table I is byte-identical to the
// fault-free run); Permanent profiles exhaust retries and surface as
// annotated per-app cells.
func (w *World) InstallFaults(spec FaultSpec) *netsim.FaultPlan {
	plan := netsim.NewFaultPlan(w.root.Fork("faults/"+spec.Seed), spec.Default)
	plan.SetClock(w.clock)
	for host, fp := range spec.PerHost {
		plan.SetHostProfile(host, fp)
	}
	w.Network.SetFaultPlan(plan)
	return plan
}

// FaultPlan returns the installed fault layer, nil when the network is
// perfect.
func (w *World) FaultPlan() *netsim.FaultPlan { return w.Network.FaultPlan() }

// TransientFaults builds a transient-only profile failing roughly rate
// of all attempts (split evenly across drops, busies and flaps), with
// occasional injected latency. Bursts stay under the default retry
// budget, so installing it never changes a study's outcome.
func TransientFaults(rate float64) netsim.FaultProfile {
	return netsim.FaultProfile{
		DropRate:    rate / 3,
		BusyRate:    rate / 3,
		FlapRate:    rate / 3,
		LatencyRate: 0.1,
		Latency:     20 * time.Millisecond,
	}
}

// Deployment returns one app's backend.
func (w *World) Deployment(app string) *ott.Deployment { return w.deployments[app] }

// Fixture lazily builds one app's device set. Concurrent calls for the same
// app share a single build; calls for different apps run fully in parallel
// (fixture minting is the study's RSA-heavy phase, so this is the
// scalability pivot for parallel table construction).
func (w *World) Fixture(app string) (*AppFixture, error) {
	w.mu.Lock()
	e, ok := w.fixtures[app]
	if !ok {
		e = &fixtureEntry{}
		w.fixtures[app] = e
	}
	w.mu.Unlock()
	e.once.Do(func() { e.f, e.err = w.buildFixture(app) })
	return e.f, e.err
}

// buildFixture manufactures one app's device matrix: one cell per device
// profile in the world's canonical device order. Each cell draws every
// byte of randomness (keybox, engine material, install, retry jitter)
// from its own fork of the app's stream, so a cell's material is
// invariant under changes to the rest of the device set.
func (w *World) buildFixture(app string) (*AppFixture, error) {
	var profile *ott.Profile
	for i := range w.profiles {
		if w.profiles[i].Name == app {
			profile = &w.profiles[i]
			break
		}
	}
	if profile == nil {
		return nil, fmt.Errorf("wideleak: unknown app %q", app)
	}

	rand := w.root.Fork("fixture/" + app)
	f := &AppFixture{Profile: *profile, Cells: make([]DeviceCell, 0, len(w.devices))}
	for _, dp := range w.devices {
		cellRand := rand.Fork("device/" + dp.Name)
		dev, err := w.Factory.WithRand(cellRand).Make(dp, deviceSerial(dp, app))
		if err != nil {
			return nil, fmt.Errorf("wideleak: manufacture %s for %s: %w", dp.Name, app, err)
		}
		a, err := ott.Install(*profile, dev, w.Network, w.Registry, cellRand)
		if err != nil {
			return nil, fmt.Errorf("wideleak: install %s on %s: %w", app, dp.Name, err)
		}
		// Every installed app retries transient transport faults, with
		// jitter from the cell's own forked stream and backoff on the
		// world's virtual clock, so fault-laden runs stay reproducible and
		// cost no wall time.
		a.NetworkClient().SetRetryPolicy(netsim.DefaultRetryPolicy(cellRand.Fork("retry"), w.clock))
		f.Cells = append(f.Cells, DeviceCell{Profile: dp, Device: dev, App: a})
	}
	w.mu.Lock()
	for _, c := range f.Cells {
		w.cellCounts[c.Profile.Name]++
	}
	w.mu.Unlock()
	return f, nil
}

// WarmFixtures pre-builds every app's fixture on a bounded worker pool,
// so a subsequent table build (or any per-question run) finds all device
// material minted. parallelism <= 0 selects one worker per app. The first
// error in profile order is returned; ctx cancellation stops workers from
// picking up further apps.
func (w *World) WarmFixtures(ctx context.Context, parallelism int) error {
	apps := w.profiles
	if parallelism <= 0 || parallelism > len(apps) {
		parallelism = len(apps)
	}
	if parallelism == 0 {
		return nil
	}
	errs := make([]error, len(apps))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(parallelism)
	for i := 0; i < parallelism; i++ {
		go func() {
			defer wg.Done()
			for idx := range next {
				_, errs[idx] = w.Fixture(apps[idx].Name)
			}
		}()
	}
feed:
	for i := range apps {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("wideleak: warm fixture %s: %w", apps[i].Name, err)
		}
	}
	return nil
}

// AttackerClient returns a fresh unpinned network client — the attacker's
// own machine, with no OTT account or app, used to download CDN assets.
// Like the apps, it retries transient faults deterministically.
func (w *World) AttackerClient() *netsim.Client {
	c := netsim.NewClient(w.Network)
	c.SetRetryPolicy(netsim.DefaultRetryPolicy(w.root.Fork("retry/attacker"), w.clock))
	return c
}

// shortName compresses an app name into a serial-safe token: up to eight
// alphanumeric characters plus a stable hash suffix of the full name, so
// apps sharing an eight-character prefix ("Disney+ Originals" vs
// "Disney+ Kids") still mint distinct device serials.
func shortName(app string) string {
	out := make([]byte, 0, 8)
	for _, c := range app {
		if c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			out = append(out, byte(c))
		}
		if len(out) == 8 {
			break
		}
	}
	sum := sha256.Sum256([]byte(app))
	return string(out) + "-" + hex.EncodeToString(sum[:2])
}
