// Package wideleak reproduces "WideLeak: How Over-the-Top Platforms Fail
// in Android" (Patat, Sabt, Fouque — DSN 2022) as a self-contained Go
// library: a simulated Android Widevine ecosystem (OEMCrypto engines at L1
// and L3, TEE, the Android DRM framework, provisioning and license
// servers, DASH/CENC packaging and CDNs, ten OTT app models) plus the
// paper's contribution — an automated, observation-only study engine that
// regenerates Table I and the §IV-D keybox-recovery attack chain.
//
// Quick start:
//
//	world, err := wideleak.NewWorld("seed", nil)
//	if err != nil { ... }
//	study := wideleak.NewStudy(world)
//	table, err := study.BuildTable()
//	fmt.Print(table.Render())
//
// BuildTable fans app rows out over Study.Concurrency workers (default
// runtime.GOMAXPROCS(0)); set Concurrency to 1 for a strictly sequential
// pass or to n for an explicit worker count.
// Every app draws from its own deterministic rand stream forked from the
// world seed, so the rendered table is byte-identical at every
// parallelism level. World.WarmFixtures pre-builds all device fixtures on
// a bounded pool when the minting cost should be paid up front.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package wideleak

import (
	"context"

	"repro/internal/device"
	"repro/internal/manifest"
	"repro/internal/netsim"
	"repro/internal/ott"
	"repro/internal/provision"
	"repro/internal/wideleak"
	"repro/internal/wideleak/probe"
)

// Core study types, re-exported from the internal engine.
type (
	// World is the full experimental setup: ten OTT deployments on a
	// shared simulated network plus per-app device fixtures.
	World = wideleak.World
	// Study runs the paper's four research questions over a World.
	Study = wideleak.Study
	// Table is the reproduced Table I.
	Table = wideleak.Table
	// Row is one app's line of Table I.
	Row = wideleak.Row
	// AppFixture is one app's device matrix: one cell per device profile
	// in the world's device set (the default is the paper's trio — L1
	// Pixel, modern L3 phone, discontinued Nexus 5).
	AppFixture = wideleak.AppFixture
	// DeviceCell is one (device, installed app) unit of an AppFixture.
	DeviceCell = wideleak.DeviceCell
	// DeviceProfile declares one handset model of the device axis.
	DeviceProfile = device.Profile
	// KeyboxState is a device profile's factory keybox trust state.
	KeyboxState = device.KeyboxState

	// Q1Result through Q5Result answer the research questions.
	Q1Result = wideleak.Q1Result
	Q2Result = wideleak.Q2Result
	Q3Result = wideleak.Q3Result
	Q4Result = wideleak.Q4Result
	// Q4DeviceOutcome is one cell of Q4's revocation matrix.
	Q4DeviceOutcome = wideleak.Q4DeviceOutcome
	Q5Result        = wideleak.Q5Result
	// ImpactResult reports one app's §IV-D attack-chain outcome.
	ImpactResult = wideleak.ImpactResult

	// ProbeInfo describes one registered probe (for listings).
	ProbeInfo = probe.Info
	// ProbeEvent is one structured pipeline event (probe started/
	// finished/degraded, masked transport retry).
	ProbeEvent = probe.Event
	// ProbeEventKind classifies a ProbeEvent.
	ProbeEventKind = probe.EventKind
	// ProbeSink receives pipeline events (install via Study.SetEventSink).
	ProbeSink = probe.Sink
	// ProbeLog is a concurrency-safe event collector usable as a sink.
	ProbeLog = probe.Log

	// Protection classifies asset protection (Encrypted/Clear/Unknown).
	Protection = wideleak.Protection
	// KeyUsage classifies key assignment (Minimum/Recommended/Unknown).
	KeyUsage = wideleak.KeyUsage
	// LegacyOutcome classifies discontinued-device playback.
	LegacyOutcome = wideleak.LegacyOutcome
	// LicensePolicy classifies licensing across playbacks (Q5).
	LicensePolicy = wideleak.LicensePolicy

	// Profile describes one OTT app's implementation choices.
	Profile = ott.Profile

	// FaultSpec configures deterministic fault injection for a world.
	FaultSpec = wideleak.FaultSpec
	// FaultProfile is one host's (or the default) fault mix.
	FaultProfile = netsim.FaultProfile

	// KeyPool pre-mints deterministic Device RSA keys off the hot path;
	// see NewKeyPool and World.AttachKeyPool.
	KeyPool = provision.KeyPool

	// RunSpec is the canonical description of one study run — the unit
	// the wideleakd service queues, content-addresses and caches.
	RunSpec = wideleak.RunSpec
	// RunFaults is a RunSpec's optional fault-injection layer.
	RunFaults = wideleak.RunFaults

	// CellOutcome is one memoized probe-cell result — the unit the
	// batch scheduler dedups, caches and reassembles tables from.
	CellOutcome = wideleak.CellOutcome
	// CellCache is the LRU memo of completed probe cells.
	CellCache = wideleak.CellCache
	// BatchOptions configures ExecuteBatch.
	BatchOptions = wideleak.BatchOptions
	// BatchStats reports a batch's planning and execution counters.
	BatchStats = wideleak.BatchStats
	// BatchResult carries a batch's per-spec tables and stats.
	BatchResult = wideleak.BatchResult
	// RowUpdate is one completed (spec, app) row streamed by a batch.
	RowUpdate = wideleak.RowUpdate
)

// Classification values.
const (
	ProtectionUnknown   = wideleak.ProtectionUnknown
	ProtectionEncrypted = wideleak.ProtectionEncrypted
	ProtectionClear     = wideleak.ProtectionClear

	KeyUsageUnknown     = wideleak.KeyUsageUnknown
	KeyUsageMinimum     = wideleak.KeyUsageMinimum
	KeyUsageRecommended = wideleak.KeyUsageRecommended

	LegacyPlays             = wideleak.LegacyPlays
	LegacyProvisioningFails = wideleak.LegacyProvisioningFails
	LegacyPlaysCustomDRM    = wideleak.LegacyPlaysCustomDRM
	LegacyOtherFailure      = wideleak.LegacyOtherFailure

	LicenseUnknown     = wideleak.LicenseUnknown
	LicensePerPlayback = wideleak.LicensePerPlayback
	LicenseCached      = wideleak.LicenseCached
)

// Keybox trust states of the device axis.
const (
	KeyboxValid     = device.KeyboxValid
	KeyboxRevoked   = device.KeyboxRevoked
	KeyboxAbsentTEE = device.KeyboxAbsentTEE
)

// Pipeline event kinds.
const (
	EventProbeStarted  = probe.EventProbeStarted
	EventProbeFinished = probe.EventProbeFinished
	EventProbeDegraded = probe.EventProbeDegraded
	EventRetry         = probe.EventRetry
)

// ContentID is the catalog title every deployment serves.
const ContentID = wideleak.ContentID

// NewWorld builds a reproducible experimental world for the given profiles
// (nil selects the paper's ten apps) over the default device trio.
func NewWorld(seed string, profiles []Profile) (*World, error) {
	return wideleak.NewWorld(seed, profiles)
}

// NewWorldDevices is NewWorld with an explicit device set: each app's
// fixture manufactures one cell per named device profile (nil = the
// default pixel,l3,nexus5 trio). The set is canonicalized — order-
// insensitive, validated against the device registry — before building.
func NewWorldDevices(seed string, profiles []Profile, devices []string) (*World, error) {
	return wideleak.NewWorldDevices(seed, profiles, devices)
}

// DeviceProfiles returns every registered device profile in canonical
// (registration) order — the full device axis.
func DeviceProfiles() []DeviceProfile { return device.Profiles() }

// DefaultDeviceNames returns the default device set (the paper's
// pixel/l3/nexus5 trio), in canonical order.
func DefaultDeviceNames() []string { return device.DefaultProfileNames() }

// ValidateDevices checks a device selection without building anything;
// the error for an unknown name lists the registered profiles, and the
// canonical (deduplicated, registry-ordered) form is returned.
func ValidateDevices(names []string) ([]string, error) {
	return wideleak.CanonicalDeviceNames(names)
}

// ManifestDialects returns the registered manifest dialect names in
// canonical (registration) order — the protocol axis.
func ManifestDialects() []string { return manifest.Names() }

// DefaultManifestDialect is the registered name of the default manifest
// dialect (canonically spelled "" in specs and cache keys).
const DefaultManifestDialect = manifest.DefaultName

// ValidateDialect checks a manifest dialect name without building
// anything; the error for an unknown name lists the registered dialects,
// and the canonical form ("" for the default, the lowercase registered
// name otherwise) is returned.
func ValidateDialect(name string) (string, error) {
	return manifest.CanonicalName(name)
}

// NewStudy wraps a world in a study runner.
func NewStudy(w *World) *Study { return wideleak.NewStudy(w) }

// PaperTable returns the paper's Table I verbatim — the expected result the
// reproduction is compared against.
func PaperTable() *Table { return wideleak.PaperTable() }

// Profiles returns the ten evaluated apps with their observed behaviours.
func Profiles() []Profile { return ott.Profiles() }

// ProbeIDs returns every registered probe ID in registration order.
func ProbeIDs() []string { return wideleak.ProbeIDs() }

// DefaultProbeIDs returns the default probe selection (the paper's
// Q1–Q4), in registration order.
func DefaultProbeIDs() []string { return wideleak.DefaultProbeIDs() }

// ProbeInfos describes every registered probe.
func ProbeInfos() []ProbeInfo { return wideleak.ProbeInfos() }

// ValidateProbes checks a probe selection without running anything; the
// error for an unknown ID lists the registered probes.
func ValidateProbes(ids []string) error { return wideleak.ValidateProbes(ids) }

// TransientFaults builds a transient-only fault profile failing roughly
// rate of connection attempts; the stock retry policies mask it, so the
// study's results are unchanged — only the virtual timeline stretches.
func TransientFaults(rate float64) FaultProfile { return wideleak.TransientFaults(rate) }

// NewKeyPool builds a fresh, unshared Device RSA key pool for a world
// seed ("" = "default"): keys pre-minted here are byte-identical to the
// ones the seed's worlds mint on demand. Worlds already share one pool
// per seed in a process-wide store; attach a fresh pool with
// World.AttachKeyPool.
func NewKeyPool(seed string) *KeyPool { return wideleak.NewKeyPool(seed) }

// DeviceStableIDs lists the stable device IDs the given profiles'
// worlds provision over the default device trio (nil = the paper's ten
// apps) — the ID set to feed KeyPool.Prewarm.
func DeviceStableIDs(profiles []Profile) []string { return wideleak.DeviceStableIDs(profiles) }

// DeviceStableIDsFor is DeviceStableIDs over an explicit device set
// (nil = the default trio): the prewarm ID list for worlds built with
// NewWorldDevices or a RunSpec carrying Devices.
func DeviceStableIDsFor(profiles []Profile, devices []string) ([]string, error) {
	return wideleak.DeviceStableIDsFor(profiles, devices)
}

// CellKey is the content address of one probe cell: seed + canonical
// fault schedule + canonical device set + canonical manifest dialect +
// profile + probe. Everything that can change a cell's outcome is in the
// key; scheduling details (Concurrency, request ordering) deliberately
// are not — see DESIGN.md §cell addressing. devices must be canonical
// (ValidateDevices); nil selects the default trio. dialect must be
// canonical (ValidateDialect); "" is the default DASH form and leaves
// pre-dialect addresses untouched.
func CellKey(seed string, faults *RunFaults, devices []string, dialect, profile, probeID string) string {
	return wideleak.CellKey(seed, faults, devices, dialect, profile, probeID)
}

// NewCellCache builds an LRU memo for capacity completed probe cells
// (<= 0 disables storing, so lookups always miss).
func NewCellCache(capacity int) *CellCache { return wideleak.NewCellCache(capacity) }

// ExecuteBatch plans a slice of RunSpecs as a dedup'd DAG of probe
// cells over shared worlds, executes the distinct cells on a bounded
// pool, and reassembles each spec's Table byte-identical to a fresh
// per-spec run.
func ExecuteBatch(ctx context.Context, specs []RunSpec, opts BatchOptions) (*BatchResult, error) {
	return wideleak.ExecuteBatch(ctx, specs, opts)
}
