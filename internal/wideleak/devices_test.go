package wideleak

import (
	"context"
	"strings"
	"testing"
)

// TestWorldDevicesDefaultIdentity: NewWorld and NewWorldDevices with the
// trio named explicitly (in any order, any case) are the same world —
// the rendered table is byte-identical.
func TestWorldDevicesDefaultIdentity(t *testing.T) {
	base, err := NewWorld("device-identity", nil)
	if err != nil {
		t.Fatal(err)
	}
	baseTable, err := NewStudy(base).BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	want := baseTable.Render()

	for _, devices := range [][]string{
		{"pixel", "l3", "nexus5"},
		{"nexus5", "l3", "pixel"},
		{"NEXUS5", "Pixel", "L3"},
	} {
		w, err := NewWorldDevices("device-identity", nil, devices)
		if err != nil {
			t.Fatal(err)
		}
		table, err := NewStudy(w).BuildTable()
		if err != nil {
			t.Fatal(err)
		}
		if got := table.Render(); got != want {
			t.Fatalf("devices %v: table diverges from default world:\n%s", devices, got)
		}
	}
}

// TestSpecDevicesCanonicalization pins the device axis's spec contract:
// permutations and case variants share one Key and WorldKey, the empty
// set expands to the trio, and unknown or duplicate names are rejected
// with the registry echoed back.
func TestSpecDevicesCanonicalization(t *testing.T) {
	base := RunSpec{Seed: "canon", Devices: []string{"pixel", "l3"}}
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	baseWorld, err := base.WorldKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range [][]string{{"l3", "pixel"}, {"L3", "PIXEL"}} {
		spec := RunSpec{Seed: "canon", Devices: devices}
		if k, err := spec.Key(); err != nil || k != baseKey {
			t.Errorf("devices %v: Key = %s, %v; want %s", devices, k, err, baseKey)
		}
		if wk, err := spec.WorldKey(); err != nil || wk != baseWorld {
			t.Errorf("devices %v: WorldKey = %s, %v; want %s", devices, wk, err, baseWorld)
		}
	}

	// The default set and the explicit trio canonicalize together...
	implicit, err := RunSpec{Seed: "canon"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RunSpec{Seed: "canon", Devices: []string{"nexus5", "pixel", "l3"}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Error("explicit default trio does not share the implicit key")
	}
	// ...and a different set is a different run and a different world.
	if baseKey == implicit {
		t.Error("device subset shares the default run key")
	}
	if defWorld, err := (RunSpec{Seed: "canon"}).WorldKey(); err != nil || defWorld == baseWorld {
		t.Errorf("device subset shares the default world key (%v)", err)
	}

	c, err := RunSpec{Seed: "canon"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(c.Devices, ",") != "pixel,l3,nexus5" {
		t.Errorf("canonical default devices = %v", c.Devices)
	}

	if _, err := (RunSpec{Devices: []string{"warpphone"}}).Canonicalize(); err == nil ||
		!strings.Contains(err.Error(), `"warpphone"`) || !strings.Contains(err.Error(), "pixel") {
		t.Errorf("unknown device error = %v; want the name and the registry", err)
	}
	if _, err := (RunSpec{Devices: []string{"pixel", "PIXEL"}}).Canonicalize(); err == nil {
		t.Error("duplicate device accepted")
	}
}

// TestRevocationMatrix runs Q4 over a device set bracketing the CDM-14.0
// revocation threshold plus a revoked identity, and pins the per-cell
// outcomes the paper's policy model implies:
//
//   - an app without a CDM floor (Netflix) plays on every legacy device
//     that still provisions;
//   - a revoking app (Disney+) refuses provisioning below CDM 14.0 and
//     plays at the threshold;
//   - an embedded-CDM app (Amazon) bypasses Widevine on L3 entirely, so
//     it plays through its own DRM everywhere — even on a revoked keybox.
func TestRevocationMatrix(t *testing.T) {
	profiles := profilesNamed(t, "Netflix", "Disney+", "Amazon Prime Video")
	w, err := NewWorldDevices("revocation-matrix", profiles,
		[]string{"pixel", "galaxy-s7", "oneplus-5", "l3-revoked"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(w)

	want := map[string]map[string]LegacyOutcome{
		"Netflix": {
			"galaxy-s7":  LegacyPlays,
			"oneplus-5":  LegacyPlays,
			"l3-revoked": LegacyProvisioningFails,
		},
		"Disney+": {
			"galaxy-s7":  LegacyProvisioningFails, // CDM 11.0 < 14.0 floor
			"oneplus-5":  LegacyPlays,             // at the threshold
			"l3-revoked": LegacyProvisioningFails,
		},
		"Amazon Prime Video": {
			"galaxy-s7":  LegacyPlaysCustomDRM,
			"oneplus-5":  LegacyPlaysCustomDRM,
			"l3-revoked": LegacyPlaysCustomDRM, // embedded CDM needs no provisioning
		},
	}
	for app, cells := range want {
		q4, err := s.RunQ4(app)
		if err != nil {
			t.Fatal(err)
		}
		if len(q4.Devices) != len(cells) {
			t.Errorf("%s: %d legacy cells, want %d", app, len(q4.Devices), len(cells))
		}
		for _, cell := range q4.Devices {
			if wantOut, ok := cells[cell.Device]; !ok {
				t.Errorf("%s: unexpected legacy cell %s", app, cell.Device)
			} else if cell.Outcome != wantOut {
				t.Errorf("%s on %s = %v (%s), want %v", app, cell.Device, cell.Outcome, cell.Detail, wantOut)
			}
		}
		// The primary outcome is the first cell in canonical device order.
		if q4.Outcome != q4.Devices[0].Outcome {
			t.Errorf("%s: primary outcome %v != first cell %v", app, q4.Outcome, q4.Devices[0].Outcome)
		}
	}
}

// TestBatchDeviceMatrixRecombination: a wide device matrix (8 profiles ×
// 4 apps) primes the cell cache; a probe-subset spec over the same
// matrix then reassembles entirely from memoized cells — zero new
// observations, zero executed cells.
func TestBatchDeviceMatrixRecombination(t *testing.T) {
	devices := []string{"pixel", "l3", "nexus5", "pixel-2016", "galaxy-s7", "moto-g5", "oneplus-5", "shield-tv"}
	apps := []string{"Netflix", "Disney+", "Hulu", "Showtime"}
	cache := NewCellCache(512)

	full := RunSpec{Seed: "device-matrix", Profiles: apps, Devices: devices}
	first, err := ExecuteBatch(context.Background(), []RunSpec{full}, BatchOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.CellsExecuted == 0 || first.Stats.WorldsBuilt != 1 {
		t.Fatalf("priming batch stats = %+v", first.Stats)
	}
	for _, name := range devices {
		if n := first.Stats.DeviceCells[name]; n != len(apps) {
			t.Errorf("device cells[%s] = %d, want %d (one per app)", name, n, len(apps))
		}
	}

	subset := RunSpec{Seed: "device-matrix", Profiles: apps, Devices: devices, Probes: []string{"q2", "q3"}}
	second, err := ExecuteBatch(context.Background(), []RunSpec{subset}, BatchOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.CellsExecuted != 0 {
		t.Errorf("subset executed %d cells, want 0 (pure recombination)", second.Stats.CellsExecuted)
	}
	if second.Stats.Observations != 0 || second.Stats.WorldsBuilt != 0 {
		t.Errorf("subset stats = %+v, want no device work", second.Stats)
	}
	if len(second.Stats.DeviceCells) != 0 {
		t.Errorf("recombined batch reports device cells %v, want none", second.Stats.DeviceCells)
	}

	// The recombined bytes match a fresh standalone run.
	study, err := subset.Build()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := study.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := second.Tables[0].Render(), fresh.Render(); got != want {
		t.Errorf("recombined table differs from fresh run:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
