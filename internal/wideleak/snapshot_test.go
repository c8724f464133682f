package wideleak

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/ott"
	"repro/internal/wvcrypto"
)

// warmDefaultSnapshot builds the default world once, runs the full study
// to provision every device, and returns the snapshot. Shared because
// the warm-up is the expensive part.
var warmSnapshot []byte

func defaultSnapshot(t *testing.T) []byte {
	t.Helper()
	if warmSnapshot != nil {
		return warmSnapshot
	}
	w, err := NewWorld("default", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStudy(w).BuildTable(); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warmSnapshot = snap
	return snap
}

// coldRestore restores a snapshot through spec over a fresh, empty key
// pool of its seed. The seed's shared pool may already hold every key
// (other worlds of the seed ran first), so only over a fresh pool does
// MintCount() == 0 show that the snapshot itself supplied each key the
// world used.
func coldRestore(t *testing.T, snap []byte, spec RunSpec) *World {
	t.Helper()
	study, err := spec.BuildFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	w := study.World
	if err := w.AttachKeyPool(NewKeyPool(w.Seed())); err != nil {
		t.Fatal(err)
	}
	return w
}

// The headline snapshot contract: a restored world renders Table I (text,
// CSV, JSON) byte-identical to the pre-refactor goldens — sequential and
// parallel — while performing ZERO key generations.
func TestSnapshotRestore_GoldenTableI(t *testing.T) {
	snap := defaultSnapshot(t)
	for _, parallelism := range []int{1, 8} {
		w := coldRestore(t, snap, RunSpec{})
		s := NewStudy(w)
		s.Concurrency = parallelism
		table, err := s.BuildTable()
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		text := table.Render() + "\n" + table.Summarize().Render()
		if want := golden(t, "tableI_default.txt"); text != want {
			t.Errorf("parallelism %d: restored world diverged from golden:\n%s", parallelism, text)
		}
		csvOut, err := table.MarshalCSV()
		if err != nil {
			t.Fatal(err)
		}
		if want := golden(t, "tableI_default.csv"); string(csvOut) != want {
			t.Errorf("parallelism %d: restored-world CSV diverged from golden", parallelism)
		}
		jsonOut, err := json.MarshalIndent(table, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if want := golden(t, "tableI_default.json"); string(jsonOut)+"\n" != want {
			t.Errorf("parallelism %d: restored-world JSON diverged from golden", parallelism)
		}
		if mints := w.Registry.MintCount(); mints != 0 {
			t.Errorf("parallelism %d: restored world minted %d keys, want 0", parallelism, mints)
		}
	}
}

// Satellite: WarmFixtures over a restored snapshot must provision every
// device without a single new key generation, and the table built on top
// still matches the golden.
func TestSnapshotRestore_WarmFixturesZeroKeygen(t *testing.T) {
	w := coldRestore(t, defaultSnapshot(t), RunSpec{})
	if err := w.WarmFixtures(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	if mints := w.Registry.MintCount(); mints != 0 {
		t.Fatalf("WarmFixtures on a restored world minted %d keys, want 0", mints)
	}
	table, err := NewStudy(w).BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	text := table.Render() + "\n" + table.Summarize().Render()
	if want := golden(t, "tableI_default.txt"); text != want {
		t.Errorf("warmed restored world diverged from golden:\n%s", text)
	}
	if mints := w.Registry.MintCount(); mints != 0 {
		t.Fatalf("table build after warm restore minted %d keys, want 0", mints)
	}
}

// Under a transient fault plan the restored world must behave exactly
// like a fresh one: same rendered table, zero keygen.
func TestSnapshotRestore_UnderFaults(t *testing.T) {
	spec := FaultSpec{Seed: "default", Default: TransientFaults(0.25)}

	fresh, err := NewWorld("default", nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh.InstallFaults(spec)
	freshTable, err := NewStudy(fresh).BuildTable()
	if err != nil {
		t.Fatal(err)
	}

	restored := coldRestore(t, defaultSnapshot(t), RunSpec{})
	plan := restored.InstallFaults(spec)
	restoredTable, err := NewStudy(restored).BuildTable()
	if err != nil {
		t.Fatal(err)
	}

	if got, want := restoredTable.Render(), freshTable.Render(); got != want {
		t.Errorf("restored faulted table diverged from fresh faulted build:\n--- fresh ---\n%s--- restored ---\n%s", want, got)
	}
	if plan.Stats().Total() == 0 {
		t.Error("no faults injected — invariance check is vacuous")
	}
	if mints := restored.Registry.MintCount(); mints != 0 {
		t.Errorf("restored faulted world minted %d keys, want 0", mints)
	}
}

// A snapshot taken over the full profile set warms a world restricted to
// a subset (keys are label-addressed, not position-addressed), and the
// subset world still mints nothing.
func TestSnapshotRestore_ProfileOverride(t *testing.T) {
	var subset []string
	for _, p := range ott.Profiles()[:3] {
		subset = append(subset, p.Name)
	}
	w := coldRestore(t, defaultSnapshot(t), RunSpec{Profiles: subset})
	if got := len(w.Profiles()); got != len(subset) {
		t.Fatalf("restored world has %d profiles, want %d", got, len(subset))
	}
	if _, err := NewStudy(w).BuildTable(); err != nil {
		t.Fatal(err)
	}
	if mints := w.Registry.MintCount(); mints != 0 {
		t.Errorf("subset world minted %d keys, want 0", mints)
	}
}

// A prewarmed-but-unplayed world must still snapshot its paid-for state:
// keys resident only in the pool (no provisioning traffic yet) are
// persisted and restored.
func TestSnapshot_CarriesPoolResidentKeys(t *testing.T) {
	w, err := NewWorld("pool-resident", nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := w.DeviceStableIDs()[:2]
	pool := w.Registry.KeyPool()
	if pool == nil {
		t.Fatal("world has no key pool")
	}
	if err := pool.Prewarm(context.Background(), ids, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored := coldRestore(t, snap, RunSpec{Seed: "pool-resident"})
	for _, id := range ids {
		if _, ok := restored.Registry.RSAPublicKey(id); !ok {
			t.Errorf("pool-resident key %q did not survive the snapshot", id)
		}
	}
	if mints := restored.Registry.MintCount(); mints != 0 {
		t.Errorf("restore minted %d keys, want 0", mints)
	}
}

// A snapshot carries only its own world's keys: keys other worlds of the
// seed left in the shared pool are not this world's state.
func TestSnapshot_OwnDevicesOnly(t *testing.T) {
	const seed = "snapshot-own-devices" // no other test uses the seed
	devices := []string{"pixel"}
	w, err := NewWorldDevices(seed, profilesNamed(t, "Showtime"), devices)
	if err != nil {
		t.Fatal(err)
	}
	own := w.DeviceStableIDs()
	other, err := DeviceStableIDsFor(profilesNamed(t, "Netflix"), devices)
	if err != nil {
		t.Fatal(err)
	}
	if err := SharedKeyPool(seed).Prewarm(context.Background(), append(append([]string(nil), own...), other...), 0); err != nil {
		t.Fatal(err)
	}
	data, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var snap worldSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.RSAKeys) != len(own) {
		t.Errorf("snapshot carries %d RSA keys, want the world's own %d", len(snap.RSAKeys), len(own))
	}
	for _, id := range own {
		if _, ok := snap.RSAKeys[id]; !ok {
			t.Errorf("snapshot lacks the world's pool-resident key %q", id)
		}
	}
	for _, id := range other {
		if _, ok := snap.RSAKeys[id]; ok {
			t.Errorf("snapshot carries %q, a key of another world of the seed", id)
		}
	}
}

// Restore must reject wire-format and content corruption rather than
// build a world over bad key material.
func TestRestoreWorld_Rejections(t *testing.T) {
	spec := RunSpec{Seed: "x", Profiles: []string{"Showtime"}}
	for _, c := range []struct{ name, snap string }{
		{"malformed snapshot", "not json"},
		{"unknown snapshot version", `{"version":99,"seed":"x"}`},
		{"truncated device key", `{"version":1,"seed":"x","device_keys":{"PX-a":"AAA="},"rsa_keys":{}}`},
		{"corrupt rsa key", `{"version":1,"seed":"x","rsa_keys":{"PX-a":"AAA="}}`},
	} {
		if _, err := spec.BuildFromSnapshot([]byte(c.snap)); err == nil {
			t.Errorf("want error for %s", c.name)
		}
	}
}

// A restore installs its snapshot's keys in the restored world only.
// Every world of a seed provisions from one pool in the process-wide key
// store, so a snapshot carrying a wrong key must not reach that pool: a
// later world of the seed still provisions the deterministic key.
func TestSnapshotRestore_KeysStayWorldLocal(t *testing.T) {
	const seed = "snapshot-world-local" // no other test uses the seed
	profiles := profilesNamed(t, "Showtime")
	devices := []string{"pixel"}
	ids, err := DeviceStableIDsFor(profiles, devices)
	if err != nil {
		t.Fatal(err)
	}
	id := ids[0]
	swapped, err := wvcrypto.GenerateRSAKey(wvcrypto.NewDeterministicReader(seed + "/swapped"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(worldSnapshot{
		Version: snapshotVersion,
		Seed:    seed,
		RSAKeys: map[string][]byte{id: wvcrypto.MarshalRSAPrivateKey(swapped)},
	})
	if err != nil {
		t.Fatal(err)
	}
	study, err := RunSpec{Seed: seed, Profiles: []string{"Showtime"}, Devices: devices}.BuildFromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	restored := study.World
	if pub, ok := restored.Registry.RSAPublicKey(id); !ok || !pub.Equal(&swapped.PublicKey) {
		t.Fatalf("restored world does not hold its snapshot's key for %s", id)
	}

	fresh, err := NewWorldDevices(seed, profiles, devices)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fresh.Fixture("Showtime")
	if err != nil {
		t.Fatal(err)
	}
	if r := f.App("pixel").Play(ContentID); !r.Played() {
		t.Fatalf("fresh world playback failed: %+v", r)
	}
	want, err := NewKeyPool(seed).Key(id)
	if err != nil {
		t.Fatal(err)
	}
	if pub, ok := fresh.Registry.RSAPublicKey(id); !ok || !pub.Equal(&want.PublicKey) {
		t.Errorf("fresh world of the seed provisioned %s with a key other than its deterministic one", id)
	}
}

// BuildFromSnapshot rejects a snapshot whose seed differs from the spec.
func TestBuildFromSnapshot_SeedMismatch(t *testing.T) {
	spec := RunSpec{Seed: "other"}
	if _, err := spec.BuildFromSnapshot(defaultSnapshot(t)); err == nil {
		t.Error("want error building spec seed 'other' from a 'default' snapshot")
	}
}
