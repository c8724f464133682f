package wideleak

// World snapshots: serialize a built world's expensive state and restore
// it in milliseconds.
//
// The only state worth persisting is what costs seconds to rebuild — the
// provisioned 2048-bit Device RSA identities (plus the manufacturer
// device-key feed that authorizes them). Everything else a world holds
// (deployments, packaged media, keyboxes, installed apps) is re-derived
// deterministically from the seed in milliseconds, and MUST be
// re-derived: deployments hold live network handlers and apps hold live
// session state that have no meaningful serialized form.
//
// Determinism contract: a restored world renders Table I byte-identical
// to a freshly built one, sequential or parallel, faulted or not. That
// holds because every piece of world material is a pure function of
// (seed, stable label) — the snapshot merely pays the RSA generation
// bill in advance.

import (
	"encoding/json"
	"fmt"

	"repro/internal/ott"
	"repro/internal/wvcrypto"
)

// snapshotVersion guards the wire format.
const snapshotVersion = 1

// worldSnapshot is the serialized form. Key material is raw bytes
// (base64 in JSON): device keys from the keybox feed, RSA keys as
// PKCS#1 DER. The profile and device sets are not in it: the spec a
// snapshot restores under names both.
type worldSnapshot struct {
	Version    int               `json:"version"`
	Seed       string            `json:"seed"`
	DeviceKeys map[string][]byte `json:"device_keys"`
	RSAKeys    map[string][]byte `json:"rsa_keys"`
}

// Snapshot serializes the world's expensive state: every provisioned
// Device RSA identity and registered device key, plus the seed needed
// to rebuild the rest deterministically (RunSpec.BuildFromSnapshot
// restores it). Snapshot a warmed world (after a table build) to capture
// all of its keys; a partially warmed world yields a partial — still
// valid — snapshot whose missing keys simply mint on demand after
// restore.
func (w *World) Snapshot() ([]byte, error) {
	snap := worldSnapshot{
		Version:    snapshotVersion,
		Seed:       w.seed,
		DeviceKeys: make(map[string][]byte),
		RSAKeys:    w.Registry.ExportRSAKeys(),
	}
	for id, key := range w.Registry.ExportDeviceKeys() {
		k := key
		snap.DeviceKeys[id] = k[:]
	}
	// Pool-resident keys that no provisioning request has claimed yet are
	// still paid-for state (a boot-time prewarm mints straight into the
	// pool): persist them alongside the provisioned identities. The pool
	// is the seed's shared one, so only this world's devices' keys are
	// taken: a snapshot depends on its own world, not on which other
	// worlds of the seed ran before it.
	if pool := w.Registry.KeyPool(); pool != nil {
		resident := pool.Export()
		for _, id := range w.DeviceStableIDs() {
			key, ok := resident[id]
			if _, done := snap.RSAKeys[id]; ok && !done {
				snap.RSAKeys[id] = wvcrypto.MarshalRSAPrivateKey(key)
			}
		}
	}
	return json.Marshal(snap)
}

// restoreWorld builds the world of seed over the given profiles and
// devices, as NewWorldDevices does, and installs a snapshot's keys in it
// so no key generation runs for the devices the snapshot covers. The
// cheap state (deployments, media, fixtures) is re-derived from the seed.
// Every RSA identity is keyed by a stable device label, never by profile
// or device-list position, so a snapshot taken over one profile and
// device set warms a world built over any other; keys for devices outside
// the snapshot mint lazily. The snapshot must carry the same seed:
// restoring mismatched key material would silently change every device
// identity, so it is rejected instead.
func restoreWorld(data []byte, seed string, profiles []ott.Profile, devices []string) (*World, error) {
	var snap worldSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("wideleak: parse snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("wideleak: snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	if got := canonicalSeed(snap.Seed); got != seed {
		return nil, fmt.Errorf("wideleak: snapshot seed %q does not match request seed %q", got, seed)
	}
	w, err := NewWorldDevices(seed, profiles, devices)
	if err != nil {
		return nil, err
	}
	for id, raw := range snap.DeviceKeys {
		if len(raw) != 16 {
			return nil, fmt.Errorf("wideleak: snapshot device key %q: %d bytes (want 16)", id, len(raw))
		}
		var k [16]byte
		copy(k[:], raw)
		w.Registry.RegisterDevice(id, k)
	}
	for id, der := range snap.RSAKeys {
		key, err := wvcrypto.ParseRSAPrivateKey(der)
		if err != nil {
			return nil, fmt.Errorf("wideleak: snapshot rsa key %q: %w", id, err)
		}
		w.Registry.InstallRSAKey(id, key)
	}
	return w, nil
}
