package license_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/cdm"
	"repro/internal/keybox"
	"repro/internal/license"
	"repro/internal/mp4"
	"repro/internal/oemcrypto"
	"repro/internal/procmem"
	"repro/internal/provision"
	"repro/internal/wvcrypto"
)

// mapStore is a tiny in-memory FileStore.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Put(name string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[name] = append([]byte(nil), data...)
}

func (s *mapStore) Get(name string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[name]
	return d, ok
}

// world bundles a provisioned L3 device with its servers.
type world struct {
	client   *cdm.Client
	registry *provision.Registry
	provSrv  *provision.Server
	db       *license.KeyDB
}

func newWorld(t testing.TB, cdmVersion string, provPolicy provision.Policy) *world {
	t.Helper()
	rand := wvcrypto.NewDeterministicReader("license-test-" + cdmVersion)
	kb, err := keybox.New("LIC-TEST-DEV", 4442, rand)
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	if err := oemcrypto.InstallKeybox(store, kb.Marshal()); err != nil {
		t.Fatal(err)
	}
	engine, err := oemcrypto.NewSoftEngine(cdmVersion, procmem.NewSpace("mediadrmserver"), store, rand)
	if err != nil {
		t.Fatal(err)
	}
	registry := provision.NewRegistry()
	registry.RegisterDevice(kb.StableIDString(), kb.DeviceKey)
	return &world{
		client:   cdm.NewClient(engine, rand),
		registry: registry,
		provSrv:  provision.NewServer(registry, provPolicy, rand),
		db:       license.NewKeyDB(),
	}
}

// provision completes the provisioning flow end to end.
func (w *world) provision(t testing.TB) error {
	t.Helper()
	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = w.client.CloseSession(s) }()
	req, err := w.client.CreateProvisioningRequest(s)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := w.provSrv.Provision(req)
	if err != nil {
		return err
	}
	return w.client.ProcessProvisioningResponse(s, resp)
}

func testKeys() []license.KeyEntry {
	return []license.KeyEntry{
		{KID: [16]byte{1}, Key: bytes.Repeat([]byte{0x10}, 16), Track: license.TrackVideo, MaxHeight: 540},
		{KID: [16]byte{2}, Key: bytes.Repeat([]byte{0x20}, 16), Track: license.TrackVideo, MaxHeight: 1080},
		{KID: [16]byte{3}, Key: bytes.Repeat([]byte{0x30}, 16), Track: license.TrackAudio},
	}
}

func TestEndToEndLicenseFlow(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	w.db.Register("movie-1", testKeys())
	srv := license.NewServer(w.db, w.registry, license.Policy{L3MaxHeight: 540}, wvcrypto.NewDeterministicReader("srv"))

	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	signed, err := w.client.CreateLicenseRequest(s, "movie-1", [][16]byte{{1}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.HandleRequest(signed)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Keys) != 2 {
		t.Fatalf("granted %d keys, want 2", len(resp.Keys))
	}
	if err := w.client.ProcessLicenseResponse(s, signed, resp); err != nil {
		t.Fatal(err)
	}

	// Prove the loaded video key actually decrypts content.
	contentKey := bytes.Repeat([]byte{0x10}, 16)
	plaintext := []byte("protected media sample bytes!")
	iv := [8]byte{4, 4}
	var counter [16]byte
	copy(counter[:8], iv[:])
	stream, err := wvcrypto.CTRStream(contentKey, counter[:])
	if err != nil {
		t.Fatal(err)
	}
	ct := append([]byte(nil), plaintext...)
	stream.XORKeyStream(ct, ct)
	res, err := w.client.Decrypt(s, [16]byte{1}, mp4.SchemeCENC, iv, nil, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, plaintext) {
		t.Error("decrypted content mismatch")
	}
}

func TestLicense_L3ResolutionCap(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	w.db.Register("movie-1", testKeys())
	srv := license.NewServer(w.db, w.registry, license.Policy{L3MaxHeight: 540}, wvcrypto.NewDeterministicReader("srv"))

	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	// Ask for everything: the 1080p key must be withheld from an L3 client.
	signed, err := w.client.CreateLicenseRequest(s, "movie-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.HandleRequest(signed)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[[16]byte]bool, len(resp.Keys))
	for _, k := range resp.Keys {
		got[k.KID] = true
	}
	if got[[16]byte{2}] {
		t.Error("1080p key granted to L3 client")
	}
	if !got[[16]byte{1}] || !got[[16]byte{3}] {
		t.Error("540p/audio keys missing")
	}

	// Only the HD key requested → nothing usable.
	signedHD, err := w.client.CreateLicenseRequest(s, "movie-1", [][16]byte{{2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.HandleRequest(signedHD); !errors.Is(err, license.ErrNoUsableKeys) {
		t.Errorf("HD-only request err = %v, want ErrNoUsableKeys", err)
	}
}

func TestLicense_RevokesOldCDM(t *testing.T) {
	w := newWorld(t, "3.1.0", provision.Policy{})
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	w.db.Register("movie-1", testKeys())
	srv := license.NewServer(w.db, w.registry, license.Policy{MinCDMVersion: "14.0"}, wvcrypto.NewDeterministicReader("srv"))

	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	signed, err := w.client.CreateLicenseRequest(s, "movie-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.HandleRequest(signed); !errors.Is(err, license.ErrDeviceRevoked) {
		t.Errorf("err = %v, want ErrDeviceRevoked", err)
	}
}

func TestLicense_UnprovisionedDevice(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	w.db.Register("movie-1", testKeys())
	srv := license.NewServer(w.db, w.registry, license.Policy{}, wvcrypto.NewDeterministicReader("srv"))

	// Forge a request body without provisioning.
	body, err := (&cdm.LicenseRequest{StableID: "LIC-TEST-DEV", CDMVersion: "15.0", Level: "L3", ContentID: "movie-1"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.HandleRequest(&cdm.SignedLicenseRequest{Body: body, Signature: []byte("junk")})
	if !errors.Is(err, license.ErrUnknownDevice) {
		t.Errorf("err = %v, want ErrUnknownDevice", err)
	}
}

func TestLicense_BadSignature(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	w.db.Register("movie-1", testKeys())
	srv := license.NewServer(w.db, w.registry, license.Policy{}, wvcrypto.NewDeterministicReader("srv"))

	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	signed, err := w.client.CreateLicenseRequest(s, "movie-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	signed.Signature[0] ^= 1
	if _, err := srv.HandleRequest(signed); !errors.Is(err, license.ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestLicense_UnknownContent(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	srv := license.NewServer(w.db, w.registry, license.Policy{}, wvcrypto.NewDeterministicReader("srv"))
	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	signed, err := w.client.CreateLicenseRequest(s, "no-such-movie", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.HandleRequest(signed); !errors.Is(err, license.ErrUnknownContent) {
		t.Errorf("err = %v, want ErrUnknownContent", err)
	}
}

func TestProvision_RevokesOldCDM(t *testing.T) {
	w := newWorld(t, "3.1.0", provision.Policy{MinCDMVersion: "14.0"})
	if err := w.provision(t); !errors.Is(err, provision.ErrDeviceRevoked) {
		t.Errorf("err = %v, want provision.ErrDeviceRevoked", err)
	}
	if w.client.Provisioned() {
		t.Error("client claims provisioned after revoked provisioning")
	}
}

func TestProvision_UnknownDevice(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	// Fresh registry that never saw the device.
	emptyReg := provision.NewRegistry()
	srv := provision.NewServer(emptyReg, provision.Policy{}, wvcrypto.NewDeterministicReader("x"))
	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	req, err := w.client.CreateProvisioningRequest(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Provision(req); !errors.Is(err, provision.ErrUnknownDevice) {
		t.Errorf("err = %v, want ErrUnknownDevice", err)
	}
}

func TestProvision_Idempotent(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	pub1, ok := w.registry.RSAPublicKey("LIC-TEST-DEV")
	if !ok {
		t.Fatal("no rsa pub after provisioning")
	}
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	pub2, _ := w.registry.RSAPublicKey("LIC-TEST-DEV")
	if pub1.N.Cmp(pub2.N) != 0 {
		t.Error("re-provisioning minted a different RSA key")
	}
}

func TestKeyDB(t *testing.T) {
	db := license.NewKeyDB()
	if _, ok := db.Lookup("x"); ok {
		t.Error("empty db lookup succeeded")
	}
	keys := testKeys()
	db.Register("x", keys)
	got, ok := db.Lookup("x")
	if !ok || len(got) != 3 {
		t.Fatalf("lookup = %v, %v", got, ok)
	}
	// Mutating the returned slice must not affect the DB.
	got[0].KID = [16]byte{0xFF}
	again, _ := db.Lookup("x")
	if again[0].KID == ([16]byte{0xFF}) {
		t.Error("db exposed internal state")
	}
}

func TestLicense_DurationPropagates(t *testing.T) {
	w := newWorld(t, "15.0", provision.Policy{})
	if err := w.provision(t); err != nil {
		t.Fatal(err)
	}
	w.db.Register("movie-1", testKeys())
	srv := license.NewServer(w.db, w.registry, license.Policy{
		LicenseDurationSeconds: 1800,
	}, wvcrypto.NewDeterministicReader("srv-dur"))

	s, err := w.client.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	signed, err := w.client.CreateLicenseRequest(s, "movie-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.HandleRequest(signed)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range resp.Keys {
		if k.DurationSeconds != 1800 {
			t.Errorf("key %x duration = %d, want 1800", k.KID, k.DurationSeconds)
		}
	}
	// The client loads timed keys without error.
	if err := w.client.ProcessLicenseResponse(s, signed, resp); err != nil {
		t.Fatal(err)
	}
}
