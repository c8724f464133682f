package cdm_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cdm"
	"repro/internal/keybox"
	"repro/internal/oemcrypto"
	"repro/internal/procmem"
	"repro/internal/wvcrypto"
)

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

func newClient(t *testing.T) *cdm.Client {
	t.Helper()
	rand := wvcrypto.NewDeterministicReader("cdm-test")
	kb, err := keybox.New("CDM-TEST-DEV", 4442, rand)
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	if err := oemcrypto.InstallKeybox(store, kb.Marshal()); err != nil {
		t.Fatal(err)
	}
	engine, err := oemcrypto.NewSoftEngine("15.0", procmem.NewSpace("mediadrmserver"), store, rand)
	if err != nil {
		t.Fatal(err)
	}
	return cdm.NewClient(engine, rand)
}

func TestProvisioningRequestRoundTrip(t *testing.T) {
	req := &cdm.ProvisioningRequest{
		StableID:   "DEV",
		SystemID:   4442,
		CDMVersion: "3.1.0",
		Level:      "L3",
		Nonce:      []byte{1, 2, 3},
	}
	b, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cdm.ParseProvisioningRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Errorf("roundtrip = %+v", got)
	}
	if _, err := cdm.ParseProvisioningRequest([]byte("junk")); err == nil {
		t.Error("junk parse succeeded")
	}
}

func TestLicenseRequestRoundTrip(t *testing.T) {
	req := &cdm.LicenseRequest{
		StableID:   "DEV",
		SystemID:   1,
		CDMVersion: "15.0",
		Level:      "L1",
		ContentID:  "movie-1",
		KIDs:       [][16]byte{{1}, {2}},
		Nonce:      []byte{9},
	}
	b, err := req.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cdm.ParseLicenseRequest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Errorf("roundtrip = %+v", got)
	}
	if _, err := cdm.ParseLicenseRequest([]byte("{{{")); err == nil {
		t.Error("junk parse succeeded")
	}
}

// Property: license requests round-trip for arbitrary field values.
func TestLicenseRequest_Property(t *testing.T) {
	prop := func(stableID, contentID string, systemID uint32, kids [][16]byte, nonce []byte) bool {
		req := &cdm.LicenseRequest{
			StableID: stableID, SystemID: systemID, CDMVersion: "15.0",
			Level: "L3", ContentID: contentID, KIDs: kids, Nonce: nonce,
		}
		b, err := req.Canonical()
		if err != nil {
			return false
		}
		got, err := cdm.ParseLicenseRequest(b)
		if err != nil {
			return false
		}
		if got.StableID != stableID || got.ContentID != contentID || got.SystemID != systemID {
			return false
		}
		if len(got.KIDs) != len(kids) {
			return false
		}
		for i := range kids {
			if got.KIDs[i] != kids[i] {
				return false
			}
		}
		return bytes.Equal(got.Nonce, nonce)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCreateProvisioningRequest_PopulatesIdentity(t *testing.T) {
	c := newClient(t)
	s, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	req, err := c.CreateProvisioningRequest(s)
	if err != nil {
		t.Fatal(err)
	}
	if req.StableID != "CDM-TEST-DEV" || req.SystemID != 4442 {
		t.Errorf("identity = %q/%d", req.StableID, req.SystemID)
	}
	if req.CDMVersion != "15.0" || req.Level != "L3" {
		t.Errorf("version/level = %q/%q", req.CDMVersion, req.Level)
	}
	if len(req.Nonce) != 16 {
		t.Errorf("nonce = %d bytes", len(req.Nonce))
	}

	// Two requests carry distinct nonces (anti-replay).
	req2, err := c.CreateProvisioningRequest(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(req.Nonce, req2.Nonce) {
		t.Error("nonces repeat")
	}
}

func TestCreateLicenseRequest_RequiresProvisioning(t *testing.T) {
	c := newClient(t)
	s, err := c.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateLicenseRequest(s, "movie", nil); err == nil {
		t.Error("license request without provisioning succeeded")
	}
	if c.Provisioned() {
		t.Error("fresh client claims provisioned")
	}
}
