package android_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/cdm"
	"repro/internal/keybox"
	"repro/internal/license"
	"repro/internal/mp4"
	"repro/internal/oemcrypto"
	"repro/internal/procmem"
	"repro/internal/provision"
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

// fixture wires a MediaDrm over an L3 engine plus in-process servers.
type fixture struct {
	drm     *android.MediaDrm
	provSrv *provision.Server
	licSrv  *license.Server
	db      *license.KeyDB
	flow    []android.FlowEvent
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	rand := wvcrypto.NewDeterministicReader("android-test")
	kb, err := keybox.New("ANDROID-TEST-DEV", 4442, rand)
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
	registry := provision.NewRegistry()
	registry.RegisterDevice(kb.StableIDString(), kb.DeviceKey)
	f := &fixture{
		db: license.NewKeyDB(),
	}
	f.provSrv = provision.NewServer(registry, provision.Policy{}, rand)
	f.licSrv = license.NewServer(f.db, registry, license.Policy{L3MaxHeight: 540}, rand)
	f.drm, err = android.NewMediaDrm(android.WidevineUUID, engine, rand, func(ev android.FlowEvent) {
		f.flow = append(f.flow, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// provision drives the framework provisioning exchange.
func (f *fixture) provision(t *testing.T) {
	t.Helper()
	s, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.drm.CloseSession(s) }()
	blob, err := f.drm.GetProvisionRequest(s)
	if err != nil {
		t.Fatal(err)
	}
	req, err := cdm.ParseProvisioningRequest(blob)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.provSrv.Provision(req)
	if err != nil {
		t.Fatal(err)
	}
	respBlob, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.drm.ProvideProvisionResponse(s, respBlob); err != nil {
		t.Fatal(err)
	}
}

// license drives the framework key exchange for the given content keys.
func (f *fixture) license(t *testing.T, contentID string, keys []license.KeyEntry) oemcrypto.SessionID {
	t.Helper()
	f.db.Register(contentID, keys)
	s, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := f.drm.GetKeyRequest(s, contentID, nil)
	if err != nil {
		t.Fatal(err)
	}
	var signed cdm.SignedLicenseRequest
	if err := json.Unmarshal(blob, &signed); err != nil {
		t.Fatal(err)
	}
	resp, err := f.licSrv.HandleRequest(&signed)
	if err != nil {
		t.Fatal(err)
	}
	respBlob, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	kids, err := f.drm.ProvideKeyResponse(s, respBlob)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != len(resp.Keys) {
		t.Fatalf("ProvideKeyResponse loaded %d keys, the response carries %d", len(kids), len(resp.Keys))
	}
	for i, k := range resp.Keys {
		if kids[i] != k.KID {
			t.Fatalf("loaded key %d is %x, the response's is %x", i, kids[i], k.KID)
		}
	}
	return s
}

func TestNewMediaDrm_UnsupportedScheme(t *testing.T) {
	rand := wvcrypto.NewDeterministicReader("x")
	_, err := android.NewMediaDrm([16]byte{1, 2, 3}, nil, rand, nil)
	if !errors.Is(err, android.ErrUnsupportedScheme) {
		t.Errorf("err = %v, want ErrUnsupportedScheme", err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	f := newFixture(t)
	s, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.drm.CloseSession(s); err != nil {
		t.Fatal(err)
	}
	if err := f.drm.CloseSession(s); !errors.Is(err, android.ErrNoSession) {
		t.Errorf("double close = %v, want ErrNoSession", err)
	}
	if _, err := f.drm.GetKeyRequest(s, "m", nil); !errors.Is(err, android.ErrNoSession) {
		t.Errorf("key request on closed session = %v", err)
	}
}

func TestGetKeyRequest_RequiresProvisioning(t *testing.T) {
	f := newFixture(t)
	if !f.drm.NeedsProvisioning() {
		t.Fatal("fresh device does not need provisioning?")
	}
	s, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.drm.GetKeyRequest(s, "m", nil); !errors.Is(err, android.ErrNotProvisioned) {
		t.Errorf("err = %v, want ErrNotProvisioned", err)
	}
}

func TestProvisioningRoundTrip(t *testing.T) {
	f := newFixture(t)
	f.provision(t)
	if f.drm.NeedsProvisioning() {
		t.Error("still needs provisioning after exchange")
	}
}

func TestProvideProvisionResponse_Garbage(t *testing.T) {
	f := newFixture(t)
	s, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.drm.ProvideProvisionResponse(s, []byte("not json")); err == nil {
		t.Error("want error for malformed provisioning response")
	}
}

func TestProvideKeyResponse_BeforeRequest(t *testing.T) {
	f := newFixture(t)
	f.provision(t)
	s, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.drm.ProvideKeyResponse(s, []byte("{}")); err == nil {
		t.Error("want error for response before request")
	}
}

func TestFullDecodePipeline(t *testing.T) {
	f := newFixture(t)
	f.provision(t)
	kid := [16]byte{7}
	key := bytes.Repeat([]byte{0x44}, 16)
	s := f.license(t, "movie-x", []license.KeyEntry{
		{KID: kid, Key: key, Track: license.TrackVideo, MaxHeight: 540},
	})

	crypto, err := android.NewMediaCrypto(f.drm, s)
	if err != nil {
		t.Fatal(err)
	}
	codec := android.NewMediaCodec(crypto, nil)

	// Encrypt a sample the packager's way and push it through the codec.
	plaintext := []byte("0123456789abcdefA-SECURE-VIDEO-SAMPLE")
	iv := [8]byte{1, 2, 3}
	var counter [16]byte
	copy(counter[:8], iv[:])
	stream, err := wvcrypto.CTRStream(key, counter[:])
	if err != nil {
		t.Fatal(err)
	}
	ct := append([]byte(nil), plaintext...)
	stream.XORKeyStream(ct[16:], ct[16:])
	subs := []mp4.SubsampleEntry{{ClearBytes: 16, ProtectedBytes: uint32(len(ct) - 16)}}

	if err := codec.QueueSecureInputBuffer(kid, mp4.SchemeCENC, iv, subs, ct); err != nil {
		t.Fatal(err)
	}
	codec.QueueClearBuffer([]byte("clear audio sample"))

	if codec.FrameCount() != 2 {
		t.Errorf("frame count = %d", codec.FrameCount())
	}
	frames, err := codec.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frames[0], plaintext) {
		t.Error("decoded frame mismatch")
	}
	if string(frames[1]) != "clear audio sample" {
		t.Error("clear frame mismatch")
	}
}

func TestQueueSecureInputBuffer_WrongKID(t *testing.T) {
	f := newFixture(t)
	f.provision(t)
	s := f.license(t, "movie-x", []license.KeyEntry{
		{KID: [16]byte{7}, Key: bytes.Repeat([]byte{0x44}, 16), Track: license.TrackVideo},
	})
	crypto, err := android.NewMediaCrypto(f.drm, s)
	if err != nil {
		t.Fatal(err)
	}
	codec := android.NewMediaCodec(crypto, nil)
	err = codec.QueueSecureInputBuffer([16]byte{9}, mp4.SchemeCENC, [8]byte{}, nil, []byte("x"))
	if !errors.Is(err, oemcrypto.ErrKeyNotLoaded) {
		t.Errorf("err = %v, want ErrKeyNotLoaded", err)
	}
}

func TestNewMediaCrypto_BadSession(t *testing.T) {
	f := newFixture(t)
	if _, err := android.NewMediaCrypto(f.drm, 999); !errors.Is(err, android.ErrNoSession) {
		t.Errorf("err = %v, want ErrNoSession", err)
	}
	if _, err := f.drm.GetCryptoSession(999); !errors.Is(err, android.ErrNoSession) {
		t.Errorf("crypto session err = %v", err)
	}
}

func TestCryptoSession_GenericCrypto(t *testing.T) {
	f := newFixture(t)
	s, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := f.drm.GetCryptoSession(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.DeriveKeys([]byte("ctx")); err != nil {
		t.Fatal(err)
	}
	iv := bytes.Repeat([]byte{3}, 16)
	secret := []byte("https://cdn.example/manifest?token=abc")
	ct, err := cs.Encrypt(iv, secret)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte("manifest")) {
		t.Error("ciphertext leaks plaintext")
	}
	pt, err := cs.Decrypt(iv, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, secret) {
		t.Errorf("roundtrip = %q", pt)
	}
	// A session whose keys derive from another context cannot open the
	// ciphertext, even under the same IV.
	s2, err := f.drm.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	other, err := f.drm.GetCryptoSession(s2)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.DeriveKeys([]byte("other ctx")); err != nil {
		t.Fatal(err)
	}
	if got, err := other.Decrypt(iv, ct); err == nil && bytes.Equal(got, secret) {
		t.Error("a session of another context opened the ciphertext")
	}
	sig, err := cs.Sign([]byte("data"))
	if err != nil || len(sig) != 32 {
		t.Fatalf("sign = %dB, %v", len(sig), err)
	}
	if err := cs.Verify([]byte("data"), sig); err == nil {
		t.Error("client MAC verified as server MAC")
	}
}

func TestFlowRecorder(t *testing.T) {
	f := newFixture(t)
	f.provision(t)
	f.license(t, "movie-x", []license.KeyEntry{
		{KID: [16]byte{7}, Key: bytes.Repeat([]byte{0x44}, 16), Track: license.TrackVideo},
	})
	var haveInit, haveOpen, haveKeyReq bool
	for _, ev := range f.flow {
		switch ev.Call {
		case "MediaDRM(UUID)":
			haveInit = true
		case "openSession()":
			haveOpen = true
		case "getKeyRequest()":
			haveKeyReq = true
		}
	}
	if !haveInit || !haveOpen || !haveKeyReq {
		t.Errorf("flow missing events: %+v", f.flow)
	}
}

func TestSecureOutputRefusesFrames(t *testing.T) {
	// A codec marked secure (L1) refuses to hand frames to the app. We
	// exercise the flag via a crypto bound to a TEE engine would be heavy;
	// instead verify through the soft path that Frames works, and the
	// secure case is covered by the oemcrypto/ott integration tests.
	f := newFixture(t)
	f.provision(t)
	s := f.license(t, "m", []license.KeyEntry{
		{KID: [16]byte{1}, Key: bytes.Repeat([]byte{1}, 16), Track: license.TrackVideo},
	})
	crypto, err := android.NewMediaCrypto(f.drm, s)
	if err != nil {
		t.Fatal(err)
	}
	codec := android.NewMediaCodec(crypto, nil)
	codec.QueueClearBuffer([]byte("x"))
	if _, err := codec.Frames(); err != nil {
		t.Errorf("clear frames refused: %v", err)
	}
}
