package oemcrypto

import (
	"bytes"
	"crypto/rsa"
	"errors"
	"io"
	"sync"
	"testing"

	"repro/internal/keybox"
	"repro/internal/mp4"
	"repro/internal/procmem"
	"repro/internal/tee"
	"repro/internal/wvcrypto"
)

// mapStore is an in-memory FileStore for tests.
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

var (
	rsaOnce sync.Once
	rsaKey  *rsa.PrivateKey
	rsaErr  error
)

func sharedRSA(t testing.TB) *rsa.PrivateKey {
	t.Helper()
	rsaOnce.Do(func() {
		rsaKey, rsaErr = wvcrypto.GenerateRSAKey(wvcrypto.NewDeterministicReader("oemcrypto-test-rsa"))
	})
	if rsaErr != nil {
		t.Fatal(rsaErr)
	}
	return rsaKey
}

// serverSide simulates the provisioning + license server half of the key
// ladder, independently of the engine code under test.
type serverSide struct {
	deviceKey []byte
	rsa       *rsa.PrivateKey
	rand      io.Reader
}

// provisioningResponse wraps the server RSA key for the device.
func (sv *serverSide) provisioningResponse(t testing.TB, context []byte) (message, mac, wrapped, iv []byte) {
	t.Helper()
	keys, err := wvcrypto.DeriveSessionKeys(sv.deviceKey, context)
	if err != nil {
		t.Fatal(err)
	}
	iv = make([]byte, 16)
	if _, err := io.ReadFull(sv.rand, iv); err != nil {
		t.Fatal(err)
	}
	der := wvcrypto.MarshalRSAPrivateKey(sv.rsa)
	wrapped, err = wvcrypto.EncryptCBC(keys.Enc, iv, der)
	if err != nil {
		t.Fatal(err)
	}
	message = []byte("provisioning-response-for-" + string(context))
	mac = wvcrypto.HMACSHA256(keys.MACServer, message)
	return message, mac, wrapped, iv
}

// licenseResponse wraps content keys for the device.
func (sv *serverSide) licenseResponse(t testing.TB, requestMsg []byte, contentKeys map[[16]byte][]byte) (encSessionKey, message, mac []byte, keys []EncryptedKey) {
	t.Helper()
	sessionKey := make([]byte, 16)
	if _, err := io.ReadFull(sv.rand, sessionKey); err != nil {
		t.Fatal(err)
	}
	var err error
	encSessionKey, err = wvcrypto.EncryptOAEP(sv.rand, &sv.rsa.PublicKey, sessionKey)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := wvcrypto.DeriveSessionKeys(sessionKey, requestMsg)
	if err != nil {
		t.Fatal(err)
	}
	for kid, ck := range contentKeys {
		var iv [16]byte
		if _, err := io.ReadFull(sv.rand, iv[:]); err != nil {
			t.Fatal(err)
		}
		payload, err := wvcrypto.EncryptCBC(derived.Enc, iv[:], ck)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, EncryptedKey{KID: kid, IV: iv, Payload: payload})
	}
	message = append([]byte("license-response:"), requestMsg...)
	mac = wvcrypto.HMACSHA256(derived.MACServer, message)
	return encSessionKey, message, mac, keys
}

// engineFixture builds one engine plus its server counterpart.
type engineFixture struct {
	engine Engine
	server *serverSide
	space  *procmem.Space // normal-world memory of the hosting process
}

func newSoftFixture(t testing.TB, version string) *engineFixture {
	t.Helper()
	rand := wvcrypto.NewDeterministicReader("soft-fixture-" + version)
	kb, err := keybox.New("TESTDEV-L3", 4442, rand)
	if err != nil {
		t.Fatal(err)
	}
	store := newMapStore()
	if err := InstallKeybox(store, kb.Marshal()); err != nil {
		t.Fatal(err)
	}
	space := procmem.NewSpace("mediadrmserver")
	eng, err := NewSoftEngine(version, space, store, rand)
	if err != nil {
		t.Fatal(err)
	}
	return &engineFixture{
		engine: eng,
		server: &serverSide{deviceKey: kb.DeviceKey[:], rsa: sharedRSA(t), rand: rand},
		space:  space,
	}
}

func newTEEFixture(t testing.TB, version string) *engineFixture {
	t.Helper()
	return newWrappedTEEFixture(t, version, func(tl *Trustlet) tee.Trustlet { return tl })
}

// newWrappedTEEFixture is newTEEFixture with the trustlet passed through
// wrap before it is loaded, so a test can observe the world boundary.
func newWrappedTEEFixture(t testing.TB, version string, wrap func(*Trustlet) tee.Trustlet) *engineFixture {
	t.Helper()
	rand := wvcrypto.NewDeterministicReader("tee-fixture-" + version)
	kb, err := keybox.New("TESTDEV-L1", 7711, rand)
	if err != nil {
		t.Fatal(err)
	}
	world := tee.NewWorld("test-l1-device")
	world.ProvisionStorage(TrustletName, "keybox", kb.Marshal())
	if err := world.Load(wrap(NewTrustlet(version, rand))); err != nil {
		t.Fatal(err)
	}
	eng, err := NewTEEEngine(version, world)
	if err != nil {
		t.Fatal(err)
	}
	return &engineFixture{
		engine: eng,
		server: &serverSide{deviceKey: kb.DeviceKey[:], rsa: sharedRSA(t), rand: rand},
		space:  procmem.NewSpace("mediadrmserver"),
	}
}

// provision drives the provisioning flow to completion.
func (f *engineFixture) provision(t testing.TB) {
	t.Helper()
	s, err := f.engine.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.engine.CloseSession(s); err != nil {
			t.Fatal(err)
		}
	}()
	context := []byte("provisioning-request-context")
	if err := f.engine.GenerateDerivedKeys(s, context); err != nil {
		t.Fatal(err)
	}
	msg, mac, wrapped, iv := f.server.provisioningResponse(t, context)
	if err := f.engine.RewrapDeviceRSAKey(s, msg, mac, wrapped, iv); err != nil {
		t.Fatal(err)
	}
}

// license drives the license flow, loading the given content keys.
func (f *engineFixture) license(t testing.TB, contentKeys map[[16]byte][]byte) SessionID {
	t.Helper()
	s, err := f.engine.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	request := []byte("license-request-for-test-asset")
	if _, err := f.engine.GenerateRSASignature(s, request); err != nil {
		t.Fatal(err)
	}
	encSK, msg, mac, keys := f.server.licenseResponse(t, request, contentKeys)
	if err := f.engine.DeriveKeysFromSessionKey(s, encSK, request); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.LoadKeys(s, msg, mac, keys); err != nil {
		t.Fatal(err)
	}
	return s
}

func fixtures(t *testing.T) map[string]func(testing.TB) *engineFixture {
	t.Helper()
	return map[string]func(testing.TB) *engineFixture{
		"L3-soft": func(tb testing.TB) *engineFixture { return newSoftFixture(tb, "15.0") },
		"L1-tee":  func(tb testing.TB) *engineFixture { return newTEEFixture(tb, "15.0") },
	}
}

func TestEngineIdentity(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			id, sys, err := f.engine.KeyboxInfo()
			if err != nil {
				t.Fatal(err)
			}
			if id == "" || sys == 0 {
				t.Errorf("KeyboxInfo = %q, %d", id, sys)
			}
			if v := f.engine.Version(); v != "15.0" {
				t.Errorf("Version = %q", v)
			}
			switch name {
			case "L3-soft":
				if f.engine.SecurityLevel() != L3 {
					t.Error("wrong level")
				}
			case "L1-tee":
				if f.engine.SecurityLevel() != L1 {
					t.Error("wrong level")
				}
			}
		})
	}
}

func TestSessionLifecycle(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			s1, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			s2, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			if s1 == s2 {
				t.Error("duplicate session IDs")
			}
			if err := f.engine.CloseSession(s1); err != nil {
				t.Fatal(err)
			}
			if err := f.engine.CloseSession(s1); !errors.Is(err, ErrNoSession) {
				t.Errorf("double close err = %v", err)
			}
			if err := f.engine.GenerateDerivedKeys(s1, []byte("x")); !errors.Is(err, ErrNoSession) {
				t.Errorf("closed session derive err = %v", err)
			}
			if err := f.engine.CloseSession(s2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestProvisioningFlow(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			if f.engine.Provisioned() {
				t.Fatal("fresh engine claims provisioned")
			}
			if err := f.engine.LoadDeviceRSAKey(); !errors.Is(err, ErrNotProvisioned) {
				t.Errorf("LoadDeviceRSAKey before provisioning = %v", err)
			}
			f.provision(t)
			if !f.engine.Provisioned() {
				t.Error("engine not provisioned after rewrap")
			}
			if err := f.engine.LoadDeviceRSAKey(); err != nil {
				t.Errorf("LoadDeviceRSAKey after provisioning: %v", err)
			}
		})
	}
}

func TestProvisioning_BadMAC(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			s, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			context := []byte("ctx")
			if err := f.engine.GenerateDerivedKeys(s, context); err != nil {
				t.Fatal(err)
			}
			msg, mac, wrapped, iv := f.server.provisioningResponse(t, context)
			mac[0] ^= 1
			if err := f.engine.RewrapDeviceRSAKey(s, msg, mac, wrapped, iv); !errors.Is(err, ErrSignatureInvalid) {
				t.Errorf("bad mac err = %v", err)
			}
		})
	}
}

func TestProvisioning_RequiresDerivedKeys(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			s, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			if err := f.engine.RewrapDeviceRSAKey(s, nil, nil, nil, nil); !errors.Is(err, ErrKeysNotDerived) {
				t.Errorf("err = %v, want ErrKeysNotDerived", err)
			}
		})
	}
}

func TestLicenseAndDecrypt(t *testing.T) {
	kid := [16]byte{0xAB, 1, 2, 3}
	contentKey := bytes.Repeat([]byte{0x5C}, 16)
	plaintext := []byte("0123456789abcdefTHE-PROTECTED-SAMPLE-PAYLOAD")

	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			f.provision(t)
			s := f.license(t, map[[16]byte][]byte{kid: contentKey})

			// Encrypt a sample server-side (the packager's job).
			iv := [8]byte{9, 9, 9, 9, 9, 9, 9, 9}
			subs := []mp4.SubsampleEntry{{ClearBytes: 16, ProtectedBytes: uint32(len(plaintext) - 16)}}
			var counter [16]byte
			copy(counter[:8], iv[:])
			stream, err := wvcrypto.CTRStream(contentKey, counter[:])
			if err != nil {
				t.Fatal(err)
			}
			ct := append([]byte(nil), plaintext...)
			stream.XORKeyStream(ct[16:], ct[16:])

			if err := f.engine.SelectKey(s, kid); err != nil {
				t.Fatal(err)
			}
			res, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, iv, subs, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Data, plaintext) {
				t.Error("decrypted sample mismatch")
			}
			wantSecure := name == "L1-tee"
			if res.Secure != wantSecure {
				t.Errorf("Secure = %v, want %v", res.Secure, wantSecure)
			}
		})
	}
}

// A content key is held as its expanded AES schedule: re-loading a KID
// in the same session under a different key makes DecryptCENC use the
// new key, never the schedule of the one it replaced.
func TestLoadKeys_ReloadReplacesKey(t *testing.T) {
	kid := [16]byte{0xCD, 4, 5, 6}
	oldKey, newKey := bytes.Repeat([]byte{0x11}, 16), bytes.Repeat([]byte{0x22}, 16)
	plaintext := []byte("RELOAD-PROTECTED-SAMPLE-PAYLOAD!")
	iv := [8]byte{7, 7, 7, 7, 7, 7, 7, 7}
	encryptUnder := func(t *testing.T, key []byte) []byte {
		var counter [16]byte
		copy(counter[:8], iv[:])
		stream, err := wvcrypto.CTRStream(key, counter[:])
		if err != nil {
			t.Fatal(err)
		}
		ct := append([]byte(nil), plaintext...)
		stream.XORKeyStream(ct, ct)
		return ct
	}
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			f.provision(t)
			s := f.license(t, map[[16]byte][]byte{kid: oldKey})
			decrypt := func(ct []byte) []byte {
				t.Helper()
				if err := f.engine.SelectKey(s, kid); err != nil {
					t.Fatal(err)
				}
				res, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, iv, nil, ct)
				if err != nil {
					t.Fatal(err)
				}
				return res.Data
			}
			if got := decrypt(encryptUnder(t, oldKey)); !bytes.Equal(got, plaintext) {
				t.Fatal("first key does not decrypt its sample")
			}

			request := []byte("license-request-for-test-asset")
			encSK, msg, mac, keys := f.server.licenseResponse(t, request, map[[16]byte][]byte{kid: newKey})
			if err := f.engine.DeriveKeysFromSessionKey(s, encSK, request); err != nil {
				t.Fatal(err)
			}
			if err := f.engine.LoadKeys(s, msg, mac, keys); err != nil {
				t.Fatal(err)
			}
			if got := decrypt(encryptUnder(t, newKey)); !bytes.Equal(got, plaintext) {
				t.Error("after re-loading the KID, DecryptCENC does not use the new key")
			}
			if got := decrypt(encryptUnder(t, oldKey)); bytes.Equal(got, plaintext) {
				t.Error("after re-loading the KID, the replaced key still decrypts")
			}
		})
	}
}

func TestLicense_BadMAC(t *testing.T) {
	kid := [16]byte{1}
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			f.provision(t)
			s, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			request := []byte("req")
			encSK, msg, mac, keys := f.server.licenseResponse(t, request, map[[16]byte][]byte{kid: bytes.Repeat([]byte{1}, 16)})
			if err := f.engine.DeriveKeysFromSessionKey(s, encSK, request); err != nil {
				t.Fatal(err)
			}
			mac[3] ^= 0x80
			if err := f.engine.LoadKeys(s, msg, mac, keys); !errors.Is(err, ErrSignatureInvalid) {
				t.Errorf("bad license mac err = %v", err)
			}
		})
	}
}

func TestSelectKey_NotLoaded(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			f.provision(t)
			s := f.license(t, map[[16]byte][]byte{{1}: bytes.Repeat([]byte{1}, 16)})
			if err := f.engine.SelectKey(s, [16]byte{2}); !errors.Is(err, ErrKeyNotLoaded) {
				t.Errorf("err = %v, want ErrKeyNotLoaded", err)
			}
			if _, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, [8]byte{}, nil, []byte("x")); !errors.Is(err, ErrNoKeySelected) {
				t.Errorf("err = %v, want ErrNoKeySelected", err)
			}
		})
	}
}

func TestGenerateRSASignature_VerifiesAgainstServerKey(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			f.provision(t)
			s, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("license request payload")
			sig, err := f.engine.GenerateRSASignature(s, msg)
			if err != nil {
				t.Fatal(err)
			}
			if !wvcrypto.VerifyPSS(&f.server.rsa.PublicKey, msg, sig) {
				t.Error("engine signature does not verify under provisioned key")
			}
		})
	}
}

func TestGenericCrypto(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			f.provision(t)
			s, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			context := []byte("generic-session")
			if err := f.engine.GenerateDerivedKeys(s, context); err != nil {
				t.Fatal(err)
			}
			iv := bytes.Repeat([]byte{7}, 16)
			secret := []byte("https://cdn.example/secret-manifest-uri")
			ct, err := f.engine.GenericEncrypt(s, iv, secret)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := f.engine.GenericDecrypt(s, iv, ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pt, secret) {
				t.Error("generic roundtrip mismatch")
			}

			sig, err := f.engine.GenericSign(s, secret)
			if err != nil {
				t.Fatal(err)
			}
			if len(sig) != 32 {
				t.Errorf("sign length = %d", len(sig))
			}
			// Server-side verify with the client MAC key.
			keys, err := wvcrypto.DeriveSessionKeys(f.server.deviceKey, context)
			if err != nil {
				t.Fatal(err)
			}
			if !wvcrypto.VerifyHMACSHA256(keys.MACClient, secret, sig) {
				t.Error("generic signature does not verify server-side")
			}
			serverMAC := wvcrypto.HMACSHA256(keys.MACServer, secret)
			if err := f.engine.GenericVerify(s, secret, serverMAC); err != nil {
				t.Errorf("GenericVerify: %v", err)
			}
			if err := f.engine.GenericVerify(s, secret, sig); !errors.Is(err, ErrSignatureInvalid) {
				t.Errorf("cross-key verify err = %v", err)
			}
		})
	}
}

func TestGeneric_WithoutDerivedKeys(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			s, err := f.engine.OpenSession()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.engine.GenericSign(s, []byte("x")); !errors.Is(err, ErrKeysNotDerived) {
				t.Errorf("err = %v, want ErrKeysNotDerived", err)
			}
		})
	}
}

// The load-bearing asymmetry of the paper: after a full provisioning and
// license flow, the L3 process memory contains the keybox (findable by
// magic scan) while the L1 normal-world memory contains nothing.
func TestMemoryExposure_L3VsL1(t *testing.T) {
	kid := [16]byte{5}
	ck := bytes.Repeat([]byte{0xEE}, 16)

	soft := newSoftFixture(t, "15.0")
	soft.provision(t)
	soft.license(t, map[[16]byte][]byte{kid: ck})
	if hits := soft.space.Scan(keybox.Magic[:]); len(hits) == 0 {
		t.Error("L3: keybox magic not found in process memory (attack surface missing)")
	}
	if hits := soft.space.Scan(ck); len(hits) == 0 {
		t.Error("L3: unwrapped content key not in process memory")
	}

	teef := newTEEFixture(t, "15.0")
	teef.provision(t)
	teef.license(t, map[[16]byte][]byte{kid: ck})
	if hits := teef.space.Scan(keybox.Magic[:]); len(hits) != 0 {
		t.Error("L1: keybox magic visible in normal-world memory")
	}
	if hits := teef.space.Scan(ck); len(hits) != 0 {
		t.Error("L1: content key visible in normal-world memory")
	}
}

func TestTracer_LibraryAndSecureBuffers(t *testing.T) {
	kid := [16]byte{6}
	ck := bytes.Repeat([]byte{0xAA}, 16)
	plaintext := []byte("0123456789abcdefSECRET-MEDIA-BYTES")

	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			var events []CallEvent
			f.engine.SetTracer(func(ev CallEvent) { events = append(events, ev) })
			f.provision(t)
			s := f.license(t, map[[16]byte][]byte{kid: ck})
			if err := f.engine.SelectKey(s, kid); err != nil {
				t.Fatal(err)
			}
			iv := [8]byte{1}
			var counter [16]byte
			copy(counter[:8], iv[:])
			stream, err := wvcrypto.CTRStream(ck, counter[:])
			if err != nil {
				t.Fatal(err)
			}
			ct := append([]byte(nil), plaintext...)
			stream.XORKeyStream(ct, ct)
			if _, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, iv, nil, ct); err != nil {
				t.Fatal(err)
			}

			wantLib := LibWVDRMEngine
			if name == "L1-tee" {
				wantLib = LibOEMCrypto
			}
			var sawDecrypt bool
			for _, ev := range events {
				if ev.Library != wantLib {
					t.Fatalf("event %s library = %q, want %q", ev.Func, ev.Library, wantLib)
				}
				if ev.Func == FuncDecryptCENC {
					sawDecrypt = true
					if name == "L1-tee" && ev.Out != nil {
						t.Error("L1 trace leaked decrypted output")
					}
					if name == "L3-soft" && !bytes.Equal(ev.Out, plaintext) {
						t.Error("L3 trace missing decrypted output dump")
					}
				}
			}
			if !sawDecrypt {
				t.Error("no DecryptCENC event traced")
			}

			// Detach: no further events.
			n := len(events)
			f.engine.SetTracer(nil)
			if _, err := f.engine.OpenSession(); err != nil {
				t.Fatal(err)
			}
			if len(events) != n {
				t.Error("events recorded after detach")
			}
		})
	}
}

func TestInstallKeybox_Invalid(t *testing.T) {
	if err := InstallKeybox(newMapStore(), []byte("garbage")); err == nil {
		t.Error("want error for invalid keybox")
	}
}

func TestNewSoftEngine_NoKeybox(t *testing.T) {
	_, err := NewSoftEngine("15.0", procmem.NewSpace("p"), newMapStore(), wvcrypto.NewDeterministicReader("x"))
	if !errors.Is(err, ErrNoKeybox) {
		t.Errorf("err = %v, want ErrNoKeybox", err)
	}
}

func TestFuncNames(t *testing.T) {
	if FuncDecryptCENC.OECCName() != "_oecc17" {
		t.Errorf("OECCName = %q", FuncDecryptCENC.OECCName())
	}
	if FuncLoadKeys.String() != "LoadKeys" {
		t.Errorf("String = %q", FuncLoadKeys.String())
	}
	if L3.String() != "L3" || L1.String() != "L1" || L2.String() != "L2" {
		t.Error("SecurityLevel.String broken")
	}
}

func BenchmarkKeyLadder_LicenseFlow(b *testing.B) {
	f := newSoftFixture(b, "15.0")
	f.provision(b)
	kid := [16]byte{1}
	ck := bytes.Repeat([]byte{2}, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := f.license(b, map[[16]byte][]byte{kid: ck})
		if err := f.engine.CloseSession(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptCENC(b *testing.B) {
	f := newSoftFixture(b, "15.0")
	f.provision(b)
	kid := [16]byte{1}
	ck := bytes.Repeat([]byte{2}, 16)
	s := f.license(b, map[[16]byte][]byte{kid: ck})
	if err := f.engine.SelectKey(s, kid); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x3C}, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, [8]byte{1}, nil, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSessionTableLimit(t *testing.T) {
	for name, mk := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			f := mk(t)
			var sessions []SessionID
			for i := 0; i < MaxSessions; i++ {
				s, err := f.engine.OpenSession()
				if err != nil {
					t.Fatalf("session %d: %v", i, err)
				}
				sessions = append(sessions, s)
			}
			if _, err := f.engine.OpenSession(); !errors.Is(err, ErrTooManySessions) {
				t.Errorf("session %d err = %v, want ErrTooManySessions", MaxSessions, err)
			}
			// Closing one frees a slot.
			if err := f.engine.CloseSession(sessions[0]); err != nil {
				t.Fatal(err)
			}
			if _, err := f.engine.OpenSession(); err != nil {
				t.Errorf("open after close: %v", err)
			}
		})
	}
}

// TestLicenseReplayIntoFreshSessionFails: anti-replay property of the
// ladder — a captured license response cannot be loaded into a different
// session, because the derived keys are bound to that session's request
// message context.
func TestLicenseReplayIntoFreshSessionFails(t *testing.T) {
	f := newSoftFixture(t, "15.0")
	f.provision(t)
	kid := [16]byte{0x77}
	ck := bytes.Repeat([]byte{0x11}, 16)

	// Original exchange.
	s1, err := f.engine.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	request := []byte("original request")
	if _, err := f.engine.GenerateRSASignature(s1, request); err != nil {
		t.Fatal(err)
	}
	encSK, msg, mac, keys := f.server.licenseResponse(t, request, map[[16]byte][]byte{kid: ck})
	if err := f.engine.DeriveKeysFromSessionKey(s1, encSK, request); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.LoadKeys(s1, msg, mac, keys); err != nil {
		t.Fatal(err)
	}

	// Replay the same response into a new session whose derivation context
	// is a DIFFERENT request: the MAC check rejects it.
	s2, err := f.engine.OpenSession()
	if err != nil {
		t.Fatal(err)
	}
	otherRequest := []byte("a different request")
	if err := f.engine.DeriveKeysFromSessionKey(s2, encSK, otherRequest); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.LoadKeys(s2, msg, mac, keys); !errors.Is(err, ErrSignatureInvalid) {
		t.Errorf("replayed license accepted: %v", err)
	}
}
