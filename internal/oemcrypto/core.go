package oemcrypto

import (
	"crypto/cipher"
	"crypto/rsa"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cenc"
	"repro/internal/keybox"
	"repro/internal/mp4"
	"repro/internal/wvcrypto"
)

// Persistent object names in the engine's FileStore.
const (
	storeKeybox  = "keybox"
	storeRSAKey  = "device_rsa_key"
	rsaWrapBytes = 16 // IV prefix length in the persisted RSA blob
)

// placeFn mirrors sensitive material into the engine's memory model. The
// soft (L3) engine writes into the hosting process's scannable memory; the
// TEE (L1) engine writes into secure memory.
type placeFn func(tag string, data []byte)

// core implements the full OEMCrypto logic shared by both engines. The
// engines differ only in where key material is placed, which FileStore
// backs persistence, and how calls cross into the implementation.
type core struct {
	level   SecurityLevel
	version string
	store   FileStore
	rand    io.Reader
	place   placeFn
	now     func() time.Time

	mu          sync.Mutex
	kb          *keybox.Keybox
	rsaKey      *rsa.PrivateKey
	sessions    map[SessionID]*session
	nextSession SessionID
}

// session is per-OpenSession state.
type session struct {
	keys        *wvcrypto.SessionKeys
	contentKeys map[[16]byte]loadedKey
	selected    *loadedKey
}

// loadedKey is one unwrapped content key, held as its expanded AES
// schedule so every sample decrypted under it reuses one expansion, with
// its key-control expiry.
type loadedKey struct {
	block     cipher.Block
	expiresAt time.Time // zero = unlimited
}

func newCore(level SecurityLevel, version string, store FileStore, rand io.Reader, place placeFn) *core {
	if place == nil {
		place = func(string, []byte) {}
	}
	return &core{
		level:    level,
		version:  version,
		store:    store,
		rand:     rand,
		place:    place,
		now:      time.Now,
		sessions: make(map[SessionID]*session),
	}
}

// initialize loads the factory keybox from the store, mirroring it into
// engine memory — the step that, on L3, plants CWE-922.
func (c *core) initialize() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.store.Get(storeKeybox)
	if !ok {
		return ErrNoKeybox
	}
	kb, err := keybox.Parse(raw)
	if err != nil {
		return fmt.Errorf("oemcrypto: initialize: %w", err)
	}
	c.kb = kb
	c.place("keybox", raw)
	return nil
}

func (c *core) keyboxInfo() (string, uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.kb == nil {
		return "", 0, ErrNoKeybox
	}
	return c.kb.StableIDString(), c.kb.SystemID(), nil
}

func (c *core) openSession() (SessionID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.sessions) >= MaxSessions {
		return 0, ErrTooManySessions
	}
	c.nextSession++
	id := c.nextSession
	c.sessions[id] = &session{contentKeys: make(map[[16]byte]loadedKey)}
	return id, nil
}

func (c *core) closeSession(id SessionID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sessions[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	delete(c.sessions, id)
	return nil
}

func (c *core) getSession(id SessionID) (*session, error) {
	s, ok := c.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	return s, nil
}

// generateDerivedKeys derives session keys from the keybox device key —
// the root step of the provisioning ladder.
func (c *core) generateDerivedKeys(id SessionID, context []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.getSession(id)
	if err != nil {
		return err
	}
	if c.kb == nil {
		return ErrNoKeybox
	}
	keys, err := wvcrypto.DeriveSessionKeys(c.kb.DeviceKey[:], context)
	if err != nil {
		return fmt.Errorf("oemcrypto: derive from keybox: %w", err)
	}
	s.keys = &keys
	c.place("derived-keys", append(append([]byte(nil), keys.Enc...), keys.MACClient...))
	return nil
}

// rewrapDeviceRSAKey completes provisioning: verify the response MAC under
// the keybox-derived server MAC key, unwrap the Device RSA key, persist it
// (wrapped under a keybox-derived storage key) and load it.
func (c *core) rewrapDeviceRSAKey(id SessionID, message, mac, wrappedKey, iv []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.getSession(id)
	if err != nil {
		return err
	}
	if s.keys == nil {
		return ErrKeysNotDerived
	}
	if !wvcrypto.VerifyHMACSHA256(s.keys.MACServer, message, mac) {
		return fmt.Errorf("%w: provisioning response", ErrSignatureInvalid)
	}
	der, err := wvcrypto.DecryptCBC(s.keys.Enc, iv, wrappedKey)
	if err != nil {
		return fmt.Errorf("oemcrypto: unwrap rsa key: %w", err)
	}
	key, err := wvcrypto.ParseRSAPrivateKey(der)
	if err != nil {
		return fmt.Errorf("oemcrypto: rewrap: %w", err)
	}
	if err := c.persistRSAKey(der); err != nil {
		return err
	}
	c.rsaKey = key
	c.place("rsa-private-key", der)
	return nil
}

// persistRSAKey stores the RSA key wrapped under a storage key derived from
// the keybox device key. (On L3 the weakness is not this file but the
// plaintext copies in process memory.)
func (c *core) persistRSAKey(der []byte) error {
	if c.kb == nil {
		return ErrNoKeybox
	}
	storageKey, err := wvcrypto.DeriveKey(c.kb.DeviceKey[:], wvcrypto.LabelProvisioning, c.kb.StableID[:], 128)
	if err != nil {
		return fmt.Errorf("oemcrypto: storage key: %w", err)
	}
	iv := make([]byte, rsaWrapBytes)
	if _, err := io.ReadFull(c.rand, iv); err != nil {
		return fmt.Errorf("oemcrypto: storage iv: %w", err)
	}
	ct, err := wvcrypto.EncryptCBC(storageKey, iv, der)
	if err != nil {
		return fmt.Errorf("oemcrypto: wrap rsa key: %w", err)
	}
	c.store.Put(storeRSAKey, append(iv, ct...))
	return nil
}

// loadDeviceRSAKey restores the provisioned RSA key from the store.
func (c *core) loadDeviceRSAKey() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loadDeviceRSAKeyLocked()
}

func (c *core) loadDeviceRSAKeyLocked() error {
	if c.rsaKey != nil {
		return nil
	}
	if c.kb == nil {
		return ErrNoKeybox
	}
	blob, ok := c.store.Get(storeRSAKey)
	if !ok || len(blob) <= rsaWrapBytes {
		return ErrNotProvisioned
	}
	storageKey, err := wvcrypto.DeriveKey(c.kb.DeviceKey[:], wvcrypto.LabelProvisioning, c.kb.StableID[:], 128)
	if err != nil {
		return fmt.Errorf("oemcrypto: storage key: %w", err)
	}
	der, err := wvcrypto.DecryptCBC(storageKey, blob[:rsaWrapBytes], blob[rsaWrapBytes:])
	if err != nil {
		return fmt.Errorf("oemcrypto: unwrap stored rsa key: %w", err)
	}
	key, err := wvcrypto.ParseRSAPrivateKey(der)
	if err != nil {
		return fmt.Errorf("oemcrypto: stored rsa key: %w", err)
	}
	c.rsaKey = key
	c.place("rsa-private-key", der)
	return nil
}

func (c *core) provisioned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rsaKey != nil {
		return true
	}
	_, ok := c.store.Get(storeRSAKey)
	return ok
}

func (c *core) generateRSASignature(id SessionID, message []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.getSession(id); err != nil {
		return nil, err
	}
	if err := c.loadDeviceRSAKeyLocked(); err != nil {
		return nil, err
	}
	sig, err := wvcrypto.SignPSS(c.rand, c.rsaKey, message)
	if err != nil {
		return nil, fmt.Errorf("oemcrypto: %w", err)
	}
	return sig, nil
}

func (c *core) deriveKeysFromSessionKey(id SessionID, encSessionKey, context []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.getSession(id)
	if err != nil {
		return err
	}
	if err := c.loadDeviceRSAKeyLocked(); err != nil {
		return err
	}
	sessionKey, err := wvcrypto.DecryptOAEP(c.rsaKey, encSessionKey)
	if err != nil {
		return fmt.Errorf("oemcrypto: session key transport: %w", err)
	}
	keys, err := wvcrypto.DeriveSessionKeys(sessionKey, context)
	if err != nil {
		return fmt.Errorf("oemcrypto: derive session keys: %w", err)
	}
	s.keys = &keys
	c.place("derived-keys", append(append([]byte(nil), keys.Enc...), keys.MACClient...))
	return nil
}

func (c *core) loadKeys(id SessionID, message, mac []byte, keys []EncryptedKey) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.getSession(id)
	if err != nil {
		return err
	}
	if s.keys == nil {
		return ErrKeysNotDerived
	}
	if !wvcrypto.VerifyHMACSHA256(s.keys.MACServer, message, mac) {
		return fmt.Errorf("%w: license response", ErrSignatureInvalid)
	}
	for _, ek := range keys {
		contentKey, err := wvcrypto.DecryptCBC(s.keys.Enc, ek.IV[:], ek.Payload)
		if err != nil {
			return fmt.Errorf("oemcrypto: unwrap content key %x: %w", ek.KID, err)
		}
		block, err := cenc.NewBlock(contentKey)
		if err != nil {
			return fmt.Errorf("oemcrypto: content key %x: %w", ek.KID, err)
		}
		lk := loadedKey{block: block}
		if ek.DurationSeconds > 0 {
			lk.expiresAt = c.now().Add(time.Duration(ek.DurationSeconds) * time.Second)
		}
		s.contentKeys[ek.KID] = lk
		c.place("content-key:"+cenc.KIDToString(ek.KID), contentKey)
	}
	return nil
}

func (c *core) selectKey(id SessionID, kid [16]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.getSession(id)
	if err != nil {
		return err
	}
	lk, ok := s.contentKeys[kid]
	if !ok {
		return fmt.Errorf("%w: %x", ErrKeyNotLoaded, kid)
	}
	s.selected = &lk
	return nil
}

func (c *core) decryptCENC(id SessionID, scheme string, iv [8]byte, subsamples []mp4.SubsampleEntry, data []byte) ([]byte, error) {
	c.mu.Lock()
	s, err := c.getSession(id)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	lk := s.selected
	now := c.now()
	c.mu.Unlock()
	if lk == nil {
		return nil, ErrNoKeySelected
	}
	if !lk.expiresAt.IsZero() && now.After(lk.expiresAt) {
		return nil, ErrKeyExpired
	}
	out, err := cenc.DecryptSample(scheme, lk.block, iv, subsamples, data)
	if err != nil {
		return nil, fmt.Errorf("oemcrypto: %w", err)
	}
	return out, nil
}

func (c *core) sessionKeys(id SessionID) (*wvcrypto.SessionKeys, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := c.getSession(id)
	if err != nil {
		return nil, err
	}
	if s.keys == nil {
		return nil, ErrKeysNotDerived
	}
	return s.keys, nil
}

func (c *core) genericEncrypt(id SessionID, iv, data []byte) ([]byte, error) {
	keys, err := c.sessionKeys(id)
	if err != nil {
		return nil, err
	}
	out, err := wvcrypto.EncryptCBC(keys.Enc, iv, data)
	if err != nil {
		return nil, fmt.Errorf("oemcrypto: generic encrypt: %w", err)
	}
	return out, nil
}

func (c *core) genericDecrypt(id SessionID, iv, data []byte) ([]byte, error) {
	keys, err := c.sessionKeys(id)
	if err != nil {
		return nil, err
	}
	out, err := wvcrypto.DecryptCBC(keys.Enc, iv, data)
	if err != nil {
		return nil, fmt.Errorf("oemcrypto: generic decrypt: %w", err)
	}
	return out, nil
}

func (c *core) genericSign(id SessionID, data []byte) ([]byte, error) {
	keys, err := c.sessionKeys(id)
	if err != nil {
		return nil, err
	}
	return wvcrypto.HMACSHA256(keys.MACClient, data), nil
}

func (c *core) genericVerify(id SessionID, data, signature []byte) error {
	keys, err := c.sessionKeys(id)
	if err != nil {
		return err
	}
	if !wvcrypto.VerifyHMACSHA256(keys.MACServer, data, signature) {
		return ErrSignatureInvalid
	}
	return nil
}
