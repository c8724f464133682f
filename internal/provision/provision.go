// Package provision implements the Widevine provisioning service: the
// server that installs a Device RSA Key on a device whose keybox identity
// it recognizes. The manufacturer shares each device's keybox device key
// with the service; provisioning wraps a freshly minted RSA key under keys
// derived from that shared root, exactly as the paper's key-ladder analysis
// describes.
//
// The package also owns the device Registry (keybox keys in, provisioned
// RSA public keys out) that license servers consult to verify request
// signatures, and the revocation Policy the paper's Q4 experiment probes:
// OTT deployments may refuse to provision CDM versions that no longer
// receive security updates.
package provision

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/cdm"
	"repro/internal/wvcrypto"
)

// Errors returned by the provisioning server.
var (
	// ErrUnknownDevice is returned for stable IDs the manufacturer never
	// registered.
	ErrUnknownDevice = errors.New("provision: unknown device")
	// ErrDeviceRevoked is returned when policy refuses the CDM version.
	ErrDeviceRevoked = errors.New("provision: device revoked by policy")
)

// Registry records device roots and provisioned identities.
type Registry struct {
	mu         sync.RWMutex
	deviceKeys map[string][16]byte
	rsaKeys    map[string]deviceRSAKey
	minting    map[string]*rsaMint

	// pool, when installed, is the registry's RSA mint path: keys come
	// from per-device deterministic forks (position-independent, so they
	// may be pre-minted in the background or shared by every world of a
	// seed) instead of the provisioning server's shared stream.
	pool *KeyPool

	// mints counts the 2048-bit key generations performed on this
	// registry's behalf — the expensive cold-start work. Pool hits,
	// installed snapshot keys and cached keys do not count.
	mints atomic.Int64
}

// deviceRSAKey is a Device RSA key with its PKCS#1 DER, the bytes every
// provisioning response wraps and every snapshot persists. The DER is
// encoded on first use and shared by every copy of the value, so a key
// is encoded at most once however many exchanges and registries use it,
// and a restored key that no exchange uses is never encoded.
type deviceRSAKey struct {
	key *rsa.PrivateKey
	der func() []byte
}

func newDeviceRSAKey(key *rsa.PrivateKey) deviceRSAKey {
	return deviceRSAKey{key: key, der: sync.OnceValue(func() []byte {
		return wvcrypto.MarshalRSAPrivateKey(key)
	})}
}

// rsaMint is the in-flight singleflight guard for one device's RSA mint, so
// concurrent provisioning of *different* devices generates keys in parallel
// while duplicate requests for the same device share one generation.
type rsaMint struct {
	once sync.Once
	key  deviceRSAKey
	err  error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		deviceKeys: make(map[string][16]byte),
		rsaKeys:    make(map[string]deviceRSAKey),
		minting:    make(map[string]*rsaMint),
	}
}

// UseKeyPool installs the registry's RSA mint pool: pre-minted keys skip
// generation entirely, and lazy mints draw from the pool's per-device
// deterministic forks. Install before any provisioning traffic —
// switching mint sources mid-world would change key material.
func (r *Registry) UseKeyPool(pool *KeyPool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pool = pool
}

// KeyPool returns the installed mint pool, nil when the registry mints
// from caller-provided randomness (the legacy path).
func (r *Registry) KeyPool() *KeyPool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pool
}

// MintCount reports how many RSA key generations this registry caused.
// Warm paths — pool hits, snapshot restores, repeat provisioning — leave
// it unchanged; tests use it to pin "zero new keygen" invariants.
func (r *Registry) MintCount() int64 { return r.mints.Load() }

// InstallRSAKey seeds a provisioned identity directly (the snapshot
// restore path), bypassing generation. The key stays in this registry:
// the mint pool may be shared with every world of the seed, and a wrong
// key must not reach them.
func (r *Registry) InstallRSAKey(stableID string, key *rsa.PrivateKey) {
	k := newDeviceRSAKey(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rsaKeys[stableID] = k
}

// ExportRSAKeys returns every provisioned identity as PKCS#1 DER — the
// registry's expensive state, in the shape world snapshots persist. The
// DER is the registry's own encoding, shared, not copied: callers must
// not modify it.
func (r *Registry) ExportRSAKeys() map[string][]byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][]byte, len(r.rsaKeys))
	for id, k := range r.rsaKeys {
		out[id] = k.der()
	}
	return out
}

// ExportDeviceKeys returns the registered keybox device keys (the
// manufacturer feed), also persisted by world snapshots.
func (r *Registry) ExportDeviceKeys() map[string][16]byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][16]byte, len(r.deviceKeys))
	for id, k := range r.deviceKeys {
		out[id] = k
	}
	return out
}

// RegisterDevice records a device's keybox device key (the manufacturer →
// Widevine feed).
func (r *Registry) RegisterDevice(stableID string, deviceKey [16]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deviceKeys[stableID] = deviceKey
}

// DeviceKey looks up a device's keybox key.
func (r *Registry) DeviceKey(stableID string) ([16]byte, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.deviceKeys[stableID]
	return k, ok
}

// RSAPublicKey returns the provisioned RSA public key for a device, if any.
// License servers use it to verify request signatures.
func (r *Registry) RSAPublicKey(stableID string) (*rsa.PublicKey, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.rsaKeys[stableID]
	if !ok {
		return nil, false
	}
	return &k.key.PublicKey, true
}

// deviceRSA returns (minting if needed) the device's RSA key pair, so
// provisioning is idempotent per device. The registry lock is never held
// across key generation: each device gets its own singleflight guard, so
// concurrent provisioning of different devices mints 2048-bit keys in
// parallel.
//
// A snapshot-restored key (InstallRSAKey) is served first. With a key
// pool installed, the pool is the mint path: a pre-minted key is served
// with zero generation, and a lazy mint draws from the pool's per-device
// fork — byte-identical either way.
// Without a pool, generation reads from the caller's stream (the legacy
// position-dependent path, kept for direct registry users).
func (r *Registry) deviceRSA(stableID string, rand io.Reader) (deviceRSAKey, error) {
	r.mu.Lock()
	if k, ok := r.rsaKeys[stableID]; ok {
		r.mu.Unlock()
		return k, nil
	}
	pool := r.pool
	r.mu.Unlock()

	if pool != nil {
		key, mintedHere, err := pool.key(stableID)
		if err != nil {
			return deviceRSAKey{}, err
		}
		if mintedHere {
			r.mints.Add(1)
		}
		r.mu.Lock()
		r.rsaKeys[stableID] = key
		r.mu.Unlock()
		return key, nil
	}

	r.mu.Lock()
	m, ok := r.minting[stableID]
	if !ok {
		m = &rsaMint{}
		r.minting[stableID] = m
	}
	r.mu.Unlock()

	m.once.Do(func() {
		key, err := wvcrypto.GenerateRSAKey(rand)
		r.mints.Add(1)
		if m.err = err; err == nil {
			m.key = newDeviceRSAKey(key)
		}
		r.mu.Lock()
		if err == nil {
			r.rsaKeys[stableID] = m.key
		}
		delete(r.minting, stableID)
		r.mu.Unlock()
	})
	return m.key, m.err
}

// Policy is the provisioning admission rule. The zero value admits every
// registered device.
type Policy struct {
	// MinCDMVersion rejects clients running an older CDM ("" = allow all).
	// Disney+-like deployments set this to cut off discontinued phones.
	MinCDMVersion string
}

// Check validates a request against the policy.
func (p Policy) Check(req *cdm.ProvisioningRequest) error {
	if !cdm.VersionAtLeast(req.CDMVersion, p.MinCDMVersion) {
		return fmt.Errorf("%w: cdm %s < minimum %s", ErrDeviceRevoked, req.CDMVersion, p.MinCDMVersion)
	}
	return nil
}

// Server is one provisioning endpoint with one admission policy.
type Server struct {
	registry *Registry
	policy   Policy
	rand     io.Reader
}

// NewServer builds a provisioning server over a shared registry.
func NewServer(registry *Registry, policy Policy, rand io.Reader) *Server {
	return &Server{registry: registry, policy: policy, rand: rand}
}

// Provision handles one provisioning request, returning the wrapped Device
// RSA key on success.
func (s *Server) Provision(req *cdm.ProvisioningRequest) (*cdm.ProvisioningResponse, error) {
	if err := s.policy.Check(req); err != nil {
		return nil, err
	}
	deviceKey, ok := s.registry.DeviceKey(req.StableID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, req.StableID)
	}
	rsaKey, err := s.registry.deviceRSA(req.StableID, s.rand)
	if err != nil {
		return nil, fmt.Errorf("provision: mint rsa key: %w", err)
	}

	context, err := req.Canonical()
	if err != nil {
		return nil, err
	}
	keys, err := wvcrypto.DeriveSessionKeys(deviceKey[:], context)
	if err != nil {
		return nil, fmt.Errorf("provision: derive keys: %w", err)
	}
	iv := make([]byte, 16)
	if _, err := io.ReadFull(s.rand, iv); err != nil {
		return nil, fmt.Errorf("provision: iv: %w", err)
	}
	wrapped, err := wvcrypto.EncryptCBC(keys.Enc, iv, rsaKey.der())
	if err != nil {
		return nil, fmt.Errorf("provision: wrap rsa key: %w", err)
	}
	message := append([]byte("provisioning-grant:"), context...)
	return &cdm.ProvisioningResponse{
		Message:       message,
		MAC:           wvcrypto.HMACSHA256(keys.MACServer, message),
		WrappedRSAKey: wrapped,
		IV:            iv,
	}, nil
}
