package oemcrypto

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/mp4"
	"repro/internal/tee"
)

// TrustletName is the Widevine trusted application's name in the TEE.
const TrustletName = "widevine"

// teeRequest/teeResponse are the messages crossing the world boundary, each
// carried as one fixed-layout binary frame (teewire.go). Only these opaque
// bytes are ever visible to a normal-world monitor — never the trustlet's
// internal key material.
type teeRequest struct {
	Session    SessionID
	Context    []byte
	Message    []byte
	MAC        []byte
	WrappedKey []byte
	IV         []byte
	IV8        [8]byte
	KID        [16]byte
	Scheme     string
	Subsamples []mp4.SubsampleEntry
	Data       []byte
	Keys       []EncryptedKey
}

type teeResponse struct {
	Session  SessionID
	Out      []byte
	StableID string
	SystemID uint32
	Bool     bool
	Err      string
}

// Trustlet is the Widevine trusted application: the shared core running
// entirely inside the secure world, with key material in secure memory and
// persistence in TEE secure storage.
type Trustlet struct {
	version string
	rand    io.Reader

	mu   sync.Mutex
	core *core
}

var _ tee.Trustlet = (*Trustlet)(nil)

// NewTrustlet builds the Widevine trusted app. Load it into a tee.World and
// drive it through NewTEEEngine.
func NewTrustlet(version string, rand io.Reader) *Trustlet {
	return &Trustlet{version: version, rand: rand}
}

// Name implements tee.Trustlet.
func (t *Trustlet) Name() string { return TrustletName }

// Invoke implements tee.Trustlet: decode the request, run the command with
// all key material confined to the secure world, encode the response.
func (t *Trustlet) Invoke(ctx *tee.Context, cmd uint32, input []byte) ([]byte, error) {
	t.mu.Lock()
	if t.core == nil {
		// First invocation: bind the core to this world's secure storage
		// and secure memory.
		store := &teeStore{ctx: ctx}
		place := func(tag string, data []byte) {
			r, err := ctx.Alloc(tag, len(data))
			if err != nil {
				return
			}
			_ = r.Write(0, data)
		}
		t.core = newCore(L1, t.version, store, t.rand, place)
	}
	c := t.core
	t.mu.Unlock()

	var req teeRequest
	if len(input) > 0 {
		if err := req.unmarshal(input); err != nil {
			return nil, fmt.Errorf("oemcrypto: tee request: %w", err)
		}
	}

	var resp teeResponse
	switch Func(cmd) {
	case FuncInitialize:
		resp.Err = errString(c.initialize())
	case FuncKeyboxInfo:
		id, sys, err := c.keyboxInfo()
		resp.StableID, resp.SystemID, resp.Err = id, sys, errString(err)
	case FuncOpenSession:
		id, err := c.openSession()
		resp.Session, resp.Err = id, errString(err)
	case FuncCloseSession:
		resp.Err = errString(c.closeSession(req.Session))
	case FuncGenerateDerivedKeys:
		resp.Err = errString(c.generateDerivedKeys(req.Session, req.Context))
	case FuncRewrapDeviceRSAKey:
		resp.Err = errString(c.rewrapDeviceRSAKey(req.Session, req.Message, req.MAC, req.WrappedKey, req.IV))
	case FuncLoadDeviceRSAKey:
		resp.Err = errString(c.loadDeviceRSAKey())
	case FuncGenerateRSASignature:
		out, err := c.generateRSASignature(req.Session, req.Message)
		resp.Out, resp.Err = out, errString(err)
	case FuncDeriveKeysFromSessionKey:
		resp.Err = errString(c.deriveKeysFromSessionKey(req.Session, req.Data, req.Context))
	case FuncLoadKeys:
		resp.Err = errString(c.loadKeys(req.Session, req.Message, req.MAC, req.Keys))
	case FuncSelectKey:
		resp.Err = errString(c.selectKey(req.Session, req.KID))
	case FuncDecryptCENC:
		out, err := c.decryptCENC(req.Session, req.Scheme, req.IV8, req.Subsamples, req.Data)
		resp.Out, resp.Err = out, errString(err)
	case FuncGenericEncrypt:
		out, err := c.genericEncrypt(req.Session, req.IV, req.Data)
		resp.Out, resp.Err = out, errString(err)
	case FuncGenericDecrypt:
		out, err := c.genericDecrypt(req.Session, req.IV, req.Data)
		resp.Out, resp.Err = out, errString(err)
	case FuncGenericSign:
		out, err := c.genericSign(req.Session, req.Data)
		resp.Out, resp.Err = out, errString(err)
	case FuncGenericVerify:
		resp.Err = errString(c.genericVerify(req.Session, req.Data, req.MAC))
	case FuncTerminate:
		// no-op; sessions die with the world
	case Func(funcProvisioned):
		resp.Bool = c.provisioned()
	default:
		return nil, fmt.Errorf("oemcrypto: unknown tee command %d", cmd)
	}

	return resp.marshal(), nil
}

// funcProvisioned is a pseudo entry point (outside the hooked table) the
// adapter uses for the Provisioned query.
const funcProvisioned = 3

// teeStore adapts TEE secure storage to the FileStore interface.
type teeStore struct {
	ctx *tee.Context
}

func (s *teeStore) Put(name string, data []byte) { s.ctx.StorePersistent(name, data) }

func (s *teeStore) Get(name string) ([]byte, bool) {
	data, err := s.ctx.LoadPersistent(name)
	if err != nil {
		return nil, false
	}
	return data, true
}

// TEEEngine is the normal-world adapter (the liboemcrypto.so shim): it
// serializes every call into an opaque command buffer and invokes the
// Widevine trustlet. A monitor hooked here sees call metadata and the
// normal-world buffers, but L1 decrypted media goes to secure output
// buffers and is withheld from the trace.
type TEEEngine struct {
	world   *tee.World
	version string

	mu     sync.Mutex
	tracer Tracer
}

var _ Engine = (*TEEEngine)(nil)

// NewTEEEngine connects to the Widevine trustlet in world and initializes
// it (loading the keybox from TEE secure storage).
func NewTEEEngine(version string, world *tee.World) (*TEEEngine, error) {
	e := &TEEEngine{world: world, version: version}
	resp, err := e.call(FuncInitialize, teeRequest{})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, mapTEEError(resp.Err)
	}
	return e, nil
}

// call frames a request, crosses the world boundary and decodes the
// response frame.
func (e *TEEEngine) call(fn Func, req teeRequest) (teeResponse, error) {
	out, err := e.world.Invoke(TrustletName, uint32(fn), req.marshal())
	if err != nil {
		return teeResponse{}, err
	}
	var resp teeResponse
	if err := resp.unmarshal(out); err != nil {
		return teeResponse{}, fmt.Errorf("oemcrypto: decode tee response: %w", err)
	}
	return resp, nil
}

// mapTEEError rehydrates sentinel errors from the response frame's Err
// string, which crosses the world boundary as plain text, so callers can
// still match with errors.Is.
func mapTEEError(msg string) error {
	if msg == "" {
		return nil
	}
	for _, sentinel := range []error{
		ErrNoSession, ErrNoKeybox, ErrNotProvisioned, ErrSignatureInvalid,
		ErrKeysNotDerived, ErrKeyNotLoaded, ErrNoKeySelected,
		ErrKeyExpired, ErrTooManySessions,
	} {
		if msg == sentinel.Error() {
			return sentinel
		}
	}
	return errors.New(msg)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	// Preserve sentinel identity where possible: unwrap to the sentinel
	// message if the chain contains one.
	for _, sentinel := range []error{
		ErrNoSession, ErrNoKeybox, ErrNotProvisioned, ErrSignatureInvalid,
		ErrKeysNotDerived, ErrKeyNotLoaded, ErrNoKeySelected,
		ErrKeyExpired, ErrTooManySessions,
	} {
		if errors.Is(err, sentinel) {
			return sentinel.Error()
		}
	}
	return err.Error()
}

// SecurityLevel reports L1.
func (e *TEEEngine) SecurityLevel() SecurityLevel { return L1 }

// Version reports the CDM version string.
func (e *TEEEngine) Version() string { return e.version }

// SetTracer installs or removes the monitor hook on the normal-world shim.
func (e *TEEEngine) SetTracer(t Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tracer = t
}

func (e *TEEEngine) emit(ev CallEvent) {
	e.mu.Lock()
	t := e.tracer
	e.mu.Unlock()
	if t != nil {
		ev.Library = LibOEMCrypto
		t(ev)
	}
}

// KeyboxInfo exposes the provisioning identity.
func (e *TEEEngine) KeyboxInfo() (string, uint32, error) {
	resp, err := e.call(FuncKeyboxInfo, teeRequest{})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncKeyboxInfo, Out: []byte(resp.StableID), Err: err})
	return resp.StableID, resp.SystemID, err
}

// OpenSession allocates a session.
func (e *TEEEngine) OpenSession() (SessionID, error) {
	resp, err := e.call(FuncOpenSession, teeRequest{})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncOpenSession, Session: resp.Session, Err: err})
	return resp.Session, err
}

// CloseSession releases a session.
func (e *TEEEngine) CloseSession(s SessionID) error {
	resp, err := e.call(FuncCloseSession, teeRequest{Session: s})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncCloseSession, Session: s, Err: err})
	return err
}

// GenerateDerivedKeys derives session keys from the keybox device key.
func (e *TEEEngine) GenerateDerivedKeys(s SessionID, context []byte) error {
	resp, err := e.call(FuncGenerateDerivedKeys, teeRequest{Session: s, Context: context})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncGenerateDerivedKeys, Session: s, In: dup(context), Err: err})
	return err
}

// RewrapDeviceRSAKey installs the provisioned Device RSA key.
func (e *TEEEngine) RewrapDeviceRSAKey(s SessionID, message, mac, wrappedKey, iv []byte) error {
	resp, err := e.call(FuncRewrapDeviceRSAKey, teeRequest{
		Session: s, Message: message, MAC: mac, WrappedKey: wrappedKey, IV: iv,
	})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncRewrapDeviceRSAKey, Session: s, In: dup(wrappedKey), Err: err})
	return err
}

// LoadDeviceRSAKey restores the provisioned RSA key inside the TEE.
func (e *TEEEngine) LoadDeviceRSAKey() error {
	resp, err := e.call(FuncLoadDeviceRSAKey, teeRequest{})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncLoadDeviceRSAKey, Err: err})
	return err
}

// Provisioned reports whether a Device RSA key is installed.
func (e *TEEEngine) Provisioned() bool {
	resp, err := e.call(Func(funcProvisioned), teeRequest{})
	if err != nil {
		return false
	}
	return resp.Bool
}

// GenerateRSASignature signs a license request inside the TEE.
func (e *TEEEngine) GenerateRSASignature(s SessionID, message []byte) ([]byte, error) {
	resp, err := e.call(FuncGenerateRSASignature, teeRequest{Session: s, Message: message})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncGenerateRSASignature, Session: s, In: dup(message), Out: dup(resp.Out), Err: err})
	return resp.Out, err
}

// DeriveKeysFromSessionKey derives session keys inside the TEE.
func (e *TEEEngine) DeriveKeysFromSessionKey(s SessionID, encSessionKey, context []byte) error {
	resp, err := e.call(FuncDeriveKeysFromSessionKey, teeRequest{Session: s, Data: encSessionKey, Context: context})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncDeriveKeysFromSessionKey, Session: s, In: dup(encSessionKey), Err: err})
	return err
}

// LoadKeys unwraps license content keys inside the TEE.
func (e *TEEEngine) LoadKeys(s SessionID, message, mac []byte, keys []EncryptedKey) error {
	resp, err := e.call(FuncLoadKeys, teeRequest{Session: s, Message: message, MAC: mac, Keys: keys})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncLoadKeys, Session: s, In: dup(message), Keys: dupKeys(keys), Err: err})
	return err
}

// SelectKey chooses the active content key.
func (e *TEEEngine) SelectKey(s SessionID, kid [16]byte) error {
	resp, err := e.call(FuncSelectKey, teeRequest{Session: s, KID: kid})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncSelectKey, Session: s, In: kid[:], Err: err})
	return err
}

// DecryptCENC decrypts one sample into a SECURE output buffer: the trace
// records the call and the (encrypted) input, but never the plaintext.
func (e *TEEEngine) DecryptCENC(s SessionID, scheme string, iv [8]byte, subsamples []mp4.SubsampleEntry, data []byte) (DecryptResult, error) {
	resp, err := e.call(FuncDecryptCENC, teeRequest{
		Session: s, Scheme: scheme, IV8: iv, Subsamples: subsamples, Data: data,
	})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	// Out deliberately omitted: secure output path.
	e.emit(CallEvent{Func: FuncDecryptCENC, Session: s, In: dup(data), Err: err})
	if err != nil {
		return DecryptResult{}, err
	}
	return DecryptResult{Data: resp.Out, Secure: true}, nil
}

// GenericEncrypt encrypts arbitrary data under the session keys.
func (e *TEEEngine) GenericEncrypt(s SessionID, iv, data []byte) ([]byte, error) {
	resp, err := e.call(FuncGenericEncrypt, teeRequest{Session: s, IV: iv, Data: data})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncGenericEncrypt, Session: s, In: dup(data), Out: dup(resp.Out), Err: err})
	return resp.Out, err
}

// GenericDecrypt decrypts arbitrary data; unlike media decryption the
// result returns to the app in normal memory, so it IS dumped in the trace
// — the leak the paper used to recover Netflix URIs even under L1.
func (e *TEEEngine) GenericDecrypt(s SessionID, iv, data []byte) ([]byte, error) {
	resp, err := e.call(FuncGenericDecrypt, teeRequest{Session: s, IV: iv, Data: data})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncGenericDecrypt, Session: s, In: dup(data), Out: dup(resp.Out), Err: err})
	return resp.Out, err
}

// GenericSign MACs arbitrary data with the client session key.
func (e *TEEEngine) GenericSign(s SessionID, data []byte) ([]byte, error) {
	resp, err := e.call(FuncGenericSign, teeRequest{Session: s, Data: data})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncGenericSign, Session: s, In: dup(data), Out: dup(resp.Out), Err: err})
	return resp.Out, err
}

// GenericVerify checks a server MAC over arbitrary data.
func (e *TEEEngine) GenericVerify(s SessionID, data, signature []byte) error {
	resp, err := e.call(FuncGenericVerify, teeRequest{Session: s, Data: data, MAC: signature})
	if err == nil {
		err = mapTEEError(resp.Err)
	}
	e.emit(CallEvent{Func: FuncGenericVerify, Session: s, In: dup(data), Err: err})
	return err
}
