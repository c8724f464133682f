// Package android re-implements the surface of the Android DRM framework
// that OTT apps program against — MediaDrm, MediaCrypto and MediaCodec —
// and routes their calls through the Media DRM Server to the Widevine CDM,
// reproducing the message flow of the paper's Figure 1. Requests and
// responses cross the API as opaque byte blobs, exactly as the real
// framework hands apps "opaque request" buffers to forward to license
// servers.
package android

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/cdm"
	"repro/internal/mp4"
	"repro/internal/oemcrypto"
)

// WidevineUUID is the DRM scheme UUID apps pass to MediaDrm, identical to
// the PSSH system ID.
var WidevineUUID = mp4.WidevineSystemID

// Errors returned by the framework.
var (
	// ErrUnsupportedScheme is returned for non-Widevine UUIDs.
	ErrUnsupportedScheme = errors.New("android: unsupported DRM scheme")
	// ErrNoSession is returned for unknown framework sessions.
	ErrNoSession = errors.New("android: no such session")
	// ErrNotProvisioned mirrors the framework's provisioning-required
	// signal: the app must run the provisioning flow first.
	ErrNotProvisioned = errors.New("android: device requires provisioning")
	// ErrSecureOutput is returned when an app asks for frames that were
	// decoded into secure buffers (L1 path).
	ErrSecureOutput = errors.New("android: frames are in secure output buffers")
)

// FlowEvent is one framework-level step, recorded to reproduce Figure 1.
type FlowEvent struct {
	// From and To are the acting components: "Application", "MediaDRM
	// Server", "CDM", "License Server", "CDN".
	From, To string
	// Call is the API step, e.g. "openSession()".
	Call string
}

// FlowRecorder observes framework steps; nil disables recording.
type FlowRecorder func(FlowEvent)

// MediaDrm mirrors android.media.MediaDrm: session management plus the
// provisioning and key-request exchanges.
type MediaDrm struct {
	client *cdm.Client
	flow   FlowRecorder

	mu       sync.Mutex
	sessions map[oemcrypto.SessionID]*drmSession
}

type drmSession struct {
	lastKeyRequest *cdm.SignedLicenseRequest
}

// NewMediaDrm constructs the framework object for a scheme UUID over the
// device's (or an app-embedded) Widevine engine.
func NewMediaDrm(uuid [16]byte, engine oemcrypto.Engine, rand io.Reader, flow FlowRecorder) (*MediaDrm, error) {
	if uuid != WidevineUUID {
		return nil, fmt.Errorf("%w: %x", ErrUnsupportedScheme, uuid)
	}
	if flow == nil {
		flow = func(FlowEvent) {}
	}
	flow(FlowEvent{From: "Application", To: "MediaDRM Server", Call: "MediaDRM(UUID)"})
	flow(FlowEvent{From: "MediaDRM Server", To: "CDM", Call: "Initialize()"})
	return &MediaDrm{
		client:   cdm.NewClient(engine, rand),
		flow:     flow,
		sessions: make(map[oemcrypto.SessionID]*drmSession),
	}, nil
}

// Client exposes the CDM client (the monitor and secure-channel users need
// it).
func (d *MediaDrm) Client() *cdm.Client { return d.client }

// SecurityLevel reports the engine's level.
func (d *MediaDrm) SecurityLevel() oemcrypto.SecurityLevel {
	return d.client.Engine().SecurityLevel()
}

// OpenSession opens a DRM session (Figure 1: openSession crosses the app →
// server → CDM chain).
func (d *MediaDrm) OpenSession() (oemcrypto.SessionID, error) {
	d.flow(FlowEvent{From: "Application", To: "MediaDRM Server", Call: "openSession()"})
	d.flow(FlowEvent{From: "MediaDRM Server", To: "CDM", Call: "openSession()"})
	s, err := d.client.OpenSession()
	if err != nil {
		return 0, err
	}
	d.mu.Lock()
	d.sessions[s] = &drmSession{}
	d.mu.Unlock()
	return s, nil
}

// CloseSession releases a DRM session.
func (d *MediaDrm) CloseSession(s oemcrypto.SessionID) error {
	d.mu.Lock()
	_, ok := d.sessions[s]
	delete(d.sessions, s)
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSession, s)
	}
	return d.client.CloseSession(s)
}

// NeedsProvisioning reports whether the device must run the provisioning
// exchange before key requests can succeed.
func (d *MediaDrm) NeedsProvisioning() bool { return !d.client.Provisioned() }

// GetProvisionRequest builds the opaque provisioning request blob the app
// forwards to the provisioning server.
func (d *MediaDrm) GetProvisionRequest(s oemcrypto.SessionID) ([]byte, error) {
	if err := d.checkSession(s); err != nil {
		return nil, err
	}
	req, err := d.client.CreateProvisioningRequest(s)
	if err != nil {
		return nil, err
	}
	return req.Canonical()
}

// ProvideProvisionResponse feeds the provisioning server's response back.
func (d *MediaDrm) ProvideProvisionResponse(s oemcrypto.SessionID, blob []byte) error {
	if err := d.checkSession(s); err != nil {
		return err
	}
	var resp cdm.ProvisioningResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		return fmt.Errorf("android: provisioning response: %w", err)
	}
	return d.client.ProcessProvisioningResponse(s, &resp)
}

// GetKeyRequest builds the opaque license request blob (Figure 1:
// getKeyRequest → "opaque request").
func (d *MediaDrm) GetKeyRequest(s oemcrypto.SessionID, contentID string, kids [][16]byte) ([]byte, error) {
	if err := d.checkSession(s); err != nil {
		return nil, err
	}
	if d.NeedsProvisioning() {
		return nil, ErrNotProvisioned
	}
	d.flow(FlowEvent{From: "Application", To: "MediaDRM Server", Call: "getKeyRequest()"})
	d.flow(FlowEvent{From: "MediaDRM Server", To: "CDM", Call: "getKeyRequest()"})
	signed, err := d.client.CreateLicenseRequest(s, contentID, kids)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.sessions[s].lastKeyRequest = signed
	d.mu.Unlock()
	blob, err := json.Marshal(signed)
	if err != nil {
		return nil, fmt.Errorf("android: marshal key request: %w", err)
	}
	return blob, nil
}

// ProvideKeyResponse feeds the license server's response back (Figure 1:
// provideKeyResponse) and returns the key IDs the CDM loaded, in the
// response's order, as Android reports a session's key statuses.
func (d *MediaDrm) ProvideKeyResponse(s oemcrypto.SessionID, blob []byte) ([][16]byte, error) {
	if err := d.checkSession(s); err != nil {
		return nil, err
	}
	d.flow(FlowEvent{From: "Application", To: "MediaDRM Server", Call: "provideKeyResponse()"})
	d.flow(FlowEvent{From: "MediaDRM Server", To: "CDM", Call: "provideKeyResponse()"})
	d.mu.Lock()
	signed := d.sessions[s].lastKeyRequest
	d.mu.Unlock()
	if signed == nil {
		return nil, fmt.Errorf("android: provideKeyResponse before getKeyRequest")
	}
	var resp cdm.LicenseResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		return nil, fmt.Errorf("android: key response: %w", err)
	}
	if err := d.client.ProcessLicenseResponse(s, signed, &resp); err != nil {
		return nil, err
	}
	kids := make([][16]byte, len(resp.Keys))
	for i, k := range resp.Keys {
		kids[i] = k.KID
	}
	return kids, nil
}

// CryptoSession mirrors MediaDrm.getCryptoSession: generic crypto over a
// DRM session, the non-DASH API apps use as a secure channel.
type CryptoSession struct {
	drm     *MediaDrm
	session oemcrypto.SessionID
}

// GetCryptoSession binds generic crypto to an open session.
func (d *MediaDrm) GetCryptoSession(s oemcrypto.SessionID) (*CryptoSession, error) {
	if err := d.checkSession(s); err != nil {
		return nil, err
	}
	return &CryptoSession{drm: d, session: s}, nil
}

// DeriveKeys primes the session's generic keys from a channel context.
func (cs *CryptoSession) DeriveKeys(context []byte) error {
	return cs.drm.client.Engine().GenerateDerivedKeys(cs.session, context)
}

// Encrypt seals data.
func (cs *CryptoSession) Encrypt(iv, data []byte) ([]byte, error) {
	return cs.drm.client.Engine().GenericEncrypt(cs.session, iv, data)
}

// Decrypt opens data.
func (cs *CryptoSession) Decrypt(iv, data []byte) ([]byte, error) {
	return cs.drm.client.Engine().GenericDecrypt(cs.session, iv, data)
}

// Sign MACs data.
func (cs *CryptoSession) Sign(data []byte) ([]byte, error) {
	return cs.drm.client.Engine().GenericSign(cs.session, data)
}

// Verify checks a server MAC.
func (cs *CryptoSession) Verify(data, signature []byte) error {
	return cs.drm.client.Engine().GenericVerify(cs.session, data, signature)
}

func (d *MediaDrm) checkSession(s oemcrypto.SessionID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.sessions[s]; !ok {
		return fmt.Errorf("%w: %d", ErrNoSession, s)
	}
	return nil
}

// MediaCrypto mirrors android.media.MediaCrypto: the decryption handle a
// MediaCodec is registered with. Apps never touch decrypted buffers — the
// design that, as the paper notes, defeats MovieStealer-style attacks.
type MediaCrypto struct {
	drm     *MediaDrm
	session oemcrypto.SessionID
}

// NewMediaCrypto binds a crypto object to an open DRM session.
func NewMediaCrypto(drm *MediaDrm, s oemcrypto.SessionID) (*MediaCrypto, error) {
	if err := drm.checkSession(s); err != nil {
		return nil, err
	}
	return &MediaCrypto{drm: drm, session: s}, nil
}

// MediaCodec mirrors android.media.MediaCodec with a registered
// MediaCrypto: queueSecureInputBuffer decrypts and "decodes" samples.
type MediaCodec struct {
	crypto *MediaCrypto
	flow   FlowRecorder

	mu     sync.Mutex
	frames [][]byte
	secure bool
	count  int
}

// NewMediaCodec builds a codec bound to a MediaCrypto.
func NewMediaCodec(crypto *MediaCrypto, flow FlowRecorder) *MediaCodec {
	if flow == nil {
		flow = func(FlowEvent) {}
	}
	return &MediaCodec{crypto: crypto, flow: flow}
}

// QueueSecureInputBuffer submits one encrypted sample for decryption and
// decode (Figure 1: queueSecureInputBuffer → Decrypt()).
func (c *MediaCodec) QueueSecureInputBuffer(kid [16]byte, scheme string, iv [8]byte, subsamples []mp4.SubsampleEntry, data []byte) error {
	c.flow(FlowEvent{From: "Application", To: "MediaDRM Server", Call: "queueSecureInputBuffer()"})
	c.flow(FlowEvent{From: "MediaDRM Server", To: "CDM", Call: "Decrypt()"})
	res, err := c.crypto.drm.client.Decrypt(c.crypto.session, kid, scheme, iv, subsamples, data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	c.secure = c.secure || res.Secure
	c.frames = append(c.frames, res.Data)
	return nil
}

// QueueClearBuffer submits an unencrypted sample (clear audio tracks take
// this path — no CDM involvement at all).
func (c *MediaCodec) QueueClearBuffer(data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.count++
	c.frames = append(c.frames, append([]byte(nil), data...))
}

// FrameCount reports how many samples were decoded.
func (c *MediaCodec) FrameCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Frames returns the decoded frames. For secure (L1) output it refuses —
// the app-visible behaviour of secure output buffers.
func (c *MediaCodec) Frames() ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.secure {
		return nil, ErrSecureOutput
	}
	out := make([][]byte, len(c.frames))
	for i, f := range c.frames {
		out[i] = append([]byte(nil), f...)
	}
	return out, nil
}
