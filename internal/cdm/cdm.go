// Package cdm implements the Widevine CDM protocol layer that sits between
// the Android DRM framework and OEMCrypto: the provisioning and license
// message formats, their canonical serialization, and the client-side
// orchestration of the key ladder (which OEMCrypto call to make with which
// part of which message). This corresponds to the protocol logic inside
// libwvdrmengine.so that the paper reverse-engineered.
//
// Messages are JSON-serialized; the canonical bytes double as the key
// derivation context on both ends, binding derived keys to the exact
// request they answer.
package cdm

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/mp4"
	"repro/internal/oemcrypto"
)

// nonceSize is the anti-replay nonce length in request messages.
const nonceSize = 16

// ProvisioningRequest asks the provisioning server for a Device RSA key.
type ProvisioningRequest struct {
	StableID   string `json:"stableId"`
	SystemID   uint32 `json:"systemId"`
	CDMVersion string `json:"cdmVersion"`
	Level      string `json:"securityLevel"`
	Nonce      []byte `json:"nonce"`
}

// Canonical returns the serialized request — the derivation context for the
// provisioning ladder step on both client and server.
func (r *ProvisioningRequest) Canonical() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("cdm: canonicalize provisioning request: %w", err)
	}
	return b, nil
}

// ParseProvisioningRequest decodes canonical request bytes.
func ParseProvisioningRequest(b []byte) (*ProvisioningRequest, error) {
	var r ProvisioningRequest
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("cdm: parse provisioning request: %w", err)
	}
	return &r, nil
}

// ProvisioningResponse installs a Device RSA key on the client.
type ProvisioningResponse struct {
	// Message is the canonical response body covered by MAC.
	Message []byte `json:"message"`
	// MAC is HMAC-SHA256 under the keybox-derived server MAC key.
	MAC []byte `json:"mac"`
	// WrappedRSAKey is the PKCS#1 Device RSA key, AES-CBC under the
	// keybox-derived encryption key.
	WrappedRSAKey []byte `json:"wrappedRsaKey"`
	IV            []byte `json:"iv"`
}

// LicenseRequest asks a license server for the content keys of one asset.
type LicenseRequest struct {
	StableID   string     `json:"stableId"`
	SystemID   uint32     `json:"systemId"`
	CDMVersion string     `json:"cdmVersion"`
	Level      string     `json:"securityLevel"`
	ContentID  string     `json:"contentId"`
	KIDs       [][16]byte `json:"kids"`
	Nonce      []byte     `json:"nonce"`
}

// Canonical returns the serialized request — both the PSS-signed bytes and
// the session-key derivation context.
func (r *LicenseRequest) Canonical() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("cdm: canonicalize license request: %w", err)
	}
	return b, nil
}

// ParseLicenseRequest decodes canonical request bytes.
func ParseLicenseRequest(b []byte) (*LicenseRequest, error) {
	var r LicenseRequest
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("cdm: parse license request: %w", err)
	}
	return &r, nil
}

// SignedLicenseRequest is the opaque request of Figure 1: canonical body
// plus the Device RSA (PSS) signature.
type SignedLicenseRequest struct {
	Body      []byte `json:"body"`
	Signature []byte `json:"signature"`
}

// LicenseResponse returns wrapped content keys to the client.
type LicenseResponse struct {
	// EncSessionKey is the RSA-OAEP-wrapped session key.
	EncSessionKey []byte `json:"encSessionKey"`
	// Message is the canonical response body covered by MAC.
	Message []byte `json:"message"`
	// MAC is HMAC-SHA256 under the derived server MAC key.
	MAC []byte `json:"mac"`
	// Keys are the wrapped content keys.
	Keys []oemcrypto.EncryptedKey `json:"keys"`
}

// Client drives one device's CDM: it owns the engine handle and translates
// protocol messages into OEMCrypto calls.
type Client struct {
	engine oemcrypto.Engine
	rand   io.Reader
}

// NewClient wraps an OEMCrypto engine.
func NewClient(engine oemcrypto.Engine, rand io.Reader) *Client {
	return &Client{engine: engine, rand: rand}
}

// Engine exposes the underlying engine (the DRM framework needs its
// security level and the monitor needs its tracer hook).
func (c *Client) Engine() oemcrypto.Engine { return c.engine }

// Provisioned reports whether the device holds a Device RSA key.
func (c *Client) Provisioned() bool { return c.engine.Provisioned() }

// OpenSession opens an OEMCrypto session.
func (c *Client) OpenSession() (oemcrypto.SessionID, error) {
	return c.engine.OpenSession()
}

// CloseSession closes an OEMCrypto session.
func (c *Client) CloseSession(s oemcrypto.SessionID) error {
	return c.engine.CloseSession(s)
}

// CreateProvisioningRequest builds a provisioning request and primes the
// session's derived keys with its canonical bytes.
func (c *Client) CreateProvisioningRequest(s oemcrypto.SessionID) (*ProvisioningRequest, error) {
	stableID, systemID, err := c.engine.KeyboxInfo()
	if err != nil {
		return nil, fmt.Errorf("cdm: provisioning request: %w", err)
	}
	nonce := make([]byte, nonceSize)
	if _, err := io.ReadFull(c.rand, nonce); err != nil {
		return nil, fmt.Errorf("cdm: provisioning nonce: %w", err)
	}
	req := &ProvisioningRequest{
		StableID:   stableID,
		SystemID:   systemID,
		CDMVersion: c.engine.Version(),
		Level:      c.engine.SecurityLevel().String(),
		Nonce:      nonce,
	}
	context, err := req.Canonical()
	if err != nil {
		return nil, err
	}
	if err := c.engine.GenerateDerivedKeys(s, context); err != nil {
		return nil, fmt.Errorf("cdm: derive provisioning keys: %w", err)
	}
	return req, nil
}

// ProcessProvisioningResponse installs the returned Device RSA key.
func (c *Client) ProcessProvisioningResponse(s oemcrypto.SessionID, resp *ProvisioningResponse) error {
	if err := c.engine.RewrapDeviceRSAKey(s, resp.Message, resp.MAC, resp.WrappedRSAKey, resp.IV); err != nil {
		return fmt.Errorf("cdm: process provisioning response: %w", err)
	}
	return nil
}

// CreateLicenseRequest builds and PSS-signs a license request for the given
// content and key IDs.
func (c *Client) CreateLicenseRequest(s oemcrypto.SessionID, contentID string, kids [][16]byte) (*SignedLicenseRequest, error) {
	stableID, systemID, err := c.engine.KeyboxInfo()
	if err != nil {
		return nil, fmt.Errorf("cdm: license request: %w", err)
	}
	nonce := make([]byte, nonceSize)
	if _, err := io.ReadFull(c.rand, nonce); err != nil {
		return nil, fmt.Errorf("cdm: license nonce: %w", err)
	}
	req := &LicenseRequest{
		StableID:   stableID,
		SystemID:   systemID,
		CDMVersion: c.engine.Version(),
		Level:      c.engine.SecurityLevel().String(),
		ContentID:  contentID,
		KIDs:       kids,
		Nonce:      nonce,
	}
	body, err := req.Canonical()
	if err != nil {
		return nil, err
	}
	sig, err := c.engine.GenerateRSASignature(s, body)
	if err != nil {
		return nil, fmt.Errorf("cdm: sign license request: %w", err)
	}
	return &SignedLicenseRequest{Body: body, Signature: sig}, nil
}

// ProcessLicenseResponse derives session keys from the response and loads
// the content keys into the session. request must be the SignedLicenseRequest
// the response answers.
func (c *Client) ProcessLicenseResponse(s oemcrypto.SessionID, request *SignedLicenseRequest, resp *LicenseResponse) error {
	if err := c.engine.DeriveKeysFromSessionKey(s, resp.EncSessionKey, request.Body); err != nil {
		return fmt.Errorf("cdm: derive license keys: %w", err)
	}
	if err := c.engine.LoadKeys(s, resp.Message, resp.MAC, resp.Keys); err != nil {
		return fmt.Errorf("cdm: load keys: %w", err)
	}
	return nil
}

// Decrypt selects kid and decrypts one sample.
func (c *Client) Decrypt(s oemcrypto.SessionID, kid [16]byte, scheme string, iv [8]byte, subsamples []mp4.SubsampleEntry, data []byte) (oemcrypto.DecryptResult, error) {
	if err := c.engine.SelectKey(s, kid); err != nil {
		return oemcrypto.DecryptResult{}, err
	}
	return c.engine.DecryptCENC(s, scheme, iv, subsamples, data)
}
