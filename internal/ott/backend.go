package ott

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/cdm"
	"repro/internal/cdn"
	"repro/internal/dash"
	"repro/internal/license"
	"repro/internal/manifest"
	"repro/internal/netsim"
	"repro/internal/provision"
	"repro/internal/wvcrypto"
)

// API endpoint paths on an app's backend host.
const (
	PathProvision      = "/provision"
	PathManifest       = "/manifest/"
	PathSecureManifest = "/manifest-secure/"
	PathLicense        = "/license"
)

// L3ResolutionCap is the tallest resolution every deployment grants L3
// clients (sub-HD only, as the paper observes: qHD 960x540).
const L3ResolutionCap = 540

// Deployment is one OTT app's complete backend: packaged catalog, CDN,
// license server, provisioning endpoint and manifest API, all registered on
// the simulated network.
type Deployment struct {
	Profile    Profile
	ContentIDs []string

	cdnSrv     *cdn.Server
	licenseSrv *license.Server
	provSrv    *provision.Server
	keyDB      *license.KeyDB
	registry   *provision.Registry
	rand       io.Reader
}

// SecureManifestRequest is the body of a secure-channel manifest fetch
// (Netflix's non-DASH protection of URI links).
type SecureManifestRequest struct {
	StableID string `json:"stableId"`
	Context  []byte `json:"context"`
}

// SecureManifestResponse carries the sealed MPD.
type SecureManifestResponse struct {
	IV     []byte `json:"iv"`
	Sealed []byte `json:"sealed"`
}

// apiError is the JSON error body backends return with non-200 statuses.
type apiError struct {
	Error string `json:"error"`
}

// NewDeployment deploys the app's catalog packaged under its key policy
// (by the process-wide title store when rand is a fresh deterministic
// stream, see deployTitles), builds its servers and registers its hosts
// on the network.
func NewDeployment(profile Profile, contentIDs []string, registry *provision.Registry, network *netsim.Network, rand io.Reader) (*Deployment, error) {
	titles, err := deployTitles(profile, contentIDs, rand)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		Profile:    profile,
		ContentIDs: append([]string(nil), contentIDs...),
		cdnSrv:     cdn.NewCatalogServer(profile.CDNHost(), titles.catalog),
		keyDB:      license.NewKeyDB(),
		registry:   registry,
		rand:       rand,
	}
	for i, contentID := range contentIDs {
		d.keyDB.Register(contentID, titles.keys[i])
	}

	d.licenseSrv = license.NewServer(d.keyDB, registry, license.Policy{
		MinCDMVersion: profile.LicenseMinCDM,
		L3MaxHeight:   L3ResolutionCap,
	}, rand)
	d.provSrv = provision.NewServer(registry, provision.Policy{
		MinCDMVersion: profile.ProvisionMinCDM,
	}, rand)

	network.RegisterHost(profile.CDNHost(), d.cdnSrv.Handler())
	network.RegisterHost(profile.LicenseHost(), d.licenseHandler())
	network.RegisterHost(profile.APIHost(), d.apiHandler())
	return d, nil
}

// KeyDB exposes the deployment's content keys (the attack verification and
// tests compare recovered keys against it).
func (d *Deployment) KeyDB() *license.KeyDB { return d.keyDB }

// CDN exposes the deployment's CDN server.
func (d *Deployment) CDN() *cdn.Server { return d.cdnSrv }

// applyRegionalRestrictions mutates the manifest the way the authors' test
// region saw it: missing subtitle sets and/or stripped key-ID metadata.
func applyRegionalRestrictions(profile Profile, m *dash.MPD) {
	for pi := range m.Periods {
		p := &m.Periods[pi]
		if profile.SubtitleUnavailable {
			kept := p.AdaptationSets[:0]
			for _, set := range p.AdaptationSets {
				if set.ContentType != dash.ContentSubtitle {
					kept = append(kept, set)
				}
			}
			p.AdaptationSets = kept
		}
		if profile.HideKeyIDs {
			for ai := range p.AdaptationSets {
				set := &p.AdaptationSets[ai]
				for ci := range set.ContentProtections {
					set.ContentProtections[ci].DefaultKID = ""
				}
				for ri := range set.Representations {
					for ci := range set.Representations[ri].ContentProtections {
						set.Representations[ri].ContentProtections[ci].DefaultKID = ""
					}
				}
			}
		}
	}
}

// licenseHandler serves the license endpoint.
func (d *Deployment) licenseHandler() netsim.Handler {
	return func(req netsim.Request) (netsim.Response, error) {
		if req.Path != PathLicense {
			return jsonError(404, "no such endpoint")
		}
		var signed cdm.SignedLicenseRequest
		if err := json.Unmarshal(req.Body, &signed); err != nil {
			return jsonError(400, "malformed license request")
		}
		resp, err := d.licenseSrv.HandleRequest(&signed)
		if err != nil {
			return jsonError(403, err.Error())
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return jsonError(500, "marshal license response")
		}
		return netsim.Response{Status: 200, Body: body}, nil
	}
}

// apiHandler serves provisioning and manifest endpoints.
func (d *Deployment) apiHandler() netsim.Handler {
	return func(req netsim.Request) (netsim.Response, error) {
		switch {
		case req.Path == PathProvision:
			return d.handleProvision(req)
		case strings.HasPrefix(req.Path, PathSecureManifest):
			return d.handleSecureManifest(req)
		case strings.HasPrefix(req.Path, PathManifest):
			if d.Profile.SecureManifestURIs {
				// Netflix-style: the plain manifest endpoint does not exist.
				return jsonError(404, "manifest requires secure channel")
			}
			id, dialectName := manifest.SplitExtension(strings.TrimPrefix(req.Path, PathManifest))
			if m, err := d.cdnSrv.ManifestDialect(id, dialectName); err == nil {
				return netsim.Response{Status: 200, Body: m}, nil
			}
			return jsonError(404, "unknown content")
		default:
			return jsonError(404, "no such endpoint")
		}
	}
}

func (d *Deployment) handleProvision(req netsim.Request) (netsim.Response, error) {
	provReq, err := cdm.ParseProvisioningRequest(req.Body)
	if err != nil {
		return jsonError(400, "malformed provisioning request")
	}
	resp, err := d.provSrv.Provision(provReq)
	if err != nil {
		return jsonError(403, err.Error())
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return jsonError(500, "marshal provisioning response")
	}
	return netsim.Response{Status: 200, Body: body}, nil
}

// handleSecureManifest seals the MPD under keys derived from the device's
// keybox root — the server half of the CDM secure channel. (Substitution
// note: the real Netflix channel is keyed through the Widevine license
// exchange; here the backend derives from the provisioning registry's
// device key, preserving the property that only the device's CDM can open
// the manifest.)
func (d *Deployment) handleSecureManifest(req netsim.Request) (netsim.Response, error) {
	if !d.Profile.SecureManifestURIs {
		return jsonError(404, "no such endpoint")
	}
	id, dialectName := manifest.SplitExtension(strings.TrimPrefix(req.Path, PathSecureManifest))
	raw, err := d.cdnSrv.ManifestDialect(id, dialectName)
	if err != nil {
		return jsonError(404, "unknown content")
	}
	var smr SecureManifestRequest
	if err := json.Unmarshal(req.Body, &smr); err != nil {
		return jsonError(400, "malformed secure manifest request")
	}
	deviceKey, ok := d.registry.DeviceKey(smr.StableID)
	if !ok {
		return jsonError(403, "unknown device")
	}
	keys, err := wvcrypto.DeriveSessionKeys(deviceKey[:], smr.Context)
	if err != nil {
		return jsonError(500, "derive channel keys")
	}
	iv := make([]byte, 16)
	if _, err := io.ReadFull(d.rand, iv); err != nil {
		return jsonError(500, "channel iv")
	}
	sealed, err := wvcrypto.EncryptCBC(keys.Enc, iv, raw)
	if err != nil {
		return jsonError(500, "seal manifest")
	}
	body, err := json.Marshal(SecureManifestResponse{IV: iv, Sealed: sealed})
	if err != nil {
		return jsonError(500, "marshal secure manifest")
	}
	return netsim.Response{Status: 200, Body: body}, nil
}

func jsonError(status int, msg string) (netsim.Response, error) {
	body, err := json.Marshal(apiError{Error: msg})
	if err != nil {
		return netsim.Response{Status: 500}, nil
	}
	return netsim.Response{Status: status, Body: body}, nil
}

// decodeAPIError extracts the error message of a non-200 response.
func decodeAPIError(resp netsim.Response) string {
	var e apiError
	if err := json.Unmarshal(resp.Body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("status %d", resp.Status)
}
