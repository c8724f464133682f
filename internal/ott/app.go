package ott

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/android"
	"repro/internal/cdn"
	"repro/internal/dash"
	"repro/internal/device"
	"repro/internal/keybox"
	"repro/internal/manifest"
	"repro/internal/media"
	"repro/internal/mp4"
	"repro/internal/netsim"
	"repro/internal/oemcrypto"
	"repro/internal/procmem"
	"repro/internal/provision"
)

// embeddedSystemID marks app-embedded Widevine libraries' keyboxes.
const embeddedSystemID = 9999

// PlaybackReport is what one Play attempt yields — the observable facts the
// study correlates with monitor traces.
type PlaybackReport struct {
	App    string
	Device string
	// Level is the security level of the engine the app actually used.
	Level oemcrypto.SecurityLevel

	// UsedSystemCDM / UsedEmbeddedCDM report which Widevine library
	// handled the playback.
	UsedSystemCDM   bool
	UsedEmbeddedCDM bool

	ProvisionAttempted bool
	ProvisionDenied    bool
	ProvisionErr       string

	LicenseDenied bool
	LicenseErr    string

	// PlayedHeight is the resolution of the representation that played.
	PlayedHeight uint16
	// FramesDecoded counts decoded samples across video+audio.
	FramesDecoded int
	// SubtitleShown reports whether a subtitle file was fetched and read.
	SubtitleShown bool

	// Err records any other failure that stopped playback.
	Err string
	// TransportFailure marks Err as an exhausted-retries transport
	// failure (a host stayed unreachable through the whole retry budget)
	// rather than an app-level outcome — the study reports these as
	// annotated cells instead of misclassifying them.
	TransportFailure bool
}

// Played reports overall success.
func (r *PlaybackReport) Played() bool {
	return r.FramesDecoded > 0 && r.Err == "" && !r.ProvisionDenied && !r.LicenseDenied
}

// setErr records a failure, flagging transport exhaustion separately from
// app-level denials and decode errors.
func (r *PlaybackReport) setErr(err error) {
	r.Err = err.Error()
	if errors.Is(err, netsim.ErrRetriesExhausted) {
		r.TransportFailure = true
	}
}

// TransportErr returns a typed error when playback died on exhausted
// transport retries, nil otherwise. The full failure text stays in Err.
func (r *PlaybackReport) TransportErr() error {
	if !r.TransportFailure {
		return nil
	}
	return fmt.Errorf("ott: %s on %s: %w", r.App, r.Device, netsim.ErrRetriesExhausted)
}

// App is one installed OTT application on one device.
type App struct {
	profile Profile
	dev     *device.Device
	net     *netsim.Client
	rand    io.Reader

	// appSpace is the app's own process memory; anti-debugging keeps
	// monitors out of it (so Amazon's embedded CDM is unreachable).
	appSpace *procmem.Space

	mu       sync.Mutex
	embedded oemcrypto.Engine
	flowLog  []android.FlowEvent

	// License cache (CachesLicenses profiles): the first successful
	// playback keeps its MediaDrm and license session alive, and later
	// playbacks of the same title decrypt with the already-loaded keys —
	// no fresh license exchange, hence no LoadKeys on a monitored replay.
	licDrm     *android.MediaDrm
	licSession oemcrypto.SessionID
	licContent string
	licGranted map[[16]byte]bool
}

// Install puts the app on a device. For apps shipping an embedded Widevine
// library (Amazon), installation also mints and registers the embedded
// CDM's keybox.
func Install(profile Profile, dev *device.Device, network *netsim.Network, registry *provision.Registry, rand io.Reader) (*App, error) {
	a := &App{
		profile:  profile,
		dev:      dev,
		net:      netsim.NewClient(network),
		rand:     rand,
		appSpace: procmem.NewSpace("app:" + slug(profile.Name)),
	}
	// OTT apps deploy anti-debugging in their own process — the reason the
	// paper monitors the Widevine process instead.
	a.appSpace.SetProtected(true)
	a.net.Pin(profile.APIHost())
	a.net.Pin(profile.CDNHost())
	a.net.Pin(profile.LicenseHost())

	if profile.EmbeddedCDMOnL3 && dev.Level == oemcrypto.L3 {
		serial := dev.Serial + "-emb"
		if len(serial) > 32 {
			serial = serial[:32]
		}
		kb, err := keybox.New(serial, embeddedSystemID, rand)
		if err != nil {
			return nil, fmt.Errorf("ott: embedded keybox: %w", err)
		}
		store := device.NewStorage()
		if err := oemcrypto.InstallKeybox(store, kb.Marshal()); err != nil {
			return nil, err
		}
		engine, err := oemcrypto.NewSoftEngine(device.CurrentCDMVersion, a.appSpace, store, rand)
		if err != nil {
			return nil, fmt.Errorf("ott: embedded engine: %w", err)
		}
		registry.RegisterDevice(serial, kb.DeviceKey)
		a.embedded = engine
	}
	return a, nil
}

// Profile returns the app's profile.
func (a *App) Profile() Profile { return a.profile }

// Device returns the hosting device.
func (a *App) Device() *device.Device { return a.dev }

// NetworkClient exposes the app's network stack — the surface the monitor
// MITMs and re-pins.
func (a *App) NetworkClient() *netsim.Client { return a.net }

// ProcessSpace exposes the app's own process memory — what a
// MovieStealer-style attacker would try (and fail) to attach to.
func (a *App) ProcessSpace() *procmem.Space { return a.appSpace }

// DecompiledReferences returns the app's class/method reference listing as
// a decompiler would produce it — the input to the study's static scan
// (§IV-B). Every app references the DRM framework; ExoPlayer apps also
// pull in the library's DRM session classes; and, as real APKs do, the
// listing includes dead references that only dynamic monitoring can rule
// in or out.
func (a *App) DecompiledReferences() []string {
	refs := []string{
		"Landroid/media/MediaDrm;-><init>",
		"Landroid/media/MediaDrm;->openSession",
		"Landroid/media/MediaDrm;->getKeyRequest",
		"Landroid/media/MediaDrm;->provideKeyResponse",
		"Landroid/media/MediaDrm;->getProvisionRequest",
		"Landroid/media/MediaDrm;->provideProvisionResponse",
		"Landroid/media/MediaCrypto;-><init>",
		"Landroid/media/MediaCodec;->queueSecureInputBuffer",
		// Dead code: referenced but never called at run time.
		"Landroid/media/MediaDrm;->getMetrics",
		"L" + slug(a.profile.Name) + "/player/PlayerActivity;->onCreate",
	}
	if a.profile.UsesExoPlayer {
		refs = append(refs,
			"Lcom/google/android/exoplayer2/drm/DefaultDrmSessionManager;-><init>",
			"Lcom/google/android/exoplayer2/drm/FrameworkMediaDrm;->newInstance",
		)
	}
	if a.profile.EmbeddedCDMOnL3 {
		refs = append(refs, "L"+slug(a.profile.Name)+"/drm/EmbeddedWidevine;->load")
	}
	return refs
}

// FlowLog returns the recorded framework-level events (Figure 1).
func (a *App) FlowLog() []android.FlowEvent {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]android.FlowEvent, len(a.flowLog))
	copy(out, a.flowLog)
	return out
}

func (a *App) recordFlow(ev android.FlowEvent) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flowLog = append(a.flowLog, ev)
}

// chooseEngine picks the Widevine library for this playback: the system CDM
// normally, the app-embedded one on L3-only devices for Amazon-style apps.
func (a *App) chooseEngine() (engine oemcrypto.Engine, embedded bool) {
	if a.embedded != nil {
		return a.embedded, true
	}
	return a.dev.Engine, false
}

// Play streams one title end to end and reports what happened.
func (a *App) Play(contentID string) *PlaybackReport {
	return a.PlayCtx(context.Background(), contentID)
}

// PlayCtx is Play bounded by a context: cancellation or a deadline stops
// network exchanges (including their retry backoff) mid-stream.
func (a *App) PlayCtx(ctx context.Context, contentID string) *PlaybackReport {
	report := &PlaybackReport{App: a.profile.Name, Device: a.dev.Model}
	engine, embedded := a.chooseEngine()
	report.Level = engine.SecurityLevel()
	report.UsedSystemCDM = !embedded
	report.UsedEmbeddedCDM = embedded

	if a.profile.CachesLicenses {
		a.mu.Lock()
		cachedDrm, cachedSession, cachedGranted := a.licDrm, a.licSession, a.licGranted
		hit := cachedDrm != nil && a.licContent == contentID
		a.mu.Unlock()
		if hit {
			a.replayFromCache(ctx, contentID, cachedDrm, cachedSession, cachedGranted, report)
			return report
		}
	}

	drm, err := android.NewMediaDrm(android.WidevineUUID, engine, a.rand, a.recordFlow)
	if err != nil {
		report.setErr(err)
		return report
	}

	// Provisioning, when the device has no Device RSA key yet.
	if drm.NeedsProvisioning() {
		report.ProvisionAttempted = true
		if denied, err := a.provision(ctx, drm); denied {
			report.ProvisionDenied = true
			report.ProvisionErr = err.Error()
			return report
		} else if err != nil {
			report.setErr(err)
			return report
		}
	}

	raw, err := a.fetchManifest(ctx, drm, contentID)
	if err != nil {
		report.setErr(fmt.Errorf("fetch manifest: %w", err))
		return report
	}
	mpd, err := a.parseManifest(raw)
	if err != nil {
		report.setErr(fmt.Errorf("parse manifest: %w", err))
		return report
	}

	session, err := drm.OpenSession()
	if err != nil {
		report.setErr(err)
		return report
	}
	keepSession := false
	defer func() {
		if !keepSession {
			_ = drm.CloseSession(session)
		}
	}()
	granted, denied, err := a.acquireLicense(ctx, drm, session, contentID)
	if denied {
		report.LicenseDenied = true
		report.LicenseErr = err.Error()
		return report
	}
	if err != nil {
		report.setErr(err)
		return report
	}
	if a.profile.CachesLicenses {
		// Keep the licensed session alive (closing it would unload its
		// keys) and remember it for later playbacks of the same title.
		keepSession = true
		a.mu.Lock()
		a.licDrm, a.licSession, a.licContent, a.licGranted = drm, session, contentID, granted
		a.mu.Unlock()
	}

	crypto, err := android.NewMediaCrypto(drm, session)
	if err != nil {
		report.setErr(err)
		return report
	}
	codec := android.NewMediaCodec(crypto, a.recordFlow)

	if err := a.playVideo(ctx, mpd, codec, granted, report); err != nil {
		report.setErr(err)
		return report
	}
	if err := a.playAudio(ctx, mpd, codec, report); err != nil {
		report.setErr(err)
		return report
	}
	a.showSubtitles(ctx, mpd, report)
	report.FramesDecoded = codec.FrameCount()
	return report
}

// replayFromCache plays a title whose license session is still alive from
// an earlier playback: manifest and media are re-fetched, but the cached
// session's loaded keys decrypt everything — the license server is never
// contacted again.
func (a *App) replayFromCache(ctx context.Context, contentID string, drm *android.MediaDrm, session oemcrypto.SessionID, granted map[[16]byte]bool, report *PlaybackReport) {
	raw, err := a.fetchManifest(ctx, drm, contentID)
	if err != nil {
		report.setErr(fmt.Errorf("fetch manifest: %w", err))
		return
	}
	mpd, err := a.parseManifest(raw)
	if err != nil {
		report.setErr(fmt.Errorf("parse manifest: %w", err))
		return
	}
	crypto, err := android.NewMediaCrypto(drm, session)
	if err != nil {
		report.setErr(err)
		return
	}
	codec := android.NewMediaCodec(crypto, a.recordFlow)
	if err := a.playVideo(ctx, mpd, codec, granted, report); err != nil {
		report.setErr(err)
		return
	}
	if err := a.playAudio(ctx, mpd, codec, report); err != nil {
		report.setErr(err)
		return
	}
	a.showSubtitles(ctx, mpd, report)
	report.FramesDecoded = codec.FrameCount()
}

// provision runs the provisioning exchange against the app's backend.
// denied marks a backend refusal (the paper's revocation case); any other
// non-nil error is a mechanical failure.
func (a *App) provision(ctx context.Context, drm *android.MediaDrm) (denied bool, err error) {
	s, err := drm.OpenSession()
	if err != nil {
		return false, err
	}
	defer func() { _ = drm.CloseSession(s) }()
	blob, err := drm.GetProvisionRequest(s)
	if err != nil {
		return false, err
	}
	resp, err := a.net.DoCtx(ctx, netsim.Request{Host: a.profile.APIHost(), Path: PathProvision, Body: blob})
	if err != nil {
		return false, err
	}
	if resp.Status != 200 {
		return true, errors.New(decodeAPIError(resp))
	}
	if err := drm.ProvideProvisionResponse(s, resp.Body); err != nil {
		return false, err
	}
	return false, nil
}

// parseManifest decodes fetched manifest bytes through the profile's
// dialect into the canonical model every downstream playback step runs on.
func (a *App) parseManifest(raw []byte) (*dash.MPD, error) {
	d, err := manifest.ByName(a.profile.ManifestDialect)
	if err != nil {
		return nil, err
	}
	return d.Parse(raw)
}

// fetchManifest retrieves the manifest in the profile's dialect (the
// dialect extension rides the URL path; the bare path is canonical DASH),
// over the CDM secure channel when the app protects its URI links
// (Netflix).
func (a *App) fetchManifest(ctx context.Context, drm *android.MediaDrm, contentID string) ([]byte, error) {
	fetchID := manifest.PathFor(contentID, a.profile.ManifestDialect)
	if !a.profile.SecureManifestURIs {
		resp, err := a.net.DoCtx(ctx, netsim.Request{Host: a.profile.APIHost(), Path: PathManifest + fetchID})
		if err != nil {
			return nil, err
		}
		if resp.Status != 200 {
			return nil, fmt.Errorf("manifest: %s", decodeAPIError(resp))
		}
		return resp.Body, nil
	}

	// Netflix path: derive a channel from the keybox root, fetch the
	// sealed MPD and open it through the CDM's generic-decrypt API.
	s, err := drm.OpenSession()
	if err != nil {
		return nil, err
	}
	defer func() { _ = drm.CloseSession(s) }()
	cs, err := drm.GetCryptoSession(s)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, 8)
	if _, err := io.ReadFull(a.rand, nonce); err != nil {
		return nil, err
	}
	context := append([]byte("secure-manifest:"+contentID+":"), nonce...)
	if err := cs.DeriveKeys(context); err != nil {
		return nil, err
	}
	stableID, _, err := drm.Client().Engine().KeyboxInfo()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(SecureManifestRequest{StableID: stableID, Context: context})
	if err != nil {
		return nil, err
	}
	resp, err := a.net.DoCtx(ctx, netsim.Request{Host: a.profile.APIHost(), Path: PathSecureManifest + fetchID, Body: body})
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("secure manifest: %s", decodeAPIError(resp))
	}
	var smr SecureManifestResponse
	if err := json.Unmarshal(resp.Body, &smr); err != nil {
		return nil, fmt.Errorf("secure manifest body: %w", err)
	}
	return cs.Decrypt(smr.IV, smr.Sealed)
}

// acquireLicense runs the license exchange and returns the granted KIDs.
// denied marks a license-server refusal; any other non-nil error is a
// mechanical failure.
func (a *App) acquireLicense(ctx context.Context, drm *android.MediaDrm, session oemcrypto.SessionID, contentID string) (granted map[[16]byte]bool, denied bool, err error) {
	blob, err := drm.GetKeyRequest(session, contentID, nil)
	if err != nil {
		return nil, false, err
	}
	a.recordFlow(android.FlowEvent{From: "Application", To: "License Server", Call: "Get License"})
	resp, err := a.net.DoCtx(ctx, netsim.Request{Host: a.profile.LicenseHost(), Path: PathLicense, Body: blob})
	if err != nil {
		return nil, false, err
	}
	if resp.Status != 200 {
		return nil, true, errors.New(decodeAPIError(resp))
	}
	a.recordFlow(android.FlowEvent{From: "License Server", To: "Application", Call: "License"})
	kids, err := drm.ProvideKeyResponse(session, resp.Body)
	if err != nil {
		return nil, false, err
	}
	granted = make(map[[16]byte]bool, len(kids))
	for _, kid := range kids {
		granted[kid] = true
	}
	return granted, false, nil
}

// fetchObject downloads one CDN asset (Figure 1: Get Media / Media).
func (a *App) fetchObject(ctx context.Context, path string) ([]byte, error) {
	a.recordFlow(android.FlowEvent{From: "Application", To: "CDN", Call: "Get Media"})
	resp, err := a.net.DoCtx(ctx, netsim.Request{Host: a.profile.CDNHost(), Path: cdn.ObjectPrefix + path})
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("object %s: status %d", path, resp.Status)
	}
	return resp.Body, nil
}

// playVideo picks the best granted representation, downloads and decodes it.
func (a *App) playVideo(ctx context.Context, mpd *dash.MPD, codec *android.MediaCodec, granted map[[16]byte]bool, report *PlaybackReport) error {
	videoSet, err := mpd.FindAdaptationSet(dash.ContentVideo, "")
	if err != nil {
		return err
	}
	// Highest-first selection among representations whose key was granted.
	reps := append([]dash.Representation(nil), videoSet.Representations...)
	for i := 1; i < len(reps); i++ {
		for j := i; j > 0 && reps[j].Height > reps[j-1].Height; j-- {
			reps[j], reps[j-1] = reps[j-1], reps[j]
		}
	}
	for _, rep := range reps {
		init, kid, scheme, err := a.fetchInit(ctx, &rep)
		if err != nil {
			return err
		}
		if init.Track.Protection != nil && !granted[kid] {
			continue // key withheld (e.g. HD on an L3 device)
		}
		if err := a.playRepresentation(ctx, &rep, init, kid, scheme, codec); err != nil {
			return err
		}
		report.PlayedHeight = rep.Height
		return nil
	}
	return fmt.Errorf("no playable video representation granted")
}

// playAudio plays the default-language audio representation.
func (a *App) playAudio(ctx context.Context, mpd *dash.MPD, codec *android.MediaCodec, report *PlaybackReport) error {
	audioSet, err := mpd.FindAdaptationSet(dash.ContentAudio, "en")
	if err != nil {
		return err
	}
	rep := audioSet.Representations[0]
	init, kid, scheme, err := a.fetchInit(ctx, &rep)
	if err != nil {
		return err
	}
	return a.playRepresentation(ctx, &rep, init, kid, scheme, codec)
}

// fetchInit downloads a representation's init segment and extracts its
// protection parameters. Apps learn the KID from the init segment's tenc
// box (not the MPD), so manifests with stripped key-ID metadata still play.
func (a *App) fetchInit(ctx context.Context, rep *dash.Representation) (*mp4.InitSegment, [16]byte, string, error) {
	var kid [16]byte
	list := rep.Segments()
	if list == nil || list.Initialization == nil {
		return nil, kid, "", fmt.Errorf("representation %s has no init segment", rep.ID)
	}
	raw, err := a.fetchObject(ctx, rep.BaseURL+list.Initialization.SourceURL)
	if err != nil {
		return nil, kid, "", err
	}
	init, err := mp4.ParseInitSegment(raw)
	if err != nil {
		return nil, kid, "", err
	}
	scheme := mp4.SchemeCENC
	if init.Track.Protection != nil {
		kid = init.Track.Protection.DefaultKID
		scheme = init.Track.Protection.Scheme
	}
	return init, kid, scheme, nil
}

// playRepresentation downloads and decodes every media segment of one
// representation.
func (a *App) playRepresentation(ctx context.Context, rep *dash.Representation, init *mp4.InitSegment, kid [16]byte, scheme string, codec *android.MediaCodec) error {
	for _, su := range rep.Segments().SegmentURLs {
		raw, err := a.fetchObject(ctx, rep.BaseURL+su.SourceURL)
		if err != nil {
			return err
		}
		seg, err := mp4.ParseMediaSegment(raw)
		if err != nil {
			return err
		}
		if seg.Encryption == nil {
			for _, sample := range seg.SampleData {
				codec.QueueClearBuffer(sample)
			}
			continue
		}
		if init.Track.Protection == nil {
			return fmt.Errorf("encrypted segment under clear init for %s", rep.ID)
		}
		for i, sample := range seg.SampleData {
			entry := seg.Encryption.Entries[i]
			if err := codec.QueueSecureInputBuffer(kid, scheme, entry.IV, entry.Subsamples, sample); err != nil {
				return fmt.Errorf("decode %s sample %d: %w", rep.ID, i, err)
			}
		}
	}
	return nil
}

// showSubtitles fetches and renders the default-language subtitle, when the
// manifest offers one.
func (a *App) showSubtitles(ctx context.Context, mpd *dash.MPD, report *PlaybackReport) {
	subSet, err := mpd.FindAdaptationSet(dash.ContentSubtitle, "en")
	if err != nil {
		return // regionally unavailable — playback proceeds without subs
	}
	rep := subSet.Representations[0]
	list := rep.Segments()
	if list == nil || len(list.SegmentURLs) == 0 {
		return
	}
	raw, err := a.fetchObject(ctx, rep.BaseURL+list.SegmentURLs[0].SourceURL)
	if err != nil {
		return
	}
	report.SubtitleShown = media.SubtitleReadable(raw)
}
