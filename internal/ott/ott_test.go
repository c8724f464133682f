package ott

import (
	"testing"

	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/oemcrypto"
	"repro/internal/provision"
	"repro/internal/wvcrypto"
)

// testWorld assembles the shared infrastructure plus one deployment.
type testWorld struct {
	network  *netsim.Network
	registry *provision.Registry
	factory  *device.Factory
	dep      *Deployment
}

func newTestWorld(t testing.TB, profile Profile) *testWorld {
	t.Helper()
	rand := wvcrypto.NewDeterministicReader("ott-test-" + profile.Name)
	network := netsim.NewNetwork()
	registry := provision.NewRegistry()
	dep, err := NewDeployment(profile, []string{"movie-1"}, registry, network, rand)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{
		network:  network,
		registry: registry,
		factory:  device.NewFactory(registry, rand),
		dep:      dep,
	}
}

func profileByName(t testing.TB, name string) Profile {
	t.Helper()
	for _, p := range Profiles() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no profile %q", name)
	return Profile{}
}

func (w *testWorld) install(t *testing.T, dev *device.Device) *App {
	t.Helper()
	app, err := Install(w.dep.Profile, dev, w.network, w.registry,
		wvcrypto.NewDeterministicReader("app-"+w.dep.Profile.Name+dev.Serial))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestProfiles_TenApps(t *testing.T) {
	ps := Profiles()
	if len(ps) != 10 {
		t.Fatalf("got %d profiles, want 10", len(ps))
	}
	seen := make(map[string]bool)
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.APIHost() == "" || p.CDNHost() == "" || p.LicenseHost() == "" {
			t.Errorf("%s: empty host", p.Name)
		}
	}
	for _, name := range []string{"Netflix", "Disney+", "Amazon Prime Video", "Hulu",
		"HBO Max", "Starz", "myCANAL", "Showtime", "OCS", "Salto"} {
		if !seen[name] {
			t.Errorf("missing profile %q", name)
		}
	}
}

func TestSlug(t *testing.T) {
	cases := map[string]string{
		"Netflix":            "netflix",
		"Disney+":            "disney",
		"Amazon Prime Video": "amazonprimevideo",
		"HBO Max":            "hbomax",
	}
	for in, want := range cases {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPlayback_ModernL1Device(t *testing.T) {
	for _, name := range []string{"Netflix", "Disney+", "Amazon Prime Video", "Showtime"} {
		t.Run(name, func(t *testing.T) {
			w := newTestWorld(t, profileByName(t, name))
			dev, err := w.factory.MakePixel("PIXEL-" + name)
			if err != nil {
				t.Fatal(err)
			}
			app := w.install(t, dev)
			report := app.Play("movie-1")
			if !report.Played() {
				t.Fatalf("playback failed: %+v", report)
			}
			if report.Level != oemcrypto.L1 {
				t.Errorf("level = %v, want L1", report.Level)
			}
			if !report.UsedSystemCDM || report.UsedEmbeddedCDM {
				t.Error("L1 playback should use the system CDM")
			}
			if report.PlayedHeight != 1080 {
				t.Errorf("played height = %d, want 1080 on L1", report.PlayedHeight)
			}
			if !report.ProvisionAttempted {
				t.Error("fresh device should provision")
			}
		})
	}
}

func TestPlayback_Nexus5_PermissiveApps(t *testing.T) {
	for _, name := range []string{"Netflix", "myCANAL", "Showtime", "OCS", "Salto", "Hulu"} {
		t.Run(name, func(t *testing.T) {
			w := newTestWorld(t, profileByName(t, name))
			dev, err := w.factory.MakeNexus5("NEXUS5-" + name)
			if err != nil {
				t.Fatal(err)
			}
			app := w.install(t, dev)
			report := app.Play("movie-1")
			if !report.Played() {
				t.Fatalf("playback failed: %+v", report)
			}
			if report.Level != oemcrypto.L3 {
				t.Errorf("level = %v, want L3", report.Level)
			}
			if report.PlayedHeight != 540 {
				t.Errorf("played height = %d, want 540 (L3 cap)", report.PlayedHeight)
			}
		})
	}
}

func TestPlayback_Nexus5_RevokingApps(t *testing.T) {
	for _, name := range []string{"Disney+", "HBO Max", "Starz"} {
		t.Run(name, func(t *testing.T) {
			w := newTestWorld(t, profileByName(t, name))
			dev, err := w.factory.MakeNexus5("NEXUS5-" + name)
			if err != nil {
				t.Fatal(err)
			}
			app := w.install(t, dev)
			report := app.Play("movie-1")
			if report.Played() {
				t.Fatal("revoking app played on Nexus 5")
			}
			if !report.ProvisionDenied {
				t.Errorf("want provisioning denial, got %+v", report)
			}
		})
	}
}

func TestPlayback_Nexus5_AmazonEmbeddedCDM(t *testing.T) {
	w := newTestWorld(t, profileByName(t, "Amazon Prime Video"))
	dev, err := w.factory.MakeNexus5("NEXUS5-AMZ")
	if err != nil {
		t.Fatal(err)
	}
	app := w.install(t, dev)

	// Hook the SYSTEM engine: Amazon's playback must never touch it.
	var systemCalls int
	dev.Engine.SetTracer(func(oemcrypto.CallEvent) { systemCalls++ })

	report := app.Play("movie-1")
	if !report.Played() {
		t.Fatalf("playback failed: %+v", report)
	}
	if !report.UsedEmbeddedCDM || report.UsedSystemCDM {
		t.Errorf("want embedded CDM on L3-only device: %+v", report)
	}
	if systemCalls != 0 {
		t.Errorf("system CDM saw %d calls during embedded playback", systemCalls)
	}
	if report.PlayedHeight != 540 {
		t.Errorf("played height = %d", report.PlayedHeight)
	}
}

func TestPlayback_SubtitleVisibility(t *testing.T) {
	cases := map[string]bool{
		"Showtime": true,  // subtitles served
		"Hulu":     false, // regionally unavailable
		"Starz":    false,
	}
	for name, wantSubs := range cases {
		t.Run(name, func(t *testing.T) {
			w := newTestWorld(t, profileByName(t, name))
			dev, err := w.factory.MakePixel("PX-" + name)
			if err != nil {
				t.Fatal(err)
			}
			app := w.install(t, dev)
			report := app.Play("movie-1")
			if name == "Starz" {
				// Starz revokes nothing on a modern device; should play.
				if !report.Played() {
					t.Fatalf("playback failed: %+v", report)
				}
			}
			if report.SubtitleShown != wantSubs {
				t.Errorf("SubtitleShown = %v, want %v (%+v)", report.SubtitleShown, wantSubs, report)
			}
		})
	}
}

func TestPlayback_FlowEventsMatchFigure1(t *testing.T) {
	w := newTestWorld(t, profileByName(t, "Showtime"))
	dev, err := w.factory.MakePixel("PX-FLOW")
	if err != nil {
		t.Fatal(err)
	}
	app := w.install(t, dev)
	if r := app.Play("movie-1"); !r.Played() {
		t.Fatalf("playback failed: %+v", r)
	}
	var calls []string
	for _, ev := range app.FlowLog() {
		calls = append(calls, ev.Call)
	}
	// The Figure 1 ordering: session open precedes key request, which
	// precedes key response, which precedes decryption.
	idx := func(name string) int {
		for i, c := range calls {
			if c == name {
				return i
			}
		}
		return -1
	}
	order := []string{"MediaDRM(UUID)", "openSession()", "getKeyRequest()", "Get License", "License", "provideKeyResponse()", "Get Media", "queueSecureInputBuffer()", "Decrypt()"}
	prev := -1
	for _, step := range order {
		i := idx(step)
		if i < 0 {
			t.Fatalf("flow missing step %q in %v", step, calls)
		}
		if i < prev {
			t.Errorf("step %q out of order", step)
		}
		prev = i
	}
}

func TestPlayback_UnknownContent(t *testing.T) {
	w := newTestWorld(t, profileByName(t, "Showtime"))
	dev, err := w.factory.MakePixel("PX-UC")
	if err != nil {
		t.Fatal(err)
	}
	app := w.install(t, dev)
	report := app.Play("no-such-movie")
	if report.Played() {
		t.Fatal("unknown content played")
	}
}

func TestDeployment_HideKeyIDsStripsMPDOnly(t *testing.T) {
	w := newTestWorld(t, profileByName(t, "Hulu"))
	manifest, ok := w.dep.CDN().Manifest("movie-1")
	if !ok {
		t.Fatal("missing manifest")
	}
	if containsKID(t, manifest) {
		t.Error("Hulu manifest still carries default_KID")
	}
	// Non-hiding app keeps KIDs.
	w2 := newTestWorld(t, profileByName(t, "Showtime"))
	manifest2, _ := w2.dep.CDN().Manifest("movie-1")
	if !containsKID(t, manifest2) {
		t.Error("Showtime manifest lost default_KID")
	}
}

func containsKID(t *testing.T, manifest []byte) bool {
	t.Helper()
	return len(manifest) > 0 && (stringContains(string(manifest), "default_KID=\"") &&
		!stringContains(string(manifest), "default_KID=\"\""))
}

func stringContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
