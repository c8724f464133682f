package ott

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/wvcrypto"
)

// FuzzBackend drives one deployment's license and provisioning handlers
// with arbitrary bodies — the surface a forged request (E7) reaches
// first. Nothing may panic, and every answer is one the API defines:
// 200, or a 400/403/404 JSON error; never a 500.
func FuzzBackend(f *testing.F) {
	w := newTestWorld(f, profileByName(f, "Showtime"))
	license, provision := captureBackendRequests(f, w)
	f.Add(true, license)
	f.Add(false, provision)
	for _, body := range []string{"", "{}", "null", `{"request":"AAAA"}`} {
		f.Add(true, []byte(body))
		f.Add(false, []byte(body))
	}
	handleLicense := w.dep.licenseHandler()
	f.Fuzz(func(t *testing.T, isLicense bool, body []byte) {
		var resp netsim.Response
		var err error
		if isLicense {
			resp, err = handleLicense(netsim.Request{Host: w.dep.Profile.LicenseHost(), Path: PathLicense, Body: body})
		} else {
			resp, err = w.dep.handleProvision(netsim.Request{Host: w.dep.Profile.APIHost(), Path: PathProvision, Body: body})
		}
		if err != nil {
			t.Fatalf("handler error: %v", err)
		}
		switch resp.Status {
		case 200, 400, 403, 404:
		default:
			t.Fatalf("status %d (body %q), want 200/400/403/404", resp.Status, resp.Body)
		}
	})
}

// captureBackendRequests plays one title on a fresh L3 device and
// returns the first license and provisioning request bodies the app
// sent, recorded on the way into the deployment's handlers.
func captureBackendRequests(tb testing.TB, w *testWorld) (license, provision []byte) {
	tb.Helper()
	licenseHandler, apiHandler := w.dep.licenseHandler(), w.dep.apiHandler()
	w.network.RegisterHost(w.dep.Profile.LicenseHost(), func(req netsim.Request) (netsim.Response, error) {
		if license == nil {
			license = append([]byte(nil), req.Body...)
		}
		return licenseHandler(req)
	})
	w.network.RegisterHost(w.dep.Profile.APIHost(), func(req netsim.Request) (netsim.Response, error) {
		if provision == nil && req.Path == PathProvision {
			provision = append([]byte(nil), req.Body...)
		}
		return apiHandler(req)
	})
	dev, err := w.factory.MakeNexus5("NEXUS5-FUZZ")
	if err != nil {
		tb.Fatal(err)
	}
	app, err := Install(w.dep.Profile, dev, w.network, w.registry, wvcrypto.NewDeterministicReader("app-fuzz"))
	if err != nil {
		tb.Fatal(err)
	}
	if report := app.Play("movie-1"); !report.Played() {
		tb.Fatalf("capture playback failed: %+v", report)
	}
	if license == nil || provision == nil {
		tb.Fatalf("captured license %d bytes, provisioning %d bytes; want both", len(license), len(provision))
	}
	return license, provision
}
