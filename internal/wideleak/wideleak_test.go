package wideleak

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ott"
	"repro/internal/wvcrypto"
)

// The full study is expensive (ten deployments, ~30 provisioned devices),
// so tests share one world+study.
var (
	studyOnce sync.Once
	study     *Study
	studyErr  error
)

func sharedStudy(t testing.TB) *Study {
	t.Helper()
	studyOnce.Do(func() {
		w, err := NewWorld("test", nil)
		if err != nil {
			studyErr = err
			return
		}
		study = NewStudy(w)
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study
}

// TestTableI is the headline reproduction: the observationally derived
// table must match the paper's Table I cell for cell.
func TestTableI(t *testing.T) {
	s := sharedStudy(t)
	table, err := s.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := table.Diff(PaperTable()); len(diffs) != 0 {
		t.Errorf("reproduced table differs from the paper's:\n%s\n\nrendered:\n%s",
			strings.Join(diffs, "\n"), table.Render())
	}
}

// privateKeyBudget is the number of Device RSA private-key operations
// each app's row makes in a default sequential Table I pass, first on a
// new world and then again once its observations are reset. Every
// license exchange costs one wvcrypto.SignPSS (the request signature)
// and one wvcrypto.DecryptOAEP (the session-key unwrap), embedded-CDM
// plays included, so the two counts are equal. Disney+ and Amazon Prime
// Video cache their first license session (ott.Profile.CachesLicenses),
// so their rows make no exchange on a world's later passes: 27 + 27
// operations cold, 22 + 22 warm.
var privateKeyBudget = map[string][2]int64{
	"Netflix":            {3, 3},
	"Disney+":            {2, 0},
	"Amazon Prime Video": {3, 0},
	"Hulu":               {3, 3},
	"HBO Max":            {2, 2},
	"Starz":              {2, 2},
	"myCANAL":            {3, 3},
	"Showtime":           {3, 3},
	"OCS":                {3, 3},
	"Salto":              {3, 3},
}

// TestTableI_PrivateKeyBudget pins the RSA private-key operations of a
// default sequential Table I pass, row by row. RSA is the bulk of a
// computed study's CPU, and determinism makes the count exact, so an
// extra license exchange fails here instead of drifting a benchmark.
//
// It also pins what the private-key memo saves. Every world of a seed
// replays the same exchanges on the same inputs, so the first world of
// a seed computes every operation and a second world of that seed
// computes none, with the same calls and the same table bytes. The
// counters and the memo are process-wide: the seed is used by no other
// test (nor by an earlier -count run of this one), and this test must
// not run alongside a parallel one.
// budgetRuns numbers TestTableI_PrivateKeyBudget's runs in this process.
var budgetRuns int

func TestTableI_PrivateKeyBudget(t *testing.T) {
	budgetRuns++
	seed := fmt.Sprintf("private-key-budget-%d", budgetRuns)
	newStudy := func() *Study {
		w, err := NewWorld(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return NewStudy(w)
	}
	// ops reports the calls since (sign0, decrypt0) and how many of them
	// an exponentiation computed.
	type ops struct{ sign, decrypt, signComputed, decryptComputed int64 }
	counters := func() ops {
		sign, decrypt := wvcrypto.PrivateKeyOps()
		signHits, decryptHits := wvcrypto.PrivateKeyMemoHits()
		return ops{sign, decrypt, sign - signHits, decrypt - decryptHits}
	}
	since := func(before ops) ops {
		now := counters()
		return ops{now.sign - before.sign, now.decrypt - before.decrypt,
			now.signComputed - before.signComputed, now.decryptComputed - before.decryptComputed}
	}

	s := newStudy()
	for pass, wantTotal := range []int64{27, 22} {
		s.ResetObservations()
		start := counters()
		for _, p := range s.World.Profiles() {
			before := counters()
			if _, err := s.buildRowGraceful(p.Name); err != nil {
				t.Fatal(err)
			}
			got := since(before)
			if want := privateKeyBudget[p.Name][pass]; got.sign != want || got.decrypt != want {
				t.Errorf("pass %d, %s: %d SignPSS + %d DecryptOAEP, want %d + %d",
					pass, p.Name, got.sign, got.decrypt, want, want)
			}
		}
		got := since(start)
		if got.sign != wantTotal {
			t.Errorf("pass %d made %d SignPSS, want %d", pass, got.sign, wantTotal)
		}
		if pass == 0 && (got.signComputed != wantTotal || got.decryptComputed != wantTotal) {
			t.Errorf("first pass of a new seed computed %d SignPSS + %d DecryptOAEP, want all %d + %d",
				got.signComputed, got.decryptComputed, wantTotal, wantTotal)
		}
	}

	before := counters()
	table, err := newStudy().BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	got := since(before)
	if got.sign != 27 || got.decrypt != 27 {
		t.Errorf("second world made %d SignPSS + %d DecryptOAEP, want 27 + 27", got.sign, got.decrypt)
	}
	if got.signComputed != 0 || got.decryptComputed != 0 {
		t.Errorf("second world of the seed computed %d SignPSS + %d DecryptOAEP, want 0 + 0",
			got.signComputed, got.decryptComputed)
	}
	if text := table.Render() + "\n" + table.Summarize().Render(); text != golden(t, "tableI_default.txt") {
		t.Errorf("second world of the seed diverged from the golden table:\n%s", text)
	}
}

func TestTableI_Q1(t *testing.T) {
	s := sharedStudy(t)
	for _, p := range s.World.Profiles() {
		q1, err := s.RunQ1(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !q1.UsesWidevine {
			t.Errorf("%s: Widevine usage not detected", p.Name)
		}
		if !q1.L1Supported {
			t.Errorf("%s: L1 (liboemcrypto) not detected on TEE device", p.Name)
		}
		wantCustom := p.Name == "Amazon Prime Video"
		if q1.CustomDRMOnL3 != wantCustom {
			t.Errorf("%s: CustomDRMOnL3 = %v, want %v", p.Name, q1.CustomDRMOnL3, wantCustom)
		}
	}
}

func TestTableI_Q2(t *testing.T) {
	s := sharedStudy(t)
	wantAudio := map[string]Protection{
		"Netflix": ProtectionClear, "myCANAL": ProtectionClear, "Salto": ProtectionClear,
		"Disney+": ProtectionEncrypted, "Amazon Prime Video": ProtectionEncrypted,
		"Hulu": ProtectionEncrypted, "HBO Max": ProtectionEncrypted,
		"Starz": ProtectionEncrypted, "Showtime": ProtectionEncrypted, "OCS": ProtectionEncrypted,
	}
	wantSubs := map[string]Protection{
		"Hulu": ProtectionUnknown, "Starz": ProtectionUnknown,
	}
	for _, p := range s.World.Profiles() {
		q2, err := s.RunQ2(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if q2.Video != ProtectionEncrypted {
			t.Errorf("%s: video = %v, want Encrypted", p.Name, q2.Video)
		}
		if q2.Audio != wantAudio[p.Name] {
			t.Errorf("%s: audio = %v, want %v", p.Name, q2.Audio, wantAudio[p.Name])
		}
		want := ProtectionClear
		if w, ok := wantSubs[p.Name]; ok {
			want = w
		}
		if q2.Subtitles != want {
			t.Errorf("%s: subtitles = %v, want %v", p.Name, q2.Subtitles, want)
		}
	}
}

func TestTableI_Q3(t *testing.T) {
	s := sharedStudy(t)
	want := map[string]KeyUsage{
		"Netflix": KeyUsageMinimum, "Disney+": KeyUsageMinimum,
		"Amazon Prime Video": KeyUsageRecommended,
		"Hulu":               KeyUsageUnknown, "HBO Max": KeyUsageUnknown,
		"Starz": KeyUsageMinimum, "myCANAL": KeyUsageMinimum,
		"Showtime": KeyUsageMinimum, "OCS": KeyUsageMinimum, "Salto": KeyUsageMinimum,
	}
	for _, p := range s.World.Profiles() {
		q3, err := s.RunQ3(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if q3.Usage != want[p.Name] {
			t.Errorf("%s: key usage = %v, want %v", p.Name, q3.Usage, want[p.Name])
		}
		// Per-resolution keys hold for every determinable app.
		if q3.Usage != KeyUsageUnknown && !q3.PerResolutionKeys {
			t.Errorf("%s: per-resolution keys not observed", p.Name)
		}
	}
}

func TestTableI_Q4(t *testing.T) {
	s := sharedStudy(t)
	want := map[string]LegacyOutcome{
		"Netflix": LegacyPlays, "myCANAL": LegacyPlays, "Showtime": LegacyPlays,
		"OCS": LegacyPlays, "Salto": LegacyPlays, "Hulu": LegacyPlays,
		"Disney+": LegacyProvisioningFails, "HBO Max": LegacyProvisioningFails,
		"Starz":              LegacyProvisioningFails,
		"Amazon Prime Video": LegacyPlaysCustomDRM,
	}
	for _, p := range s.World.Profiles() {
		q4, err := s.RunQ4(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if q4.Outcome != want[p.Name] {
			t.Errorf("%s: legacy outcome = %v (%s), want %v", p.Name, q4.Outcome, q4.Detail, want[p.Name])
		}
	}
}

// TestPracticalImpact reproduces §IV-D: DRM-free content recovered from
// the six permissive apps, never better than 540p; nothing from the
// revoking apps or Amazon.
func TestPracticalImpact(t *testing.T) {
	s := sharedStudy(t)
	succeeds := map[string]bool{
		"Netflix": true, "myCANAL": true, "Showtime": true,
		"OCS": true, "Salto": true, "Hulu": true,
		"Disney+": false, "HBO Max": false, "Starz": false,
		"Amazon Prime Video": false,
	}
	for _, p := range s.World.Profiles() {
		res, err := s.RunPracticalImpact(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if res.DRMFree != succeeds[p.Name] {
			t.Errorf("%s: DRMFree = %v (reason %q), want %v",
				p.Name, res.DRMFree, res.FailureReason, succeeds[p.Name])
			continue
		}
		if !res.KeyboxRecovered {
			t.Errorf("%s: keybox not recovered from L3 process memory", p.Name)
		}
		if res.DRMFree {
			if res.MaxHeight != 540 {
				t.Errorf("%s: recovered quality = %dp, want capped at 540p", p.Name, res.MaxHeight)
			}
			if !res.RSAKeyRecovered || res.ContentKeysFound == 0 {
				t.Errorf("%s: ladder incomplete: %+v", p.Name, res)
			}
		}
	}
}

// TestL1Resists verifies the E6 ablation: the same memory-scan attack
// finds no keybox on a TEE-backed device.
func TestL1Resists(t *testing.T) {
	s := sharedStudy(t)
	found, err := s.RunL1Resistance("Showtime")
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Error("keybox recovered from an L1 device's normal-world memory")
	}
}

func TestTableRender(t *testing.T) {
	out := PaperTable().Render()
	for _, want := range []string{"Netflix", "Recommended", "provisioning fails", "plays †", "TABLE I"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableDiff(t *testing.T) {
	a := PaperTable()
	if diffs := a.Diff(PaperTable()); len(diffs) != 0 {
		t.Errorf("self-diff nonempty: %v", diffs)
	}
	b := PaperTable()
	q2 := *b.Rows[0].Q2()
	q2.Audio = ProtectionEncrypted
	b.Rows[0].Results["q2"] = &q2
	if diffs := a.Diff(b); len(diffs) != 1 {
		t.Errorf("diff = %v, want 1 entry", diffs)
	}
	c := &Table{Rows: []Row{{App: "Nobody"}}}
	if diffs := c.Diff(a); len(diffs) == 0 {
		t.Error("missing-app diff empty")
	}
}

func TestWorld_UnknownApp(t *testing.T) {
	s := sharedStudy(t)
	if _, err := s.World.Fixture("NoSuchApp"); err == nil {
		t.Error("want error for unknown app")
	}
}

func TestNewWorld_CustomProfiles(t *testing.T) {
	w, err := NewWorld("custom", []ott.Profile{ott.Profiles()[7]}) // Showtime
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Profiles()) != 1 {
		t.Fatalf("profiles = %d", len(w.Profiles()))
	}
	st := NewStudy(w)
	q4, err := st.RunQ4("Showtime")
	if err != nil {
		t.Fatal(err)
	}
	if q4.Outcome != LegacyPlays {
		t.Errorf("outcome = %v", q4.Outcome)
	}
}
