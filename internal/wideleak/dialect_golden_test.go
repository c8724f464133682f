package wideleak

import "testing"

// dialectStudy builds one canonical spec per wire dialect over a reduced
// device set. Every build provisions from the default seed's pool in the
// process-wide key store, so only the first pays RSA minting. Q2/Q3 are the probes whose classification must not
// depend on the wire format: Q2 (L1 downgrade on rooted hardware) and Q3
// (license-server trust) both read the protection descriptors and segment
// layout the dialects re-encode.
func dialectStudy(t *testing.T, dialect string) (*Table, map[string]int) {
	t.Helper()
	spec := RunSpec{
		Probes:  []string{"q2", "q3"},
		Devices: []string{"pixel", "l3"},
		Dialect: dialect,
	}
	study, err := spec.Build()
	if err != nil {
		t.Fatalf("Build(%s): %v", dialect, err)
	}
	study.Concurrency = 4
	table, err := study.BuildTable()
	if err != nil {
		t.Fatalf("BuildTable(%s): %v", dialect, err)
	}
	return table, study.World.ManifestServeCounts()
}

// TestDialectGoldenRows pins the tentpole invariant: the Q2/Q3 table is
// byte-identical whether the apps stream over DASH, HLS or Smooth
// Streaming, because every dialect is a lossless re-encoding of the same
// canonical manifest. It also checks the CDN actually served the
// requested dialect — a regression that silently fell back to DASH would
// otherwise pass the byte comparison trivially.
func TestDialectGoldenRows(t *testing.T) {
	outputs := make(map[string]string)
	counts := make(map[string]map[string]int)
	for _, d := range []string{"dash", "hls", "sstr"} {
		table, served := dialectStudy(t, d)
		out, err := table.Encode("txt")
		if err != nil {
			t.Fatalf("Encode(%s): %v", d, err)
		}
		outputs[d] = string(out)
		counts[d] = served
	}

	for _, d := range []string{"hls", "sstr"} {
		if outputs[d] != outputs["dash"] {
			t.Errorf("%s study output differs from dash:\n--- dash ---\n%s\n--- %s ---\n%s",
				d, outputs["dash"], d, outputs[d])
		}
	}

	// Each study must have streamed through its own wire format. The
	// dash study's serve counter carries the canonical name even though
	// its spec canonicalizes to the empty dialect.
	for _, d := range []string{"dash", "hls", "sstr"} {
		if counts[d][d] == 0 {
			t.Errorf("%s study served no %s manifests (serve counts: %v)", d, d, counts[d])
		}
		for other, n := range counts[d] {
			if other != d && n != 0 {
				t.Errorf("%s study leaked %d %s manifest serves (serve counts: %v)", d, n, other, counts[d])
			}
		}
	}
}

// TestDialectDefaultGolden re-runs the full default study through an
// explicit Dialect: "dash" spec and compares against the pre-dialect
// golden files: spelling the default out loud must not perturb a single
// byte of Table I.
func TestDialectDefaultGolden(t *testing.T) {
	spec := RunSpec{Dialect: "dash"}
	study, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	study.Concurrency = 4
	table, err := study.BuildTable()
	if err != nil {
		t.Fatal(err)
	}
	text, err := table.Encode("txt")
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "tableI_default.txt"); string(text) != want {
		t.Errorf("explicit dash dialect changed the default table:\n got:\n%s\nwant:\n%s", text, want)
	}
	csvOut, err := table.Encode("csv")
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "tableI_default.csv"); string(csvOut) != want {
		t.Errorf("explicit dash dialect changed the default CSV export")
	}
	jsonOut, err := table.Encode("json")
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "tableI_default.json"); string(jsonOut) != want {
		t.Errorf("explicit dash dialect changed the default JSON export")
	}
}

// TestDialectKeyInvariance pins the cache-address contract: "" and
// "dash" are the same spec (same run key, same world key, same cell
// addresses), while a non-default dialect moves every address.
func TestDialectKeyInvariance(t *testing.T) {
	base := RunSpec{}
	explicit := RunSpec{Dialect: "dash"}
	hls := RunSpec{Dialect: "hls"}

	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	explicitKey, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	hlsKey, err := hls.Key()
	if err != nil {
		t.Fatal(err)
	}
	if baseKey != explicitKey {
		t.Errorf("explicit dash spec key %s differs from default %s", explicitKey, baseKey)
	}
	if hlsKey == baseKey {
		t.Error("hls spec key collides with the default key")
	}

	baseWorld, err := base.WorldKey()
	if err != nil {
		t.Fatal(err)
	}
	explicitWorld, err := explicit.WorldKey()
	if err != nil {
		t.Fatal(err)
	}
	hlsWorld, err := hls.WorldKey()
	if err != nil {
		t.Fatal(err)
	}
	if baseWorld != explicitWorld {
		t.Errorf("explicit dash world key %s differs from default %s", explicitWorld, baseWorld)
	}
	if hlsWorld == baseWorld {
		t.Error("hls world key collides with the default world key")
	}

	if got, want := CellKey("default", nil, nil, "", "Netflix", "q1"),
		CellKey("default", nil, nil, "", "Netflix", "q1"); got != want {
		t.Error("CellKey is not deterministic")
	}
	if CellKey("default", nil, nil, "hls", "Netflix", "q1") == CellKey("default", nil, nil, "", "Netflix", "q1") {
		t.Error("hls cell key collides with the default cell key")
	}
}
