package mp4

import (
	"bytes"
	"testing"
	"testing/quick"
)

// The CDN-facing parsers process attacker-controlled bytes (the study
// downloads whatever the interception surfaced), so they must never panic —
// only return errors. These property tests drive each parser with random
// byte soup, plus random mutations of valid documents (which exercise far
// deeper parse paths than pure noise).

func neverPanics(t *testing.T, name string, parse func([]byte)) {
	t.Helper()
	prop := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("%s panicked on %x: %v", name, data, r)
				ok = false
			}
		}()
		parse(data)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// mutate returns a copy of valid with a few random edits applied.
func mutate(valid []byte, edits []uint32) []byte {
	out := append([]byte(nil), valid...)
	for _, e := range edits {
		if len(out) == 0 {
			break
		}
		pos := int(e>>8) % len(out)
		out[pos] ^= byte(e)
	}
	return out
}

func TestSplitBoxes_NeverPanics(t *testing.T) {
	neverPanics(t, "SplitBoxes", func(b []byte) { _, _ = SplitBoxes(b) })
}

func TestParseInitSegment_NeverPanics(t *testing.T) {
	neverPanics(t, "ParseInitSegment", func(b []byte) { _, _ = ParseInitSegment(b) })

	valid := (&InitSegment{Track: TrackInfo{
		TrackID: 1, Handler: HandlerVideo, Codec: "avc1", Timescale: 90000,
		Width: 960, Height: 540,
		Protection: &ProtectionInfo{
			Scheme: SchemeCENC, DefaultKID: [16]byte{1},
			PSSH: []PSSH{{SystemID: WidevineSystemID, KIDs: [][16]byte{{1}}, Data: []byte("d")}},
		},
	}}).Marshal()
	prop := func(edits []uint32) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("mutated init panicked: %v", r)
				ok = false
			}
		}()
		_, _ = ParseInitSegment(mutate(valid, edits))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseMediaSegment_NeverPanics(t *testing.T) {
	neverPanics(t, "ParseMediaSegment", func(b []byte) { _, _ = ParseMediaSegment(b) })

	seg := &MediaSegment{
		SequenceNumber: 1, TrackID: 1,
		SampleData: [][]byte{make([]byte, 64), make([]byte, 32)},
		Encryption: &SampleEncryption{Entries: []SampleEncryptionEntry{
			{IV: [8]byte{1}, Subsamples: []SubsampleEntry{{ClearBytes: 4, ProtectedBytes: 60}}},
			{IV: [8]byte{2}, Subsamples: []SubsampleEntry{{ClearBytes: 4, ProtectedBytes: 28}}},
		}},
	}
	valid, err := seg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	prop := func(edits []uint32) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("mutated segment panicked: %v", r)
				ok = false
			}
		}()
		_, _ = ParseMediaSegment(mutate(valid, edits))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// validInit and validMedia marshal representative documents as fuzz
// corpus seeds (protected video init, two-sample encrypted segment).
func validInit() []byte {
	return (&InitSegment{Track: TrackInfo{
		TrackID: 1, Handler: HandlerVideo, Codec: "avc1", Timescale: 90000,
		Width: 960, Height: 540,
		Protection: &ProtectionInfo{
			Scheme: SchemeCENC, DefaultKID: [16]byte{1},
			PSSH: []PSSH{{SystemID: WidevineSystemID, KIDs: [][16]byte{{1}}, Data: []byte("d")}},
		},
	}}).Marshal()
}

func validMedia(t interface{ Fatal(...any) }) []byte {
	valid, err := (&MediaSegment{
		SequenceNumber: 1, TrackID: 1,
		SampleData: [][]byte{make([]byte, 64), make([]byte, 32)},
		Encryption: &SampleEncryption{Entries: []SampleEncryptionEntry{
			{IV: [8]byte{1}, Subsamples: []SubsampleEntry{{ClearBytes: 4, ProtectedBytes: 60}}},
			{IV: [8]byte{2}, Subsamples: []SubsampleEntry{{ClearBytes: 4, ProtectedBytes: 28}}},
		}},
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return valid
}

// FuzzParseInitSegment is the native fuzz target for the init-segment
// parser; run via `make fuzz` or `go test -fuzz FuzzParseInitSegment`.
func FuzzParseInitSegment(f *testing.F) {
	valid := validInit()
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("ftypmoov"))
	f.Fuzz(func(t *testing.T, data []byte) {
		init, err := ParseInitSegment(data)
		if err != nil {
			return
		}
		// Downstream consumers read these without re-validating.
		_ = init.Track.Protection
		_, _ = IsProtected(data)
	})
}

// FuzzFindBox checks FindBox against SplitBoxes plus a linear search:
// the same first box of the type, the same found flag, and an error
// exactly when SplitBoxes fails. Run via `make fuzz`.
func FuzzFindBox(f *testing.F) {
	valid := validInit()
	f.Add(valid, "moov")
	f.Add(valid, "free")
	f.Add(append(AppendBox(nil, "trak", []byte("t")), "\x00\x00"...), "trak")
	f.Add(AppendBox(AppendBox(nil, "pssh", []byte("1")), "pssh", []byte("2")), "pssh")
	f.Add([]byte{}, "moov")
	f.Add([]byte("\x00\x00\x00\x01mdat\x00\x00\x00\x00\x00\x00\x00\x10"), "mdat")
	f.Fuzz(func(t *testing.T, data []byte, boxType string) {
		got, found, err := FindBox(data, boxType)
		boxes, splitErr := SplitBoxes(data)
		if (err != nil) != (splitErr != nil) {
			t.Fatalf("FindBox err %v, SplitBoxes err %v", err, splitErr)
		}
		if err != nil {
			return
		}
		var want RawBox
		wantFound := false
		for _, box := range boxes {
			if box.BoxType == boxType {
				want, wantFound = box, true
				break
			}
		}
		if found != wantFound || got.BoxType != want.BoxType || !bytes.Equal(got.Payload, want.Payload) ||
			len(got.Payload) > 0 && &got.Payload[0] != &want.Payload[0] {
			t.Fatalf("FindBox(%q) = %q %x %v, want %q %x %v", boxType,
				got.BoxType, got.Payload, found, want.BoxType, want.Payload, wantFound)
		}
	})
}

// FuzzParseMediaSegment is the native fuzz target for the media-segment
// parser.
func FuzzParseMediaSegment(f *testing.F) {
	valid := validMedia(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("moofmdat"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := ParseMediaSegment(data)
		if err != nil {
			return
		}
		if len(seg.SampleData) > 0 {
			_, _ = seg.Marshal()
		}
	})
}

func TestLeafParsers_NeverPanic(t *testing.T) {
	neverPanics(t, "ParseFileType", func(b []byte) { _, _ = ParseFileType(b) })
	neverPanics(t, "ParseMovieHeader", func(b []byte) { _, _ = ParseMovieHeader(b) })
	neverPanics(t, "ParseTrackHeader", func(b []byte) { _, _ = ParseTrackHeader(b) })
	neverPanics(t, "ParseMediaHeader", func(b []byte) { _, _ = ParseMediaHeader(b) })
	neverPanics(t, "ParseHandler", func(b []byte) { _, _ = ParseHandler(b) })
	neverPanics(t, "ParseTrackExtends", func(b []byte) { _, _ = ParseTrackExtends(b) })
	neverPanics(t, "ParseTrackFragmentHeader", func(b []byte) { _, _ = ParseTrackFragmentHeader(b) })
	neverPanics(t, "ParseTrackFragmentDecodeTime", func(b []byte) { _, _ = ParseTrackFragmentDecodeTime(b) })
	neverPanics(t, "ParseTrackRun", func(b []byte) { _, _ = ParseTrackRun(b) })
	neverPanics(t, "ParseTrackEncryption", func(b []byte) { _, _ = ParseTrackEncryption(b) })
	neverPanics(t, "ParsePSSH", func(b []byte) { _, _ = ParsePSSH(b) })
	neverPanics(t, "ParseProtectionSchemeInfo", func(b []byte) { _, _ = ParseProtectionSchemeInfo(b) })
	neverPanics(t, "ParseSampleEncryption", func(b []byte) { _, _ = ParseSampleEncryption(b) })
	neverPanics(t, "ParseMovieFragmentHeader", func(b []byte) { _, _ = ParseMovieFragmentHeader(b) })
}
