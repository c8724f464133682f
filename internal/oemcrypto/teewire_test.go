package oemcrypto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/mp4"
	"repro/internal/tee"
)

// fullRequest populates every field of a request frame.
func fullRequest() teeRequest {
	return teeRequest{
		Session:    0x01020304,
		Context:    []byte("context"),
		Message:    []byte("message"),
		MAC:        bytes.Repeat([]byte{0xAC}, 32),
		WrappedKey: bytes.Repeat([]byte{0x5E}, 48),
		IV:         bytes.Repeat([]byte{0x1F}, 16),
		IV8:        [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		KID:        [16]byte{0xA, 0xB, 0xC, 0xD, 15: 0xE},
		Scheme:     mp4.SchemeCENC,
		Subsamples: []mp4.SubsampleEntry{
			{ClearBytes: 16, ProtectedBytes: 4096},
			{ClearBytes: 0xFFFF, ProtectedBytes: 0xFFFFFFFF},
		},
		Data: []byte("sample data"),
		Keys: []EncryptedKey{
			{KID: [16]byte{1}, IV: [16]byte{2}, Payload: []byte("key one"), DurationSeconds: 3600},
			{KID: [16]byte{3}, IV: [16]byte{4}, Payload: []byte("key two"), DurationSeconds: 0},
		},
	}
}

func fullResponse() teeResponse {
	return teeResponse{
		Session:  7,
		Out:      []byte("output"),
		StableID: "RAW-TEE-DEV",
		SystemID: 7711,
		Bool:     true,
		Err:      ErrKeyExpired.Error(),
	}
}

// TestTEEFrame_RoundTrip: decode(encode(x)) == x, with empty slices
// decoding to nil so callers never see an empty-vs-nil difference.
func TestTEEFrame_RoundTrip(t *testing.T) {
	empty := teeRequest{
		Context: []byte{}, Subsamples: []mp4.SubsampleEntry{},
		Keys: []EncryptedKey{{Payload: []byte{}}},
	}
	emptyWant := teeRequest{Keys: []EncryptedKey{{}}}
	for _, tc := range []struct {
		name    string
		in, out teeRequest
	}{
		{"full", fullRequest(), fullRequest()},
		{"zero", teeRequest{}, teeRequest{}},
		{"empty slices", empty, emptyWant},
	} {
		var got teeRequest
		if err := got.unmarshal(tc.in.marshal()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.out) {
			t.Errorf("%s request:\n got %+v\nwant %+v", tc.name, got, tc.out)
		}
	}
	for _, in := range []teeResponse{fullResponse(), {}, {Out: []byte{}}} {
		var got teeResponse
		if err := got.unmarshal(in.marshal()); err != nil {
			t.Fatal(err)
		}
		want := in
		if len(want.Out) == 0 {
			want.Out = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestTEEFrame_RejectsTruncatedAndTrailing: every strict prefix of a valid
// frame and a frame with one extra byte fail to decode.
func TestTEEFrame_RejectsTruncatedAndTrailing(t *testing.T) {
	req, resp := fullRequest(), fullResponse()
	decoders := map[string]struct {
		frame  []byte
		decode func([]byte) error
	}{
		"request":  {req.marshal(), func(b []byte) error { var r teeRequest; return r.unmarshal(b) }},
		"response": {resp.marshal(), func(b []byte) error { var r teeResponse; return r.unmarshal(b) }},
	}
	for name, d := range decoders {
		for n := 0; n < len(d.frame); n++ {
			if err := d.decode(d.frame[:n]); !errors.Is(err, errFrame) {
				t.Errorf("%s prefix %d/%d: err = %v", name, n, len(d.frame), err)
			}
		}
		if err := d.decode(append(append([]byte(nil), d.frame...), 0)); !errors.Is(err, errFrame) {
			t.Errorf("%s with trailing byte: err = %v", name, err)
		}
	}
}

// TestTEEFrame_HugePrefixDoesNotAllocate: a 0xFFFFFFFF length or count is
// rejected against the bytes that remain, before anything is allocated.
func TestTEEFrame_HugePrefixDoesNotAllocate(t *testing.T) {
	// Offsets into the frame of a request with one empty key: Session,
	// five length-prefixed fields, IV8, KID, Scheme, then the subsample
	// count, Data and the key count; the first key's Payload length
	// follows its KID and IV.
	oneKey := teeRequest{Keys: []EncryptedKey{{}}}
	base := oneKey.marshal()
	huge := func(off int) []byte {
		b := append([]byte(nil), base...)
		binary.BigEndian.PutUint32(b[off:], 0xFFFFFFFF)
		return b
	}
	requests := map[string][]byte{
		"context length":  huge(4),
		"scheme length":   huge(48),
		"subsample count": huge(52),
		"data length":     huge(56),
		"key count":       huge(60),
		"payload length":  huge(96),
	}
	respBase := (&teeResponse{}).marshal()
	respOut := append([]byte(nil), respBase...)
	binary.BigEndian.PutUint32(respOut[4:], 0xFFFFFFFF)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, frame := range requests {
		var r teeRequest
		if err := r.unmarshal(frame); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
	var r teeResponse
	if err := r.unmarshal(respOut); !errors.Is(err, errFrame) {
		t.Errorf("response out length: err = %v", err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("decoding huge prefixes allocated %d bytes", d)
	}
}

// TestTEEFrame_CopiesOutOfInput: the secure world never aliases the
// normal-world buffer, so rewriting it after decode changes nothing.
func TestTEEFrame_CopiesOutOfInput(t *testing.T) {
	want := fullRequest()
	frame := want.marshal()
	var got teeRequest
	if err := got.unmarshal(frame); err != nil {
		t.Fatal(err)
	}
	wantResp := fullResponse()
	respFrame := wantResp.marshal()
	var gotResp teeResponse
	if err := gotResp.unmarshal(respFrame); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{frame, respFrame} {
		for i := range b {
			b[i] = 0xAA
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("request changed with its input:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(gotResp, wantResp) {
		t.Errorf("response changed with its input:\n got %+v\nwant %+v", gotResp, wantResp)
	}
}

// frameRecorder wraps the trustlet to capture every frame that crosses
// the world boundary.
type frameRecorder struct {
	*Trustlet
	mu     sync.Mutex
	frames []recordedCall
}

type recordedCall struct {
	cmd       uint32
	req, resp []byte
}

func (r *frameRecorder) Invoke(ctx *tee.Context, cmd uint32, input []byte) ([]byte, error) {
	out, err := r.Trustlet.Invoke(ctx, cmd, input)
	r.mu.Lock()
	r.frames = append(r.frames, recordedCall{cmd, append([]byte(nil), input...), append([]byte(nil), out...)})
	r.mu.Unlock()
	return out, err
}

// recordFrames drives every command the adapter issues through a real L1
// engine and returns the frames it sent and received.
func recordFrames(t testing.TB) []recordedCall {
	t.Helper()
	rec := &frameRecorder{}
	f := newWrappedTEEFixture(t, "15.0", func(tl *Trustlet) tee.Trustlet {
		rec.Trustlet = tl
		return rec
	})
	if _, _, err := f.engine.KeyboxInfo(); err != nil {
		t.Fatal(err)
	}
	f.provision(t)
	if err := f.engine.LoadDeviceRSAKey(); err != nil {
		t.Fatal(err)
	}
	if !f.engine.Provisioned() {
		t.Fatal("not provisioned")
	}
	kid := [16]byte{1}
	ck := bytes.Repeat([]byte{2}, 16)
	s := f.license(t, map[[16]byte][]byte{kid: ck})
	if err := f.engine.SelectKey(s, kid); err != nil {
		t.Fatal(err)
	}
	subs := []mp4.SubsampleEntry{{ClearBytes: 8, ProtectedBytes: 24}}
	if _, err := f.engine.DecryptCENC(s, mp4.SchemeCENC, [8]byte{9}, subs, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := f.engine.GenerateDerivedKeys(s, []byte("generic")); err != nil {
		t.Fatal(err)
	}
	iv := bytes.Repeat([]byte{7}, 16)
	ct, err := f.engine.GenericEncrypt(s, iv, []byte("secret-manifest-uri"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.GenericDecrypt(s, iv, ct); err != nil {
		t.Fatal(err)
	}
	sig, err := f.engine.GenericSign(s, ct)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.engine.GenericVerify(s, ct, sig) // client MAC: rejected, still a real frame
	if err := f.engine.CloseSession(s); err != nil {
		t.Fatal(err)
	}
	return rec.frames
}

// FuzzTrustletFrame feeds arbitrary bytes to both frame decoders and to
// the trustlet itself, the code a compromised normal world reaches first.
// Nothing may panic, and a frame that decodes has one canonical form.
func FuzzTrustletFrame(f *testing.F) {
	seen := map[uint32]bool{}
	for _, c := range recordFrames(f) {
		seen[c.cmd] = true
		f.Add(c.cmd, c.req)
		f.Add(c.cmd, c.resp)
	}
	if len(seen) != 17 {
		f.Fatalf("seeded %d distinct commands, want all 17 the adapter issues", len(seen))
	}
	f.Fuzz(func(t *testing.T, cmd uint32, frame []byte) {
		var req teeRequest
		if req.unmarshal(frame) == nil {
			if again := req.marshal(); !bytes.Equal(again, frame) {
				t.Fatalf("request re-encodes differently:\n in %x\nout %x", frame, again)
			}
		}
		var resp teeResponse
		if resp.unmarshal(frame) == nil {
			if again := resp.marshal(); !bytes.Equal(again, frame) {
				t.Fatalf("response re-encodes differently:\n in %x\nout %x", frame, again)
			}
		}
		_, _ = newRawTrustletWorld(t).Invoke(TrustletName, cmd, frame)
	})
}
