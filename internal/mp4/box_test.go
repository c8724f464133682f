package mp4

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestAppendSplitRoundTrip(t *testing.T) {
	var b []byte
	b = AppendBox(b, "ftyp", []byte("payload-a"))
	b = AppendBox(b, "moov", nil)
	b = AppendBox(b, "mdat", bytes.Repeat([]byte{0x42}, 100))

	boxes, err := SplitBoxes(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 3 {
		t.Fatalf("got %d boxes", len(boxes))
	}
	if boxes[0].BoxType != "ftyp" || string(boxes[0].Payload) != "payload-a" {
		t.Errorf("box 0 = %q %q", boxes[0].BoxType, boxes[0].Payload)
	}
	if boxes[1].BoxType != "moov" || len(boxes[1].Payload) != 0 {
		t.Errorf("box 1 = %q len %d", boxes[1].BoxType, len(boxes[1].Payload))
	}
	if boxes[2].BoxType != "mdat" || len(boxes[2].Payload) != 100 {
		t.Errorf("box 2 = %q len %d", boxes[2].BoxType, len(boxes[2].Payload))
	}
}

func TestSplitBoxes_Truncated(t *testing.T) {
	b := AppendBox(nil, "mdat", []byte("data"))
	for _, cut := range []int{1, 7, len(b) - 1} {
		if _, err := SplitBoxes(b[:cut]); err == nil {
			t.Errorf("cut at %d: want error", cut)
		}
	}
}

func TestSplitBoxes_BadSize(t *testing.T) {
	// size smaller than the header
	b := make([]byte, 8)
	binary.BigEndian.PutUint32(b, 4)
	copy(b[4:], "abcd")
	if _, err := SplitBoxes(b); !errors.Is(err, ErrBadBox) {
		t.Errorf("err = %v, want ErrBadBox", err)
	}
}

func TestLargesizeBox(t *testing.T) {
	// Hand-build a largesize (size==1) box and confirm parsing.
	payload := []byte("big-box-payload")
	b := binary.BigEndian.AppendUint32(nil, 1)
	b = append(b, "mdat"...)
	b = binary.BigEndian.AppendUint64(b, uint64(16+len(payload)))
	b = append(b, payload...)

	boxes, err := SplitBoxes(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || string(boxes[0].Payload) != string(payload) {
		t.Errorf("largesize parse = %+v", boxes)
	}
}

func TestSizeZeroExtendsToEnd(t *testing.T) {
	payload := []byte("rest")
	b := binary.BigEndian.AppendUint32(nil, 0)
	b = append(b, "mdat"...)
	b = append(b, payload...)
	boxes, err := SplitBoxes(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 1 || string(boxes[0].Payload) != "rest" {
		t.Errorf("size-0 parse = %+v", boxes)
	}
}

func TestFindBoxAndPath(t *testing.T) {
	inner := AppendBox(nil, "tenc", []byte("x"))
	schi := AppendBox(nil, "schi", inner)
	sinf := AppendBox(nil, "sinf", schi)

	box, ok, err := FindPath(sinf, "sinf", "schi", "tenc")
	if err != nil || !ok {
		t.Fatalf("FindPath = %v, %v", ok, err)
	}
	if string(box.Payload) != "x" {
		t.Errorf("payload = %q", box.Payload)
	}

	_, ok, err = FindPath(sinf, "sinf", "missing")
	if err != nil || ok {
		t.Errorf("missing path found = %v, err %v", ok, err)
	}
	_, ok, err = FindPath(sinf)
	if err != nil || ok {
		t.Errorf("empty path = %v, %v", ok, err)
	}
}

// FindBox frames the sequence in place: a hit, even one past a box of
// another type, allocates nothing.
func TestFindBox_HitAllocatesNothing(t *testing.T) {
	var b []byte
	b = AppendBox(b, "mfhd", []byte("header"))
	b = AppendBox(b, "traf", []byte("fragment"))
	b = AppendBox(b, "mdat", []byte("media"))
	allocs := testing.AllocsPerRun(100, func() {
		if box, ok, err := FindBox(b, "traf"); err != nil || !ok || string(box.Payload) != "fragment" {
			t.Fatalf("FindBox = %+v, %v, %v", box, ok, err)
		}
	})
	if allocs != 0 {
		t.Errorf("FindBox hit allocates %v times per call, want 0", allocs)
	}
}

func TestFindAll(t *testing.T) {
	var b []byte
	b = AppendBox(b, "pssh", []byte("1"))
	b = AppendBox(b, "trak", []byte("t"))
	b = AppendBox(b, "pssh", []byte("2"))
	all, err := FindAll(b, "pssh")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || string(all[0].Payload) != "1" || string(all[1].Payload) != "2" {
		t.Errorf("FindAll = %+v", all)
	}
}

func TestFullBoxHeader(t *testing.T) {
	b := AppendFullBoxHeader(nil, 1, 0x000002)
	b = append(b, "body"...)
	version, flags, body, err := ParseFullBoxHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || flags != 2 || string(body) != "body" {
		t.Errorf("full box = v%d f%d %q", version, flags, body)
	}
	if _, _, _, err := ParseFullBoxHeader([]byte{1, 2}); err == nil {
		t.Error("short header: want error")
	}
}

// Property: any payload round-trips through AppendBox/SplitBoxes.
func TestBoxRoundTrip_Property(t *testing.T) {
	prop := func(payloads [][]byte) bool {
		var b []byte
		for _, p := range payloads {
			b = AppendBox(b, "test", p)
		}
		boxes, err := SplitBoxes(b)
		if err != nil || len(boxes) != len(payloads) {
			return false
		}
		for i, p := range payloads {
			if !bytes.Equal(boxes[i].Payload, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
