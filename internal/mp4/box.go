// Package mp4 implements the subset of the ISO Base Media File Format
// (ISO/IEC 14496-12) needed to package, serve, probe and decrypt the
// fragmented-MP4 media the study works with: plain boxes, full boxes, the
// movie/fragment structure (moov, moof, mdat and friends) and the Common
// Encryption protection boxes (tenc, pssh, senc, sinf/frma/schm/schi).
//
// Deviation from the full standard, documented in DESIGN.md: sample entries
// carry their codec-specific configuration in a 'codc' child box rather
// than codec-specific inline fields, so entries remain parseable without
// per-codec layout knowledge. Everything else follows the standard layouts.
package mp4

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by box parsing.
var (
	// ErrTruncated is returned when a buffer ends inside a box.
	ErrTruncated = errors.New("mp4: truncated box")
	// ErrBadBox is returned for structurally invalid boxes.
	ErrBadBox = errors.New("mp4: malformed box")
)

// RawBox is one box as framed on the wire: a fourcc type and its payload
// (excluding the 8-byte header).
type RawBox struct {
	BoxType string
	Payload []byte
}

// SplitBoxes parses a concatenated sequence of boxes, returning one RawBox
// per top-level box. Children of container boxes stay inside Payload; call
// SplitBoxes again on a container's payload to descend.
func SplitBoxes(b []byte) ([]RawBox, error) {
	var out []RawBox
	for len(b) > 0 {
		typ, payload, rest, err := readBox(b)
		if err != nil {
			return nil, err
		}
		out = append(out, RawBox{BoxType: string(typ), Payload: payload})
		b = rest
	}
	return out, nil
}

// FindBox returns the first box of the given type in a box sequence, and
// whether it was found. Like SplitBoxes it frames the whole sequence, so
// a malformed box anywhere in b fails the call, but it builds no slice
// of boxes: a hit allocates nothing.
func FindBox(b []byte, boxType string) (RawBox, bool, error) {
	var found RawBox
	ok := false
	for len(b) > 0 {
		typ, payload, rest, err := readBox(b)
		if err != nil {
			return RawBox{}, false, err
		}
		if !ok && string(typ) == boxType {
			found, ok = RawBox{BoxType: boxType, Payload: payload}, true
		}
		b = rest
	}
	return found, ok, nil
}

// FindPath descends a path of container types (e.g. "moov", "trak",
// "mdia") and returns the first box at the end of the path.
func FindPath(b []byte, path ...string) (RawBox, bool, error) {
	if len(path) == 0 {
		return RawBox{}, false, nil
	}
	cur := b
	var box RawBox
	for _, boxType := range path {
		found := false
		var err error
		box, found, err = FindBox(cur, boxType)
		if err != nil {
			return RawBox{}, false, err
		}
		if !found {
			return RawBox{}, false, nil
		}
		cur = box.Payload
	}
	return box, true, nil
}

// FindAll returns every box of the given type at the top level of b.
func FindAll(b []byte, boxType string) ([]RawBox, error) {
	boxes, err := SplitBoxes(b)
	if err != nil {
		return nil, err
	}
	var out []RawBox
	for _, box := range boxes {
		if box.BoxType == boxType {
			out = append(out, box)
		}
	}
	return out, nil
}

// readBox splits the box at the front of b into its fourcc, its payload
// and the bytes after it, without copying, supporting the 64-bit
// largesize form (size == 1).
func readBox(b []byte) (typ, payload, rest []byte, err error) {
	if len(b) < 8 {
		return nil, nil, nil, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	size := uint64(binary.BigEndian.Uint32(b))
	typ = b[4:8]
	headerLen := uint64(8)
	switch size {
	case 0: // box extends to end of buffer
		size = uint64(len(b))
	case 1: // 64-bit largesize
		if len(b) < 16 {
			return nil, nil, nil, fmt.Errorf("%w: largesize header", ErrTruncated)
		}
		size = binary.BigEndian.Uint64(b[8:])
		headerLen = 16
	}
	if size < headerLen || size > uint64(len(b)) {
		return nil, nil, nil, fmt.Errorf("%w: box %q size %d, buffer %d", ErrBadBox, typ, size, len(b))
	}
	return typ, b[headerLen:size], b[size:], nil
}

// AppendBox appends a box with the given type and payload to dst, using
// the 32-bit size form (or largesize if the payload demands it).
func AppendBox(dst []byte, boxType string, payload []byte) []byte {
	if len(boxType) != 4 {
		// Programming error in this package; boxes are compile-time fourccs.
		panic(fmt.Sprintf("mp4: box type %q is not 4 bytes", boxType))
	}
	total := uint64(8 + len(payload))
	if total > 0xFFFFFFFF {
		dst = binary.BigEndian.AppendUint32(dst, 1)
		dst = append(dst, boxType...)
		dst = binary.BigEndian.AppendUint64(dst, total+8)
		return append(dst, payload...)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(total))
	dst = append(dst, boxType...)
	return append(dst, payload...)
}

// AppendFullBoxHeader appends the version/flags word of a "full box".
func AppendFullBoxHeader(dst []byte, version byte, flags uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(version)<<24|flags&0xFFFFFF)
}

// ParseFullBoxHeader splits a full-box payload into version, flags and the
// remaining body.
func ParseFullBoxHeader(payload []byte) (version byte, flags uint32, body []byte, err error) {
	if len(payload) < 4 {
		return 0, 0, nil, fmt.Errorf("%w: full box header", ErrTruncated)
	}
	word := binary.BigEndian.Uint32(payload)
	return byte(word >> 24), word & 0xFFFFFF, payload[4:], nil
}
