package oemcrypto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/mp4"
)

// The world-boundary frame. Every field of teeRequest and teeResponse is
// written in struct order: integers big-endian at their own width (u32,
// and u16 for a subsample's ClearBytes), a bool as a u32 0 or 1, []byte and
// string as a u32 length then the bytes, fixed arrays raw, and slices of
// entries as a u32 count then the entries. A zero length decodes
// to nil, so an empty slice and a nil one share one encoding.
//
// The decoder is the secure world's first contact with normal-world bytes:
// it bounds every length and count by the bytes that remain before it
// allocates, rejects truncated frames and trailing bytes, and copies every
// field out of the input so nothing decoded aliases the caller's buffer.
// Every frame that decodes re-encodes to the same bytes.

// errFrame is wrapped by every decode failure; callers add which frame.
var errFrame = errors.New("malformed frame")

const (
	subsampleSize = 2 + 4           // ClearBytes u16, ProtectedBytes u32
	keyMinSize    = 16 + 16 + 4 + 4 // KID, IV, Payload length, DurationSeconds
)

func (r *teeRequest) marshal() []byte {
	n := 4 + 5*4 + len(r.Context) + len(r.Message) + len(r.MAC) + len(r.WrappedKey) + len(r.IV) +
		len(r.IV8) + len(r.KID) + 4 + len(r.Scheme) +
		4 + subsampleSize*len(r.Subsamples) + 4 + len(r.Data) + 4
	for _, k := range r.Keys {
		n += keyMinSize + len(k.Payload)
	}
	b := make([]byte, 0, n)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Session))
	b = appendBytes(b, r.Context)
	b = appendBytes(b, r.Message)
	b = appendBytes(b, r.MAC)
	b = appendBytes(b, r.WrappedKey)
	b = appendBytes(b, r.IV)
	b = append(b, r.IV8[:]...)
	b = append(b, r.KID[:]...)
	b = appendString(b, r.Scheme)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Subsamples)))
	for _, s := range r.Subsamples {
		b = binary.BigEndian.AppendUint16(b, s.ClearBytes)
		b = binary.BigEndian.AppendUint32(b, s.ProtectedBytes)
	}
	b = appendBytes(b, r.Data)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Keys)))
	for _, k := range r.Keys {
		b = append(b, k.KID[:]...)
		b = append(b, k.IV[:]...)
		b = appendBytes(b, k.Payload)
		b = binary.BigEndian.AppendUint32(b, k.DurationSeconds)
	}
	return b
}

func (r *teeRequest) unmarshal(frame []byte) error {
	d := frameDecoder{rest: frame}
	var req teeRequest
	req.Session = SessionID(d.u32())
	req.Context = d.bytes()
	req.Message = d.bytes()
	req.MAC = d.bytes()
	req.WrappedKey = d.bytes()
	req.IV = d.bytes()
	d.fixed(req.IV8[:])
	d.fixed(req.KID[:])
	req.Scheme = d.str()
	if n := d.count(subsampleSize); n > 0 {
		req.Subsamples = make([]mp4.SubsampleEntry, n)
		for i := range req.Subsamples {
			s := d.take(subsampleSize)
			req.Subsamples[i] = mp4.SubsampleEntry{
				ClearBytes:     binary.BigEndian.Uint16(s),
				ProtectedBytes: binary.BigEndian.Uint32(s[2:]),
			}
		}
	}
	req.Data = d.bytes()
	if n := d.count(keyMinSize); n > 0 {
		req.Keys = make([]EncryptedKey, n)
		for i := range req.Keys {
			k := &req.Keys[i]
			d.fixed(k.KID[:])
			d.fixed(k.IV[:])
			k.Payload = d.bytes()
			k.DurationSeconds = d.u32()
		}
	}
	if err := d.finish(); err != nil {
		return err
	}
	*r = req
	return nil
}

func (r *teeResponse) marshal() []byte {
	b := make([]byte, 0, 6*4+len(r.Out)+len(r.StableID)+len(r.Err))
	b = binary.BigEndian.AppendUint32(b, uint32(r.Session))
	b = appendBytes(b, r.Out)
	b = appendString(b, r.StableID)
	b = binary.BigEndian.AppendUint32(b, r.SystemID)
	var flag uint32
	if r.Bool {
		flag = 1
	}
	b = binary.BigEndian.AppendUint32(b, flag)
	return appendString(b, r.Err)
}

func (r *teeResponse) unmarshal(frame []byte) error {
	d := frameDecoder{rest: frame}
	var resp teeResponse
	resp.Session = SessionID(d.u32())
	resp.Out = d.bytes()
	resp.StableID = d.str()
	resp.SystemID = d.u32()
	switch d.u32() {
	case 0:
	case 1:
		resp.Bool = true
	default:
		d.fail("bool")
	}
	resp.Err = d.str()
	if err := d.finish(); err != nil {
		return err
	}
	*r = resp
	return nil
}

func appendBytes(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// frameDecoder reads one frame front to back. The first failure sticks:
// later reads return zero values, and finish reports it.
type frameDecoder struct {
	rest []byte
	err  error
}

func (d *frameDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errFrame, what)
	}
	d.rest = nil
}

// take returns the next n bytes of the frame itself, or nil if fewer remain.
func (d *frameDecoder) take(n uint64) []byte {
	if d.err != nil || n > uint64(len(d.rest)) {
		d.fail("truncated")
		return nil
	}
	p := d.rest[:n:n]
	d.rest = d.rest[n:]
	return p
}

// fixed fills dst from the frame: a raw fixed-size array field.
func (d *frameDecoder) fixed(dst []byte) { copy(dst, d.take(uint64(len(dst)))) }

func (d *frameDecoder) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

// bytes reads a length-prefixed field into a fresh copy; zero length is nil.
func (d *frameDecoder) bytes() []byte {
	p := d.take(uint64(d.u32()))
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

func (d *frameDecoder) str() string { return string(d.take(uint64(d.u32()))) }

// count reads an entry count and checks that count entries of at least
// entrySize bytes each fit in what remains.
func (d *frameDecoder) count(entrySize uint64) int {
	n := d.u32()
	if uint64(n)*entrySize > uint64(len(d.rest)) {
		d.fail("count exceeds frame")
		return 0
	}
	return int(n)
}

func (d *frameDecoder) finish() error {
	if d.err == nil && len(d.rest) > 0 {
		d.fail("trailing bytes")
	}
	return d.err
}
