package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// NumCounts returns the number of batch counts in a counts frame; with
// Count it reads a frame count by count, the reference Sum must match.
func (f *Frame) NumCounts() int { return len(f.payload) / 4 }

// Count returns the i-th batch count of a counts frame.
func (f *Frame) Count(i int) uint32 {
	return binary.BigEndian.Uint32(f.payload[4*i:])
}

// FuzzDecode throws torn, oversized and garbage byte streams at the
// decoder.  The contract under attack: Decode never panics, never
// over-reads (consumed bytes bounded by the input), never consumes a
// bad frame, and the streaming Decoder terminates on every input.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendCounts(nil, []uint32{1, 2, 3}, false))
	f.Add(AppendCounts(nil, []uint32{0xFFFFFFFF, 0}, true))
	f.Add(AppendControl(nil, TypeAck, 1<<40, false))
	f.Add(AppendControl(nil, TypeOverloaded, 7, true))
	valid := AppendCounts(nil, []uint32{9, 9, 9, 9}, true)
	f.Add(valid[:len(valid)-3])                                 // torn frame
	f.Add([]byte{Magic, Version, 1, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // huge length
	f.Add([]byte{Magic, 2, 1, 0, 0, 0, 0, 0})                   // future version
	f.Add(append(AppendCounts(nil, []uint32{4}, false), 0xDE, 0xAD))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		n, err := Decode(data, DefaultMaxCounts, &fr)
		if n < 0 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		if err != nil && n != 0 {
			t.Fatalf("Decode consumed %d bytes AND returned %v", n, err)
		}
		if err == nil {
			if n < HeaderSize {
				t.Fatalf("accepted a %d-byte frame below the header size", n)
			}
			// Accessors on an accepted frame must be in-bounds.
			switch fr.Type {
			case TypeCounts:
				var sum uint64
				for i := 0; i < fr.NumCounts(); i++ {
					sum += uint64(fr.Count(i))
				}
				if sum != fr.Sum() {
					t.Fatalf("Sum %d != per-count total %d", fr.Sum(), sum)
				}
			case TypeAck, TypeOverloaded:
				_ = fr.Cumulative()
			default:
				t.Fatalf("accepted unknown type %v", fr.Type)
			}
			// A decoded frame must re-decode identically from its own bytes.
			var fr2 Frame
			n2, err2 := Decode(data[:n], DefaultMaxCounts, &fr2)
			if err2 != nil || n2 != n || fr2.Type != fr.Type {
				t.Fatalf("re-decode diverged: (%d, %v)", n2, err2)
			}
		}

		// The streaming decoder must terminate without panicking on any
		// byte stream, including with a tighter frame bound.
		dec := NewDecoder(bytes.NewReader(data), 16)
		for {
			if err := dec.Next(&fr); err != nil {
				if errors.Is(err, ErrShort) {
					t.Fatalf("Decoder surfaced ErrShort: %v", err)
				}
				break
			}
		}
	})
}
