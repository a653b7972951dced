package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/iotest"
	"time"
)

// TestRoundTrip encodes a random frame sequence and decodes it back,
// both frame-by-frame from the flat buffer and through a Decoder fed
// one byte at a time (the worst-case refill/compaction path).
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type sent struct {
		t      Type
		counts []uint32
		cum    uint64
	}
	var frames []sent
	var buf []byte
	for i := 0; i < 200; i++ {
		crc := rng.Intn(2) == 0
		switch rng.Intn(3) {
		case 0:
			counts := make([]uint32, rng.Intn(50))
			for j := range counts {
				counts[j] = rng.Uint32()
			}
			buf = AppendCounts(buf, counts, crc)
			frames = append(frames, sent{t: TypeCounts, counts: counts})
		case 1:
			c := rng.Uint64()
			buf = AppendControl(buf, TypeAck, c, crc)
			frames = append(frames, sent{t: TypeAck, cum: c})
		default:
			c := rng.Uint64()
			buf = AppendControl(buf, TypeOverloaded, c, crc)
			frames = append(frames, sent{t: TypeOverloaded, cum: c})
		}
	}

	check := func(t *testing.T, i int, f *Frame) {
		t.Helper()
		want := frames[i]
		if f.Type != want.t {
			t.Fatalf("frame %d: type %v, want %v", i, f.Type, want.t)
		}
		if want.t == TypeCounts {
			if f.NumCounts() != len(want.counts) {
				t.Fatalf("frame %d: %d counts, want %d", i, f.NumCounts(), len(want.counts))
			}
			var sum uint64
			for j, c := range want.counts {
				if got := f.Count(j); got != c {
					t.Fatalf("frame %d count %d: %d, want %d", i, j, got, c)
				}
				sum += uint64(c)
			}
			if got := f.Sum(); got != sum {
				t.Fatalf("frame %d: Sum %d, want %d", i, got, sum)
			}
		} else if got := f.Cumulative(); got != want.cum {
			t.Fatalf("frame %d: cumulative %d, want %d", i, got, want.cum)
		}
	}

	t.Run("flat", func(t *testing.T) {
		rest := buf
		var f Frame
		for i := range frames {
			n, err := Decode(rest, 0, &f)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			check(t, i, &f)
			rest = rest[n:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d trailing bytes", len(rest))
		}
	})
	t.Run("streamed-one-byte", func(t *testing.T) {
		dec := NewDecoder(iotest.OneByteReader(bytes.NewReader(buf)), 0)
		var f Frame
		for i := range frames {
			if err := dec.Next(&f); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			check(t, i, &f)
		}
		if err := dec.Next(&f); err != io.EOF {
			t.Fatalf("after last frame: %v, want io.EOF", err)
		}
	})
}

// TestDecodeErrors pins the protocol-violation taxonomy: each corruption
// maps to its sentinel, and every strict prefix of a valid frame is
// ErrShort, never a panic or a bogus success.
func TestDecodeErrors(t *testing.T) {
	valid := AppendCounts(nil, []uint32{1, 2, 3}, true)
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"bad magic", []byte{0x00, 1, 1, 0, 0, 0, 0, 4}, ErrMagic},
		{"bad version", []byte{Magic, 9, 1, 0, 0, 0, 0, 4}, ErrVersion},
		{"bad type", []byte{Magic, 1, 7, 0, 0, 0, 0, 4}, ErrType},
		{"reserved flags", []byte{Magic, 1, 1, 0x82, 0, 0, 0, 4}, ErrFlags},
		{"ragged counts", []byte{Magic, 1, 1, 0, 0, 0, 0, 3}, ErrRagged},
		{"oversized counts", []byte{Magic, 1, 1, 0, 0xFF, 0xFF, 0xFF, 0xFC}, ErrTooLarge},
		{"bad ack size", []byte{Magic, 1, 2, 0, 0, 0, 0, 4}, ErrBadControl},
		{"bad overloaded size", []byte{Magic, 1, 3, 0, 0, 0, 0, 12}, ErrBadControl},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f Frame
			n, err := Decode(tc.buf, 0, &f)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode = (%d, %v), want %v", n, err, tc.want)
			}
			if n != 0 {
				t.Fatalf("consumed %d bytes of a bad frame", n)
			}
		})
	}
	t.Run("crc mismatch", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-1] ^= 0xFF
		var f Frame
		if _, err := Decode(bad, 0, &f); !errors.Is(err, ErrCRC) {
			t.Fatalf("Decode = %v, want ErrCRC", err)
		}
	})
	t.Run("prefixes are short", func(t *testing.T) {
		var f Frame
		for i := 0; i < len(valid); i++ {
			n, err := Decode(valid[:i], 0, &f)
			if !errors.Is(err, ErrShort) || n != 0 {
				t.Fatalf("prefix %d: Decode = (%d, %v), want (0, ErrShort)", i, n, err)
			}
		}
	})
	t.Run("small bound rejects", func(t *testing.T) {
		big := AppendCounts(nil, make([]uint32, 100), false)
		var f Frame
		if _, err := Decode(big, 10, &f); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("Decode with bound 10 = %v, want ErrTooLarge", err)
		}
	})
	t.Run("truncated stream", func(t *testing.T) {
		dec := NewDecoder(bytes.NewReader(valid[:len(valid)-2]), 0)
		var f Frame
		if err := dec.Next(&f); err != io.ErrUnexpectedEOF {
			t.Fatalf("Next = %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

// repeatReader serves one encoded frame forever, a frame at a time —
// an infinite, allocation-free frame source for the steady-state test.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestSteadyStateZeroAlloc is the acceptance criterion's allocation
// half: encoding a frame into a reused buffer and decoding from a warm
// Decoder must not allocate.
func TestSteadyStateZeroAlloc(t *testing.T) {
	counts := []uint32{5, 10, 15, 20, 1, 2, 3, 4}
	buf := make([]byte, 0, 256)
	var f Frame
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendCounts(buf[:0], counts, true)
		n, err := Decode(buf, 0, &f)
		if err != nil || n != len(buf) {
			t.Fatalf("Decode = (%d, %v)", n, err)
		}
		if f.Sum() != 60 {
			t.Fatal("bad sum")
		}
	}); allocs != 0 {
		t.Errorf("encode+decode allocates %.1f per frame, want 0", allocs)
	}

	dec := NewDecoder(&repeatReader{frame: AppendCounts(nil, counts, false)}, 0)
	if err := dec.Next(&f); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := dec.Next(&f); err != nil {
			t.Fatal(err)
		}
		if f.Sum() != 60 {
			t.Fatal("bad sum")
		}
	}); allocs != 0 {
		t.Errorf("streamed decode allocates %.1f per frame, want 0", allocs)
	}
}

// sinkServer is a minimal in-test ingest peer: decode counts frames,
// accumulate the sum, ack per protocol, final ack at half-close.  When
// shedAfter > 0 it answers frame shedAfter+1 with an overloaded frame.
func sinkServer(t *testing.T, ln net.Listener, shedAfter uint64, total *uint64) {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	dec := NewDecoder(conn, 0)
	var f Frame
	var frames uint64
	var out []byte
	for {
		err := dec.Next(&f)
		if err == io.EOF {
			conn.Write(AppendControl(out[:0], TypeAck, frames, false))
			return
		}
		if err != nil {
			return
		}
		if f.Type != TypeCounts {
			return
		}
		if shedAfter > 0 && frames >= shedAfter {
			conn.Write(AppendControl(out[:0], TypeOverloaded, frames, false))
			return
		}
		*total += f.Sum()
		frames++
		if frames%AckEvery == 0 {
			conn.Write(AppendControl(out[:0], TypeAck, frames, false))
		}
	}
}

func loopbackPair(t *testing.T) (net.Listener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln, ln.Addr().String()
}

// TestClientServer runs the full protocol over loopback TCP: credit
// blocking, batched flushes, per-frame round-trip callbacks, and a
// drain that accounts for every frame.
func TestClientServer(t *testing.T) {
	ln, addr := loopbackPair(t)
	var got uint64
	done := make(chan struct{})
	go func() { defer close(done); sinkServer(t, ln, 0, &got) }()

	var rtts int
	c, err := Dial(addr, ClientConfig{Credit: 32, CRC: true, OnAck: func(rtt time.Duration) {
		if rtt < 0 {
			t.Error("negative round trip")
		}
		rtts++
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const frames = 500
	var want uint64
	for i := 0; i < frames; i++ {
		counts := []uint32{uint32(i), 7}
		want += uint64(i) + 7
		if err := c.Send(counts); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if out := c.sent - c.Acked(); out > 32 {
			t.Fatalf("frame %d: %d frames outstanding, credit 32", i, out)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-done
	if got != want {
		t.Errorf("server absorbed %d messages, want %d", got, want)
	}
	if c.Acked() != frames {
		t.Errorf("acked %d frames, want %d", c.Acked(), frames)
	}
	if rtts != frames {
		t.Errorf("round-trip callback fired %d times, want %d", rtts, frames)
	}
}

// TestClientOverloaded: the server sheds mid-stream; the client must
// surface ErrOverloaded (not hang, not report success) and the ack
// counter must reflect only the absorbed prefix.
func TestClientOverloaded(t *testing.T) {
	ln, addr := loopbackPair(t)
	var got uint64
	go sinkServer(t, ln, 40, &got)

	c, err := Dial(addr, ClientConfig{Credit: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sendErr error
	for i := 0; i < 200 && sendErr == nil; i++ {
		sendErr = c.Send([]uint32{1})
	}
	if sendErr == nil {
		sendErr = c.Drain()
	}
	if !errors.Is(sendErr, ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", sendErr)
	}
	if c.Acked() != 40 {
		t.Errorf("acked %d frames, want the 40 absorbed before the shed", c.Acked())
	}
}

// TestClientRejectsOversizedBatch: the encoder enforces the same frame
// bound the decoder does.
func TestClientRejectsOversizedBatch(t *testing.T) {
	var buf bytes.Buffer
	c := NewClient(&buf, ClientConfig{MaxCounts: 8})
	if err := c.Send(make([]uint32, 9)); err == nil {
		t.Fatal("oversized batch accepted")
	}
}
