// Package wire is the length-prefixed binary framing codec of windowd's
// TCP ingest plane.  It exists because the HTTP ingest path spends its
// budget on request overhead: at millions of messages per second the
// admission controller is limited not by the window protocol but by
// header parsing, response writing and per-request goroutine churn.  A
// frame here costs a fixed 8-byte header plus 4 bytes per batch count,
// and both directions of the codec are allocation-free in steady state,
// so the ingest plane can run at the speed of the scheduler it feeds.
//
// # Frame layout (version 1)
//
//	offset  size  field
//	0       1     magic 0x57 ('W')
//	1       1     version (0x01)
//	2       1     type: 1 counts, 2 ack, 3 overloaded
//	3       1     flags: bit 0 = CRC32C trailer present (other bits must be 0)
//	4       4     payload length N, big-endian uint32
//	8       N     payload
//	8+N     0|4   CRC32C (Castagnoli) over bytes [0, 8+N), big-endian
//
// A counts frame (client → server) carries N/4 big-endian uint32 batch
// counts; N must be a multiple of 4 and at most 4·MaxCounts for the
// decoder's configured bound.  An ack or overloaded frame (server →
// client) carries exactly 8 payload bytes: the big-endian uint64
// cumulative number of counts frames the server has absorbed on this
// connection.
//
// # Versioning and compatibility
//
// The version byte is a hard gate: a decoder only accepts frames of its
// own version, and any redefinition of the layout — new types beyond
// the three above, new flag bits, a different payload shape — must bump
// it.  Unknown types and unknown flag bits are decode errors rather
// than ignorable extensions precisely so a future version can assign
// them without silently corrupting old peers.
//
// # Flow control and overload
//
// The client may keep at most its credit (MinCredit or more) counts
// frames unacknowledged; the server acknowledges every AckEvery-th
// counts frame and sends a final ack when the client half-closes.
// Because credit ≥ 2·AckEvery, a client blocked on credit always has an
// ack boundary in flight, so the protocol cannot deadlock.  A server
// that is shedding load (draining, or past its owed-arrival bound)
// answers a counts frame with an overloaded frame instead of absorbing
// it and closes the connection; Client surfaces that as ErrOverloaded.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// Magic is the first byte of every frame.
	Magic = 0x57
	// Version is the codec version this package encodes and accepts.
	Version = 1
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 8
	// CRCSize is the length of the optional CRC32C trailer.
	CRCSize = 4
	// DefaultMaxCounts bounds the batch counts per frame (payload 32 KiB)
	// unless the decoder is built with an explicit bound.
	DefaultMaxCounts = 8192
	// AckEvery is the server's acknowledgement cadence: one ack per
	// AckEvery counts frames (plus a final ack at half-close).
	AckEvery = 16
	// MinCredit is the smallest admissible client credit.  It is twice
	// AckEvery so a credit-blocked client always has an ack in flight.
	MinCredit = 2 * AckEvery
)

// flagCRC marks a frame carrying a CRC32C trailer; all other flag bits
// are reserved and rejected.
const flagCRC = 0x01

// Type identifies a frame's role on the wire.
type Type uint8

const (
	// TypeCounts is a client→server batch of uint32 arrival counts.
	TypeCounts Type = 1
	// TypeAck is a server→client cumulative frame acknowledgement.
	TypeAck Type = 2
	// TypeOverloaded is a server→client load-shed notice: the frame that
	// provoked it was NOT absorbed and the connection is closing.
	TypeOverloaded Type = 3
)

func (t Type) String() string {
	switch t {
	case TypeCounts:
		return "counts"
	case TypeAck:
		return "ack"
	case TypeOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Decode errors.  ErrShort alone means "valid so far, need more bytes";
// every other error is a protocol violation and the stream is dead.
var (
	ErrShort      = errors.New("wire: incomplete frame")
	ErrMagic      = errors.New("wire: bad magic byte")
	ErrVersion    = errors.New("wire: unsupported version")
	ErrType       = errors.New("wire: unknown frame type")
	ErrFlags      = errors.New("wire: reserved flag bits set")
	ErrTooLarge   = errors.New("wire: frame exceeds the configured bound")
	ErrRagged     = errors.New("wire: counts payload is not a multiple of 4")
	ErrBadControl = errors.New("wire: ack/overloaded payload is not 8 bytes")
	ErrCRC        = errors.New("wire: checksum mismatch")
	// ErrOverloaded is what Client returns once the server has answered
	// with an overloaded frame: the last frames were shed, not absorbed.
	ErrOverloaded = errors.New("wire: server overloaded")
)

// castagnoli is the CRC32C table; Castagnoli is hardware-accelerated on
// the platforms this service targets.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is one decoded frame.  Counts-frame accessors read the payload
// in place — the payload aliases the decoder's buffer and is only valid
// until the next decode into the same Frame or Decoder.
type Frame struct {
	Type    Type
	payload []byte
}

// Sum returns the total message count of a counts frame.  It cannot
// overflow: a frame holds at most 2^32 counts of at most 2^32-1 each.
func (f *Frame) Sum() uint64 {
	var sum uint64
	for p := f.payload; len(p) >= 4; p = p[4:] {
		sum += uint64(binary.BigEndian.Uint32(p))
	}
	return sum
}

// Cumulative returns the cumulative absorbed-frame count carried by an
// ack or overloaded frame.
func (f *Frame) Cumulative() uint64 {
	return binary.BigEndian.Uint64(f.payload)
}

// AppendCounts appends one counts frame carrying the given batch counts
// to dst and returns the extended slice.  With sufficient capacity in
// dst it performs no allocation.  It panics when len(counts) exceeds
// DefaultMaxCounts — the encoder-side mirror of the decode bound.
func AppendCounts(dst []byte, counts []uint32, crc bool) []byte {
	if len(counts) > DefaultMaxCounts {
		panic("wire: counts frame exceeds DefaultMaxCounts")
	}
	start := len(dst)
	dst = appendHeader(dst, TypeCounts, crc, 4*len(counts))
	for _, c := range counts {
		dst = binary.BigEndian.AppendUint32(dst, c)
	}
	return appendCRC(dst, start, crc)
}

// AppendControl appends an ack or overloaded frame carrying the
// cumulative absorbed-frame count.  It panics on a counts type.
func AppendControl(dst []byte, t Type, cumulative uint64, crc bool) []byte {
	if t != TypeAck && t != TypeOverloaded {
		panic("wire: AppendControl wants an ack or overloaded type")
	}
	start := len(dst)
	dst = appendHeader(dst, t, crc, 8)
	dst = binary.BigEndian.AppendUint64(dst, cumulative)
	return appendCRC(dst, start, crc)
}

func appendHeader(dst []byte, t Type, crc bool, n int) []byte {
	var flags byte
	if crc {
		flags = flagCRC
	}
	dst = append(dst, Magic, Version, byte(t), flags)
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

func appendCRC(dst []byte, start int, crc bool) []byte {
	if !crc {
		return dst
	}
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.BigEndian.AppendUint32(dst, sum)
}

// Decode parses the first frame in buf into f and returns the number of
// bytes it occupies.  maxCounts bounds the batch counts a counts frame
// may carry (0 means DefaultMaxCounts).  When buf holds a prefix of a
// frame that is valid so far, Decode returns (0, ErrShort); any other
// error is a protocol violation.  Decode never reads past len(buf) and
// never allocates: f's payload aliases buf.
func Decode(buf []byte, maxCounts int, f *Frame) (int, error) {
	if maxCounts <= 0 {
		maxCounts = DefaultMaxCounts
	}
	// Validate the header prefix byte by byte so garbage is rejected as
	// early as possible — before waiting for bytes that will never come.
	if len(buf) < 1 {
		return 0, ErrShort
	}
	if buf[0] != Magic {
		return 0, ErrMagic
	}
	if len(buf) < 2 {
		return 0, ErrShort
	}
	if buf[1] != Version {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrVersion, buf[1], Version)
	}
	if len(buf) < 3 {
		return 0, ErrShort
	}
	t := Type(buf[2])
	if t != TypeCounts && t != TypeAck && t != TypeOverloaded {
		return 0, fmt.Errorf("%w: %d", ErrType, buf[2])
	}
	if len(buf) < 4 {
		return 0, ErrShort
	}
	flags := buf[3]
	if flags&^byte(flagCRC) != 0 {
		return 0, fmt.Errorf("%w: 0x%02x", ErrFlags, flags)
	}
	if len(buf) < HeaderSize {
		return 0, ErrShort
	}
	n := int(binary.BigEndian.Uint32(buf[4:8]))
	switch t {
	case TypeCounts:
		if n > 4*maxCounts {
			return 0, fmt.Errorf("%w: %d payload bytes > %d", ErrTooLarge, n, 4*maxCounts)
		}
		if n%4 != 0 {
			return 0, fmt.Errorf("%w: %d bytes", ErrRagged, n)
		}
	default:
		if n != 8 {
			return 0, fmt.Errorf("%w: %d bytes", ErrBadControl, n)
		}
	}
	total := HeaderSize + n
	if flags&flagCRC != 0 {
		total += CRCSize
	}
	if len(buf) < total {
		return 0, ErrShort
	}
	if flags&flagCRC != 0 {
		want := binary.BigEndian.Uint32(buf[total-CRCSize : total])
		if got := crc32.Checksum(buf[:total-CRCSize], castagnoli); got != want {
			return 0, fmt.Errorf("%w: computed %08x, trailer %08x", ErrCRC, got, want)
		}
	}
	f.Type = t
	f.payload = buf[HeaderSize : HeaderSize+n]
	return total, nil
}

// MaxFrameSize returns the largest frame the given counts bound admits,
// including header and CRC trailer.
func MaxFrameSize(maxCounts int) int {
	if maxCounts <= 0 {
		maxCounts = DefaultMaxCounts
	}
	return HeaderSize + 4*maxCounts + CRCSize
}

// Decoder reads a frame stream from an io.Reader through one
// connection-scoped buffer sized from the frame bound.  Steady-state
// Next calls perform no allocations; decoded payloads alias the buffer
// and are valid until the next Next call.
type Decoder struct {
	r         io.Reader
	buf       []byte
	lo, hi    int // buffered bytes live in buf[lo:hi]
	maxCounts int
}

// NewDecoder builds a Decoder with the given per-frame counts bound
// (0 means DefaultMaxCounts).  The read buffer holds several maximal
// frames so one syscall feeds many decodes.
func NewDecoder(r io.Reader, maxCounts int) *Decoder {
	if maxCounts <= 0 {
		maxCounts = DefaultMaxCounts
	}
	size := 4 * MaxFrameSize(maxCounts)
	if size < 64<<10 {
		size = 64 << 10
	}
	return &Decoder{r: r, buf: make([]byte, size), maxCounts: maxCounts}
}

// Next decodes the next frame into f.  A clean end of stream at a frame
// boundary is io.EOF; an end of stream inside a frame is
// io.ErrUnexpectedEOF; protocol violations are the Decode errors.
func (d *Decoder) Next(f *Frame) error {
	for {
		n, err := Decode(d.buf[d.lo:d.hi], d.maxCounts, f)
		if err == nil {
			d.lo += n
			return nil
		}
		if !errors.Is(err, ErrShort) {
			return err
		}
		if err := d.fill(); err != nil {
			if err == io.EOF && d.lo != d.hi {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
}

// fill reads more bytes into the buffer, compacting the partial frame to
// the front when the tail has no room.
func (d *Decoder) fill() error {
	if d.lo == d.hi {
		d.lo, d.hi = 0, 0
	} else if d.hi == len(d.buf) {
		copy(d.buf, d.buf[d.lo:d.hi])
		d.hi -= d.lo
		d.lo = 0
	}
	n, err := d.r.Read(d.buf[d.hi:])
	d.hi += n
	if n > 0 {
		return nil // bytes first; a terminal error resurfaces next call
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}
