package wire

import (
	"fmt"
	"io"
	"net"
	"time"
)

// ClientConfig tunes a Client.  The zero value is usable: credit 64, no
// CRC trailers, DefaultMaxCounts, no ack callback.
type ClientConfig struct {
	// Credit is the maximum number of unacknowledged counts frames; Send
	// blocks reading acks once it is reached.  Values below MinCredit
	// (including 0) are raised to max(MinCredit, 64).
	Credit int
	// CRC appends a CRC32C trailer to every outgoing frame.
	CRC bool
	// MaxCounts bounds the counts per outgoing frame (encoder side) and
	// is the decoder bound for the ack stream.
	MaxCounts int
	// OnAck, when set, is called once per acknowledged counts frame with
	// the time from the frame's socket write to its covering ack — the
	// per-frame ingest round trip under credit pressure.
	OnAck func(rtt time.Duration)
}

// Client is the sending half of the ingest protocol: it frames batch
// counts, batches frames into large writes, enforces the credit bound by
// consuming acks, and surfaces server overload as ErrOverloaded.  A
// Client is single-goroutine: all ack reading happens inside Send, Flush
// and Drain, so no locking or reader goroutine is needed.
type Client struct {
	conn    io.ReadWriter
	dec     *Decoder
	cfg     ClientConfig
	wbuf    []byte
	f       Frame
	sent    uint64 // counts frames appended (encoded)
	flushed uint64 // counts frames written to the socket
	acked   uint64 // counts frames acknowledged by the server
	times   []time.Time
	err     error
}

// flushThreshold triggers an automatic socket write when the encode
// buffer reaches this size, amortizing one syscall over many frames.
const flushThreshold = 32 << 10

// NewClient wraps a connection (anything io.ReadWriter; net.Conn in
// production) in a Client.
func NewClient(conn io.ReadWriter, cfg ClientConfig) *Client {
	if cfg.Credit < MinCredit {
		cfg.Credit = MinCredit
		if cfg.Credit < 64 {
			cfg.Credit = 64
		}
	}
	if cfg.MaxCounts <= 0 {
		cfg.MaxCounts = DefaultMaxCounts
	}
	return &Client{
		conn:  conn,
		dec:   NewDecoder(conn, cfg.MaxCounts),
		cfg:   cfg,
		wbuf:  make([]byte, 0, flushThreshold+MaxFrameSize(cfg.MaxCounts)),
		times: make([]time.Time, cfg.Credit),
	}
}

// Acked returns the number of counts frames the server has acknowledged.
func (c *Client) Acked() uint64 { return c.acked }

// Send frames the batch counts and queues them for the socket.  It
// blocks consuming acks when the credit bound is reached, and flushes
// automatically when the encode buffer is full.
func (c *Client) Send(counts []uint32) error {
	if c.err != nil {
		return c.err
	}
	if len(counts) > c.cfg.MaxCounts {
		return c.fail(fmt.Errorf("wire: batch of %d counts exceeds the frame bound %d", len(counts), c.cfg.MaxCounts))
	}
	for c.sent-c.acked >= uint64(c.cfg.Credit) {
		if err := c.flush(); err != nil {
			return err
		}
		if err := c.readAck(); err != nil {
			return err
		}
	}
	c.wbuf = AppendCounts(c.wbuf, counts, c.cfg.CRC)
	c.sent++
	if len(c.wbuf) >= flushThreshold {
		return c.flush()
	}
	return nil
}

// Flush writes any buffered frames to the socket.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	return c.flush()
}

func (c *Client) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return c.fail(err)
	}
	c.wbuf = c.wbuf[:0]
	// The frames just hit the socket: stamp them for round-trip timing.
	now := time.Now()
	for seq := c.flushed; seq < c.sent; seq++ {
		c.times[seq%uint64(len(c.times))] = now
	}
	c.flushed = c.sent
	return nil
}

// readAck consumes one server frame and applies it.
func (c *Client) readAck() error {
	if err := c.dec.Next(&c.f); err != nil {
		return c.fail(err)
	}
	switch c.f.Type {
	case TypeAck:
		c.applyAck(c.f.Cumulative())
		return nil
	case TypeOverloaded:
		c.applyAck(c.f.Cumulative())
		return c.fail(ErrOverloaded)
	}
	return c.fail(fmt.Errorf("wire: unexpected %s frame from server", c.f.Type))
}

func (c *Client) applyAck(cum uint64) {
	if cum > c.flushed {
		cum = c.flushed // a lying server must not corrupt the ring
	}
	now := time.Now()
	for seq := c.acked; seq < cum; seq++ {
		if c.cfg.OnAck != nil {
			c.cfg.OnAck(now.Sub(c.times[seq%uint64(len(c.times))]))
		}
	}
	if cum > c.acked {
		c.acked = cum
	}
}

// Drain flushes, half-closes the write side so the server emits its
// final ack, and consumes acks until every sent frame is accounted for.
// After Drain the client cannot send.  It returns ErrOverloaded when the
// server shed the tail of the stream.
func (c *Client) Drain() error {
	if c.err != nil {
		return c.err
	}
	if err := c.flush(); err != nil {
		return err
	}
	if cw, ok := c.conn.(interface{ CloseWrite() error }); ok {
		if err := cw.CloseWrite(); err != nil {
			return c.fail(err)
		}
	}
	for c.acked < c.sent {
		if err := c.readAck(); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return c.fail(fmt.Errorf("wire: server closed with %d of %d frames unacknowledged", c.sent-c.acked, c.sent))
			}
			return err
		}
	}
	return nil
}

// Close closes the underlying connection when it supports it.
func (c *Client) Close() error {
	if cl, ok := c.conn.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// Dial connects to a windowd TCP ingest address and wraps the
// connection in a Client.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return NewClient(conn, cfg), nil
}

func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}
