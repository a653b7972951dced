package main

import (
	"io"
	"net"
	"sync"
	"time"

	"windowctl/internal/wire"
)

// tcpPlane is the binary ingest plane: one accept loop, one reader
// goroutine per connection, frames decoded straight into the owed-
// arrival ledger.  There are no channel hops and no per-message locks —
// a decoded counts frame goes through admit, the same booking an HTTP
// 202 performs, so everything downstream (pump absorption, release
// law, drain accounting) is transport-agnostic.
type tcpPlane struct {
	s  *server
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// startTCP attaches a TCP ingest listener to the server and starts its
// accept loop.  It must be called before serving begins.
func (s *server) startTCP(ln net.Listener) {
	t := &tcpPlane{s: s, ln: ln, conns: make(map[net.Conn]struct{})}
	s.tcp = t
	t.wg.Add(1)
	go t.acceptLoop()
}

// tcpAddr reports the bound ingest address ("" when the plane is off);
// /config GET exposes it so clients can autodiscover the fast path.
func (s *server) tcpAddr() string {
	if s.tcp == nil {
		return ""
	}
	return s.tcp.ln.Addr().String()
}

func (t *tcpPlane) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed (drain) or fatal accept error
		}
		if !t.register(conn) {
			conn.Close()
			return
		}
		t.wg.Add(1)
		go t.handle(conn)
	}
}

func (t *tcpPlane) register(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

func (t *tcpPlane) unregister(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
}

// close shuts the listener and every open connection; it is idempotent
// and safe from any goroutine (beginDrain calls it).
func (t *tcpPlane) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.closed = true
	t.ln.Close()
	for c := range t.conns {
		c.Close()
	}
}

// shutdownTCP closes the plane and waits (bounded) for the reader
// goroutines to finish, so the pump's final drain accounting runs after
// the last in-flight frame has been absorbed.  No-op without a plane.
func (s *server) shutdownTCP(timeout time.Duration) {
	if s.tcp == nil {
		return
	}
	s.tcp.close()
	done := make(chan struct{})
	go func() { s.tcp.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
	}
}

// handle is the per-connection reader: a connection-scoped decoder
// buffer sized from the frame bound, counts frames summed in place and
// booked through admit, an ack every wire.AckEvery frames and a final
// ack at half-close.  A frame admit refuses (the server is draining or
// past its owed-arrival bound) is answered with an overloaded frame —
// NOT absorbed — and the connection closes; everything acknowledged
// before that point is absorbed-then-verified exactly like an HTTP 202.
func (t *tcpPlane) handle(conn net.Conn) {
	defer t.wg.Done()
	defer t.unregister(conn)
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	s := t.s
	s.tcpConns.Add(1)
	defer s.tcpConns.Add(-1)

	dec := wire.NewDecoder(conn, wire.DefaultMaxCounts)
	var f wire.Frame
	var frames uint64
	out := make([]byte, 0, wire.HeaderSize+8+wire.CRCSize)
	for {
		err := dec.Next(&f)
		if err == io.EOF {
			// Clean half-close: a final ack settles the client's Drain.
			conn.Write(wire.AppendControl(out[:0], wire.TypeAck, frames, false))
			return
		}
		if err != nil {
			return // closed mid-frame, torn stream, or protocol violation
		}
		if f.Type != wire.TypeCounts {
			return // clients may only send counts frames
		}
		if s.admit(int64(f.Sum()), &s.viaTCP) != nil {
			conn.Write(wire.AppendControl(out[:0], wire.TypeOverloaded, frames, false))
			return
		}
		frames++
		s.tcpFrames.Add(1)
		if frames%wire.AckEvery == 0 {
			if _, err := conn.Write(wire.AppendControl(out[:0], wire.TypeAck, frames, false)); err != nil {
				return
			}
		}
	}
}
