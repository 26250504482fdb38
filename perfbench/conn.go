package main

import (
	"encoding/binary"
	"net"
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp the benchmark takes: nanoseconds on the
// monotonic clock since process start, so zero can mean "not yet".
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) + 1 }

// meteredConn counts the bytes crossing a connection in each direction.
// When stamps is non-nil it also timestamps the reads and writes the
// per-layer spans are cut from. Every net.Conn method is delegated, so
// the program sees the same transport it would without the wrapper.
type meteredConn struct {
	net.Conn
	in, out atomic.Int64
	// seq orders the last read and the last update request written, so a
	// client can tell whether it has re-armed since the last update.
	seq, readSeq, requestSeq atomic.Int64
	st                       *stamps
}

// stamps are the per-connection timestamps of a traced run. The "since
// mark" fields hold the first event after the last mark (0 until then);
// a client marks them at the start of each interaction.
type stamps struct {
	acceptAt  atomic.Int64 // listener Accept returned (server side)
	handleAt  atomic.Int64 // Host.HandleConn entered (server side)
	writes    atomic.Int64 // Write calls so far
	updateAt  atomic.Int64 // first write after the three handshake flushes (server side)
	lastRead  atomic.Int64
	readAt    atomic.Int64 // first read since mark
	writeAt   atomic.Int64 // first write since mark
	keyReadAt atomic.Int64 // first read carrying a KeyEvent since mark
	keyWrAt   atomic.Int64 // first write carrying a KeyEvent since mark
}

// serverHandshakeWrites is how many transport writes the server side of
// the handshake makes (version, security, ServerInit); the next write
// carries the first framebuffer update.
const serverHandshakeWrites = 3

func newMetered(c net.Conn, traced bool) *meteredConn {
	m := &meteredConn{Conn: c}
	if traced {
		m.st = &stamps{}
	}
	return m
}

// mark starts a new "since mark" window.
func (m *meteredConn) mark() {
	if st := m.st; st != nil {
		st.readAt.Store(0)
		st.writeAt.Store(0)
		st.keyReadAt.Store(0)
		st.keyWrAt.Store(0)
	}
}

func (m *meteredConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	if n > 0 {
		m.in.Add(int64(n))
		m.readSeq.Store(m.seq.Add(1))
		if st := m.st; st != nil {
			t := now()
			st.lastRead.Store(t)
			st.readAt.CompareAndSwap(0, t)
			if carriesKeyEvent(p[:n]) {
				st.keyReadAt.CompareAndSwap(0, t)
			}
		}
	}
	return n, err
}

func (m *meteredConn) Write(p []byte) (int, error) {
	var t int64
	if m.st != nil {
		t = now()
	}
	n, err := m.Conn.Write(p)
	m.out.Add(int64(n))
	if n > 0 && p[0] == 3 { // FramebufferUpdateRequest
		m.requestSeq.Store(m.seq.Add(1))
	}
	if st := m.st; st != nil && n > 0 {
		if st.writes.Add(1) == serverHandshakeWrites+1 {
			st.updateAt.Store(t)
		}
		st.writeAt.CompareAndSwap(0, t)
		if carriesKeyEvent(p[:n]) {
			st.keyWrAt.CompareAndSwap(0, t)
		}
	}
	return n, err
}

// rearmed reports whether an update request was written after the last
// read, i.e. the viewer has asked for the next update.
func (m *meteredConn) rearmed() bool { return m.requestSeq.Load() > m.readSeq.Load() }

// carriesKeyEvent walks a run of client-to-server messages (RFB 6.4 plus
// the trace-context extension) and reports whether it holds a KeyEvent.
// A run that does not start on a message boundary, or that holds a type
// it cannot size, reports false; tracing then skips that interaction.
func carriesKeyEvent(b []byte) bool {
	for len(b) > 0 {
		var size int
		switch b[0] {
		case 0: // SetPixelFormat
			size = 20
		case 2: // SetEncodings
			if len(b) < 4 {
				return false
			}
			size = 4 + 4*int(binary.BigEndian.Uint16(b[2:4]))
		case 3: // FramebufferUpdateRequest
			size = 10
		case 4: // KeyEvent
			return true
		case 5: // PointerEvent
			size = 6
		case 7: // trace context
			size = 17
		default:
			return false
		}
		if size > len(b) {
			return false
		}
		b = b[size:]
	}
	return false
}

// meteredListener wraps each accepted connection in a traced
// meteredConn and remembers it by the peer address, so a client can find
// the server end of its own connection.
type meteredListener struct {
	net.Listener
	conns *connIndex
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	m := newMetered(c, true)
	m.st.acceptAt.Store(now())
	l.conns.put(c.RemoteAddr().String(), m)
	return m, nil
}
