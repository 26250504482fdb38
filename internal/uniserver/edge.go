package uniserver

import (
	"errors"
	"net"
	"sync"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/sched"
	"uniint/internal/trace"
)

// The edge (readiness-driven) session path: AttachEdge serves a connection
// with ZERO steady-state goroutines. Where HandleConn parks a goroutine in
// a blocking read loop for the session's life, an edge session is three
// pool tasks — read, write, dispatch — kicked by the transport's readiness
// callback and the damage pump. A process hosting 100k idle edge sessions
// runs the same O(workers) goroutines as one hosting ten.

// edgeTransport is the readiness contract AttachEdge requires of its
// connection (netsim.EventConn satisfies it): arrival is signalled through
// a callback and buffered bytes are drained without blocking.
type edgeTransport interface {
	net.Conn
	// OnReadable installs the arrival callback; it must also fire at close.
	OnReadable(func())
	// ReadAvailable copies buffered bytes without blocking: (0, nil) means
	// drained-but-open, (0, io.EOF) means closed and drained.
	ReadAvailable(p []byte) (int, error)
}

// ErrNotEdge reports a conn without the readiness interface AttachEdge
// needs (OnReadable + ReadAvailable).
var ErrNotEdge = errors.New("uniserver: conn is not readiness-driven (need OnReadable/ReadAvailable)")

// edgeReadBudget bounds the bytes one read turn consumes before
// re-queueing itself, so a flooding client shares workers fairly with
// every other session instead of pinning one.
const edgeReadBudget = 64 << 10

// edgeBufPool holds the per-turn read scratch. Like turnScratch, it is
// checked out per turn, so read-buffer memory is O(concurrent read turns),
// not O(sessions).
var edgeBufPool = sync.Pool{
	New: func() any { b := make([]byte, 8<<10); return &b },
}

// AttachEdge handshakes and serves one readiness-driven connection, then
// returns — the session's life continues on the server's worker pool with
// no goroutine of its own. The handshake blocks the caller (bounded by
// HandshakeTimeout; brief when the client pipelined its hello, see
// rfb.ClientHello). onClose, if non-nil, runs once after the session has
// fully retired — the hub passes its entry unpin here. Resume-token
// semantics are identical to HandleConn: a live token reclaims the parked
// session, disconnects park in the detach lot.
func (s *Server) AttachEdge(conn net.Conn, onClose func()) error {
	et, ok := conn.(edgeTransport)
	if !ok {
		conn.Close()
		return ErrNotEdge
	}
	w, h := s.display.Size()
	routeStart, routeEnd, _ := trace.RouteSpan(conn)
	var reclaimed *parkedSession
	hsTimer := sched.Shared().AfterFunc(HandshakeTimeout, func() { conn.Close() })
	rc, err := rfb.NewEdgeServerConn(conn, w, h, s.name, s.exchange(w, h, &reclaimed))
	hsTimer.Stop()
	if err != nil {
		if reclaimed != nil {
			s.releaseClaim(reclaimed)
		}
		return err
	}
	sess := &session{
		srv:        s,
		conn:       rc,
		token:      rc.Token(),
		routeStart: routeStart,
		routeEnd:   routeEnd,
		dirty:      gfx.NewDamage(gfx.R(0, 0, w, h), 16),
		outbox:     gfx.NewDamage(gfx.R(0, 0, w, h), 16),
		bounds:     gfx.R(0, 0, w, h),
		ws:         rfb.NewWireState(s.tiles, w, h),
		edge:       et,
		onClose:    onClose,
	}
	sess.writeTask = s.pool.NewTask(sess.writerTurn)
	sess.dispatchTask = s.pool.NewTask(sess.dispatchTurn)
	sess.readTask = s.pool.NewTask(sess.readTurn)
	// The session joins the server's connection wait group so Close blocks
	// until the teardown turn has fully retired it — the same guarantee
	// HandleConn's blocking call gives for free.
	s.wg.Add(1)
	resumed := reclaimed != nil
	if !s.register(sess, reclaimed) {
		s.wg.Done()
		rc.Close()
		return errors.New("uniserver: server closed")
	}
	mSessions.Inc()
	if resumed {
		sess.satisfyParkedRequest()
		sess.wake()
		sess.wakeDispatch()
	}
	// Readiness wiring last: the callback fires immediately if bytes (or a
	// close) already arrived, and the explicit kick covers messages the
	// client pipelined behind its handshake, which the handshake reader
	// left in the connection's feed buffer.
	et.OnReadable(sess.readTask.Kick)
	sess.readTask.Kick()
	return nil
}

// readTurn is the edge session's read task: drain the transport's buffered
// bytes through the incremental parser, dispatching messages to the same
// ServerHandler methods the blocking read loop would. On transport close
// or a protocol error it runs the session teardown inline — the turn-based
// equivalent of HandleConn returning.
func (c *session) readTurn() {
	if c.dead {
		return
	}
	bp := edgeBufPool.Get().(*[]byte)
	buf := *bp
	total := 0
	for {
		n, err := c.edge.ReadAvailable(buf)
		if n > 0 {
			total += n
			if ferr := c.conn.Feed(buf[:n], c); ferr != nil {
				err = ferr
			}
		}
		if err != nil {
			edgeBufPool.Put(bp)
			c.teardownEdge()
			return
		}
		if n == 0 {
			edgeBufPool.Put(bp)
			return // drained; the next readiness callback kicks us
		}
		if total >= edgeReadBudget {
			edgeBufPool.Put(bp)
			c.readTask.Kick() // running → rerun: back of the queue
			return
		}
	}
}

// teardownEdge retires an edge session (read turn only). It mirrors the
// tail of HandleConn: stop the sibling tasks, drain the input queue, and
// retire into the detach lot. The read task stops itself by flag — a task
// must never Stop from its own turn — and later kicks land on the dead
// check. Whether state parks or dies follows retire's usual rules.
func (c *session) teardownEdge() {
	c.dead = true
	mSessions.Dec()
	c.conn.Close()
	c.writeTask.Stop()
	c.dispatchTask.Stop()
	leftovers := c.inq.take()
	if !c.srv.retire(c, leftovers) && len(leftovers) > 0 {
		mInputAbandoned.Add(int64(len(leftovers)))
	}
	c.srv.wg.Done()
	if c.onClose != nil {
		c.onClose()
	}
}
