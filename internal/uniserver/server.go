// Package uniserver implements the UniInt server of the paper: the server
// half of the thin-client system, run where the home appliance application
// executes. It exports a toolkit display session over the universal
// interaction protocol — shipping framebuffer rectangles to the UniInt
// proxy on demand and injecting the proxy's universal keyboard/mouse
// events into the window system.
//
// Matching the paper's claim that "we need not modify existing servers of
// thin-client systems", the server contains no knowledge of interaction
// devices: all device heterogeneity is handled by the proxy.
package uniserver

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/sched"
	"uniint/internal/toolkit"
	"uniint/internal/trace"
)

// Process-wide instruments, resolved once so the hot paths touch only
// atomics. Under the multi-home hub these aggregate across every home's
// server in the process.
var (
	mSessions       = metrics.Default().Gauge("server_sessions")
	mKeyEvents      = metrics.Default().Counter("server_key_events_total")
	mPointerEvents  = metrics.Default().Counter("server_pointer_events_total")
	mUpdatesSent    = metrics.Default().Counter("server_updates_sent_total")
	mUpdateBytes    = metrics.Default().Counter("server_update_bytes_total")
	mUpdateDrops    = metrics.Default().Counter("server_update_drops_total")
	mRectsCoalesced = metrics.Default().Counter("server_rects_coalesced_total")
	mEncodeSeconds  = metrics.Default().Histogram("server_encode_seconds", metrics.LatencyBuckets())
)

// Server exports one display session to any number of proxy connections.
type Server struct {
	display *toolkit.Display
	name    string

	// pool executes all session turns (writer drains, input dispatch,
	// deferred teardown). Owned by the server unless injected with
	// WithPool — the hub injects one pool for every home, which is the
	// point: worker count is a per-process budget, not a per-session cost.
	pool    *sched.Pool
	ownPool bool

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool
	wg       sync.WaitGroup

	// pumpMu serializes render pumps; pumpBuf/pumpSess recycle the rect
	// and session-snapshot storage so the damage→render→distribute path
	// allocates nothing in steady state.
	pumpMu   sync.Mutex
	pumpBuf  []gfx.Rect
	pumpSess []*session

	// tiles is the shared content-addressed tile store the wire tier
	// publishes encoded tile bodies to (nil: no cross-session sharing;
	// each session still runs its own tile window).
	tiles *rfb.TileCache

	// The detach lot (lot.go): disconnected sessions parked under their
	// resume token, waiting out parkTTL for the owner to return.
	parkTTL    time.Duration
	parkCap    int
	lotMu      sync.Mutex
	lot        map[string]*parkedSession
	lotTimer   *sched.Timer // janitor on the shared wheel, armed on demand
	lotSweepAt time.Time
}

// HandshakeTimeout bounds the protocol handshake, so a stalled peer can
// neither park a handler goroutine forever nor pin a claimed detach-lot
// entry past reclaim.
const HandshakeTimeout = 10 * time.Second

// Option configures a Server.
type Option func(*Server)

// WithParkTTL sets how long a disconnected session stays reclaimable in
// the detach lot (default DefaultParkTTL; <= 0 disables parking and every
// disconnect tears the session down, the pre-resilience behaviour).
func WithParkTTL(d time.Duration) Option {
	return func(s *Server) { s.parkTTL = d }
}

// WithParkCapacity bounds the detach lot (default DefaultParkCapacity;
// at capacity the oldest parked session is expired to make room).
func WithParkCapacity(n int) Option {
	return func(s *Server) { s.parkCap = n }
}

// WithTileCache installs a shared content-addressed tile store: sessions
// publish freshly encoded tile bodies to it and reuse bodies other
// sessions already paid to encode. Passing the SAME cache to many servers
// (the hub does, one per home) extends the sharing across homes — the
// tentpole of the wire-efficiency tier, since a hub's homes render nearly
// identical control panels. Nil (the default) disables sharing; tile
// references within a session still work.
func WithTileCache(tc *rfb.TileCache) Option {
	return func(s *Server) { s.tiles = tc }
}

// WithPool runs the server's session turns on a shared worker pool instead
// of a private one. The caller keeps ownership: Server.Close will not close
// an injected pool. The hub passes one pool to every home it hosts, making
// the worker count a process-wide budget.
func WithPool(p *sched.Pool) Option {
	return func(s *Server) { s.pool = p }
}

// New creates a server for the given display. name is announced to
// clients during the handshake.
func New(display *toolkit.Display, name string, opts ...Option) *Server {
	s := &Server{
		display:  display,
		name:     name,
		sessions: make(map[*session]struct{}),
		parkTTL:  DefaultParkTTL,
		parkCap:  DefaultParkCapacity,
	}
	for _, o := range opts {
		o(s)
	}
	if s.parkCap < 1 {
		s.parkTTL = 0
	}
	if s.pool == nil {
		s.pool = sched.NewPool(0)
		s.ownPool = true
	}
	display.OnDamage(s.pump)
	return s
}

// Pool returns the worker pool executing this server's session turns.
func (s *Server) Pool() *sched.Pool { return s.pool }

// Display returns the served display.
func (s *Server) Display() *toolkit.Display { return s.display }

// HandleConn performs the protocol handshake on conn and serves it until
// the peer disconnects. It blocks; callers typically run it on its own
// goroutine (Serve does).
//
// A client presenting a live resume token reclaims its parked session
// during the handshake: the preserved damage, update-request state and
// input queue carry over, so the resync ships only what changed while the
// link was down. On disconnect the session parks in the detach lot
// (unless parking is disabled or the server is closing).
func (s *Server) HandleConn(conn net.Conn) error {
	w, h := s.display.Size()
	// A hub-routed connection carries its routing span (preamble read +
	// home resolution); remember it so every traced interaction arriving
	// on this connection can attach the hub_route stage.
	routeStart, routeEnd, _ := trace.RouteSpan(conn)
	var reclaimed *parkedSession
	// The handshake is bounded: a peer that stalls mid-handshake (after
	// presenting a resume token, say) must fail within the deadline so
	// its claim releases and the parked session stays reclaimable —
	// unbounded, a half-open link would hold the claim forever (the lot
	// janitor skips claimed entries). The bound is a wheel timer, not a
	// conn deadline: a process full of mid-handshake peers arms O(1) OS
	// timers, and transports without deadline support work too.
	hsTimer := sched.Shared().AfterFunc(HandshakeTimeout, func() { conn.Close() })
	rc, err := rfb.NewServerConnToken(conn, w, h, s.name, s.exchange(w, h, &reclaimed))
	hsTimer.Stop()
	if err != nil {
		if reclaimed != nil {
			// Claimed during the handshake, but the handshake failed to
			// complete: the session goes back to waiting in the lot.
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
	}
	// The tasks exist before the session is visible to the pump, so a
	// damage kick arriving mid-register always has a target.
	sess.writeTask = s.pool.NewTask(sess.writerTurn)
	sess.dispatchTask = s.pool.NewTask(sess.dispatchTurn)
	// register atomically swaps a reclaimed lot entry into the live
	// session set (under the pump mutex, so no damage falls between the
	// lot and the session) and adopts its state.
	resumed := reclaimed != nil
	if !s.register(sess, reclaimed) {
		rc.Close()
		return errors.New("uniserver: server closed")
	}
	mSessions.Inc()

	if resumed {
		// Reclaimed state may already have work: a parked request plus
		// detach-window damage ships the resync without waiting for the
		// client's first request, and replayed input events dispatch now.
		sess.satisfyParkedRequest()
		sess.wake()
		sess.wakeDispatch()
	}
	err = rc.Serve(sess)

	// Halt the dispatcher before the session stops counting as live: once
	// server_sessions drops, no further input batch is taken, so input
	// still queued parks with the session.
	sess.dispatchTask.Halt()
	mSessions.Dec()
	rc.Close()
	sess.writeTask.Stop()
	sess.dispatchTask.Stop()
	// The session's turns are over: retire it — one atomic step that
	// removes it from the pump set and parks the remaining state for a
	// reconnect (or settles the accounting when parking is off). Damage
	// pumped until that step still lands on the session and carries into
	// the lot with it.
	leftovers := sess.inq.take()
	if !s.retire(sess, leftovers) && len(leftovers) > 0 {
		mInputAbandoned.Add(int64(len(leftovers)))
	}
	return err
}

// exchange is the handshake's resume-token exchange for a w×h session: a
// live token claims its parked session into *reclaimed and hands the
// handshake the format that session negotiated; anything else gets a
// fresh token.
func (s *Server) exchange(w, h int, reclaimed **parkedSession) rfb.TokenExchange {
	return func(presented string) (string, bool, gfx.PixelFormat) {
		if s.parkTTL > 0 && presented != "" {
			if ps := s.claimParked(presented, w, h); ps != nil {
				*reclaimed = ps
				return presented, true, ps.pf
			}
			mSessResumeMiss.Inc()
		}
		return newSessionToken(), false, gfx.PixelFormat{}
	}
}

// Serve accepts proxy connections from ln until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		// goroutine-ok: Serve is the blocking-transport entry point — one
		// goroutine per accepted conn is its documented cost; goroutine-free
		// sessions use AttachEdge.
		go func() {
			defer s.wg.Done()
			_ = s.HandleConn(conn)
		}()
	}
}

// Close disconnects every session and waits for handlers started by Serve.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.conn.Close()
	}
	s.wg.Wait()
	s.drainLot()
	if s.ownPool {
		s.pool.Close()
	}
}

// Sessions returns the number of connected proxies.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Idle reports whether every live session is waiting on its client: an
// update request parked, and no request, reply or requested damage left
// for the writer. A caller that also sees its client's traffic hold still
// knows the last exchange completed, rather than inferring it from
// silence while an update is still being encoded.
func (s *Server) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for sess := range s.sessions {
		sess.mu.Lock()
		idle := sess.hasPending && len(sess.reqs) == 0 && sess.outbox.Empty() && sess.owedEmpty == 0
		sess.mu.Unlock()
		if !idle {
			return false
		}
	}
	return true
}

// pump runs after the display accumulated new damage: render once, then
// offer the fresh rectangles to every session. Pumps are serialized so the
// recycled rect buffer is never handed out twice concurrently.
func (s *Server) pump() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	rects, tid := s.display.RenderTraceInto(s.pumpBuf)
	s.pumpBuf = rects
	if len(rects) == 0 {
		return
	}
	// Snapshot the session set so s.mu is not held across the per-session
	// coalescing work (connection setup/teardown stays unblocked).
	s.mu.Lock()
	sessions := s.pumpSess[:0]
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.addDirty(rects)
		if tid != 0 {
			// This render carries a traced interaction's damage: mark the
			// session so the flush that ships it closes the trace. First
			// trace wins until a flush clears the mark (inputMark pattern).
			sess.traceMark.CompareAndSwap(0, tid)
		}
	}
	s.pumpSess = sessions
	// Parked sessions accumulate the same damage: it is exactly what the
	// incremental resync ships when their owner reconnects.
	s.addParkedDamage(rects)
}

// session is one proxy connection: per-client dirty tracking plus the
// demand-driven update state machine of the protocol.
//
// Updates are transmitted by the session's writer task — turns on the
// server's worker pool, never the read loop. This keeps the read loop
// (and the GUI goroutines firing damage hooks) from ever blocking on a
// slow transport — without it, a synchronous in-process pipe can form a
// cycle: the read loop blocks writing an update, the peer blocks writing
// a request, and neither side drains the other.
//
// The writer drains an outbox damage set rather than a queue of encoded
// updates: while a write is in flight on a slow transport, every newly
// requested rectangle merges into the pending gfx.Damage and the next
// flush ships the coalesced region as ONE FramebufferUpdate. Backpressure
// therefore reduces update count instead of growing a queue, and pixels
// are encoded at most once per flush no matter how many damage events
// landed on them.
type session struct {
	srv    *Server
	conn   *rfb.ServerConn
	token  string // resume token; keys the detach lot on disconnect
	bounds gfx.Rect

	// The session's schedulable work, as run-queue tasks on srv.pool: a
	// kick (wake/wakeDispatch) marks the task runnable, the pool runs the
	// turn, and the task state machine guarantees at-most-once queueing no
	// matter how many kicks land. An idle session holds no goroutine and
	// no timer here — just these two structs.
	writeTask    *sched.Task
	dispatchTask *sched.Task

	// Edge (readiness-driven) sessions only — nil/zero for HandleConn
	// sessions: edge is the non-blocking transport, readTask drains it on
	// readiness kicks, onClose runs once after retirement (the hub's entry
	// unpin), and dead marks a torn-down session so late kicks no-op.
	// dead is read-turn-only state; turn serialization orders its accesses.
	edge     edgeTransport
	readTask *sched.Task
	onClose  func()
	dead     bool

	// Input events are dispatched by a dedicated goroutine draining inq
	// (see inputqueue.go), the input-side twin of the writer: a home app
	// stalling inside a widget callback — a synchronous HAVi round trip —
	// can no longer stop the read loop from draining framebuffer
	// requests. lastPtrMask is read-loop-only state marking pure moves;
	// inputMark carries the oldest undispatched input's enqueue time into
	// the writer for the input→damage→update latency histogram.
	inq         inputQueue
	lastPtrMask uint8
	inputMark   atomic.Int64

	// routeStart/routeEnd hold the hub's routing span for this connection
	// (zero when not hub-routed); traceMark carries the sampled trace id
	// of the render the writer is about to ship (set by the pump, cleared
	// on successful flush — the inputMark pattern for trace ids).
	routeStart, routeEnd int64
	traceMark            atomic.Uint64

	// reqs parks protocol update requests for the writer, which pumps
	// the renderer and runs the request state machine in arrival order.
	// Requests used to be processed synchronously on the read loop, which
	// took the display widget lock there — so a dispatch stalled inside a
	// widget callback blocked framebuffer-request reads, exactly the
	// coupling the input queue exists to remove. reqs/reqSpare are
	// guarded by mu and ping-pong so the steady state allocates nothing.
	reqs     []rfb.UpdateRequest
	reqSpare []rfb.UpdateRequest

	mu         sync.Mutex
	dirty      *gfx.Damage       // damage with no outstanding request yet
	dirtySpare []gfx.Rect        // recycled storage ping-ponged through dirty.TakeInto
	pending    rfb.UpdateRequest // parked incremental request
	hasPending bool
	outbox     *gfx.Damage // requested damage awaiting the writer
	owedEmpty  int         // zero-rect replies owed (empty-region requests)
	// unacked holds the rects of updates shipped after the last request
	// read: a transport that dies now may have swallowed them, so retire
	// folds them back into the parked damage. Reading a request clears
	// it, since a demand-driven client asks again only after applying
	// what it got; the writer records an update only once it has shipped,
	// so a request read mid-send never clears it.
	unacked []gfx.Rect

	// fedResync marks a session resumed from a MIGRATED lot entry: the
	// first update it ships is the cross-node resync, counted into
	// fed_resync_bytes_total. Writer-turn-only after adopt seeds it.
	fedResync bool

	// ws is the wire tier's model of the client (shadow framebuffer +
	// tile window); writer-turn-only. Unlike turn scratch it is client
	// STATE, not scratch — it lives as long as the connection (a parked
	// session drops it) and is Reset whenever the model can no longer be
	// trusted (resume, encode error, failed send). Drain and encode
	// scratch is NOT pinned here: writer turns check a turnScratch out of
	// the central pool, so that memory scales with concurrent turns, not
	// sessions.
	ws *rfb.WireState
}

// turnScratch is the rect-drain and update-assembly scratch a writer turn
// checks out for its duration. Pooled centrally: O(workers) of it exists
// however many sessions are parked on the run-queue.
type turnScratch struct {
	rects []gfx.Rect
	urs   []rfb.UpdateRect
}

var turnScratchPool = sync.Pool{New: func() any { return new(turnScratch) }}

// enqueue merges requested rectangles into the outbox and wakes the
// writer. Rectangles landing while the outbox is non-empty are coalescing
// with an update the writer has not shipped yet — the backpressure path.
func (c *session) enqueue(rects []gfx.Rect) {
	c.mu.Lock()
	coalescing := !c.outbox.Empty()
	n := 0
	for _, r := range rects {
		if !r.Empty() {
			c.outbox.Add(r)
			n++
		}
	}
	c.mu.Unlock()
	if n == 0 {
		return
	}
	if coalescing {
		mRectsCoalesced.Add(int64(n))
	}
	c.wake()
}

func (c *session) wake() { c.writeTask.Kick() }

// writerTurn is the writer task's turn: it owns all update transmission
// for the session. One turn processes the parked protocol requests, drains
// the outbox (and owed empty replies), encodes under the display lock with
// pooled scratch, and ships one FramebufferUpdate. Work arriving mid-turn
// kicks the task again, so the pool re-queues it — nothing is lost and
// nothing busy-waits.
func (c *session) writerTurn() {
	ts := turnScratchPool.Get().(*turnScratch)
	// Process parked protocol requests first: render pending damage on
	// the writer's time, never the read loop's — the pump takes the
	// display widget lock, and a stalled widget callback must only delay
	// updates, not request reads. The resulting rects land in the outbox
	// before it drains below, so they ship within this same turn.
	c.mu.Lock()
	reqs := c.reqs
	if c.reqSpare != nil {
		c.reqs = c.reqSpare[:0]
		c.reqSpare = nil
	} else {
		c.reqs = nil
	}
	c.mu.Unlock()
	if len(reqs) > 0 {
		// Ensure damage from before these requests is rendered.
		c.srv.pump()
		for _, req := range reqs {
			c.processRequest(req)
		}
	}
	c.mu.Lock()
	if c.reqSpare == nil {
		c.reqSpare = reqs[:0]
	}
	rects := c.outbox.TakeInto(ts.rects[:0])
	empties := c.owedEmpty
	c.owedEmpty = 0
	c.mu.Unlock()
	for i := 0; i < empties; i++ {
		if err := c.conn.SendEmptyUpdate(); err != nil {
			mUpdateDrops.Inc()
		} else {
			mUpdatesSent.Inc()
		}
	}
	if len(rects) > 0 {
		c.flush(rects, ts)
	}
	ts.rects = rects
	turnScratchPool.Put(ts)
}

// flush encodes the coalesced rectangles (adaptive per-rect encoding on
// pooled scratch) and transmits them as one FramebufferUpdate.
func (c *session) flush(rects []gfx.Rect, ts *turnScratch) {
	var (
		prep *rfb.PreparedUpdate
		err  error
	)
	tid := c.traceMark.Load()
	start := time.Now()
	c.srv.display.WithFramebuffer(func(fb *gfx.Framebuffer) {
		// The session's geometry is fixed at handshake, but the display
		// may have been resized since: clip to the live framebuffer so
		// the encoder never walks outside it.
		urs := ts.urs[:0]
		for _, r := range rects {
			r = r.Intersect(fb.Bounds())
			if r.Empty() {
				continue
			}
			urs = append(urs, rfb.UpdateRect{Rect: r, Encoding: rfb.EncAdaptive})
		}
		ts.urs = urs
		if len(urs) == 0 {
			return
		}
		prep, err = c.conn.PrepareUpdateWire(fb, urs, c.ws)
	})
	encDur := time.Since(start)
	if tid != 0 {
		encEnd := start.UnixNano() + int64(encDur)
		trace.Record(tid, trace.StageEncode, start.UnixNano(), encEnd)
		mEncodeSeconds.ObserveExemplar(encDur.Seconds(), tid)
	} else {
		mEncodeSeconds.ObserveDuration(encDur)
	}
	if prep == nil && err == nil {
		// Everything clipped away (display shrunk under the session):
		// answer with an empty update to keep request/reply pairing.
		if c.conn.SendEmptyUpdate() != nil {
			mUpdateDrops.Inc()
		} else {
			mUpdatesSent.Inc()
		}
		return
	}
	if err != nil {
		return // encoding failure: drop the update, connection stays up
	}
	size := prep.Size()
	sendT0 := int64(0)
	if tid != 0 {
		sendT0 = time.Now().UnixNano()
	}
	if err := c.conn.SendPrepared(prep); err != nil {
		// Transport failure: the read loop will observe it and tear the
		// session down. The pixels were consumed from the dirty set but
		// never reached the client — put them back, so the state that
		// parks in the detach lot is complete and the resync after a
		// resume re-covers them instead of leaving the client stale.
		// The wire model assumed the client applied this update (the
		// shadow and tile window were committed during prepare); the
		// client's true state is now unknown, so distrust the model.
		mUpdateDrops.Inc()
		c.ws.Reset()
		c.mu.Lock()
		for _, r := range rects {
			c.dirty.Add(r)
		}
		c.mu.Unlock()
		return
	}
	mUpdatesSent.Inc()
	mUpdateBytes.Add(int64(size))
	c.mu.Lock()
	c.unacked = append(c.unacked, rects...)
	c.mu.Unlock()
	if c.fedResync {
		c.fedResync = false
		mFedResyncBytes.Add(int64(size))
	}
	// Close the input→damage→update loop: this update is the first to
	// ship since an input event was dispatched, so it (approximately)
	// carries that input's visual consequence.
	if mark := c.inputMark.Swap(0); mark != 0 {
		v := float64(time.Now().UnixNano()-mark) / 1e9
		if tid != 0 {
			mInputToUpdateSec.ObserveExemplar(v, tid)
		} else {
			mInputToUpdateSec.Observe(v)
		}
	}
	if tid != 0 {
		// The flush span completes the interaction (pixels on the wire);
		// clear the mark only now, so a failed send leaves the trace open
		// for the retried update that actually ships the damage.
		trace.Record(tid, trace.StageFlush, sendT0, time.Now().UnixNano())
		c.traceMark.Store(0)
	}
}

var _ rfb.ServerHandler = (*session)(nil)

// KeyEvent implements rfb.ServerHandler: universal input → input queue →
// window system. The read loop only enqueues; dispatchLoop injects.
func (c *session) KeyEvent(ev rfb.KeyEvent) {
	mKeyEvents.Inc()
	now := time.Now().UnixNano()
	tid := c.takeEventTrace(now)
	c.inq.put(inputEvent{enq: now, trace: tid, key: ev})
	c.wakeDispatch()
}

// PointerEvent implements rfb.ServerHandler. An event that changes no
// buttons relative to the previous pointer event on this connection is a
// pure move — the only kind the queue may coalesce under backpressure.
func (c *session) PointerEvent(ev rfb.PointerEvent) {
	mPointerEvents.Inc()
	now := time.Now().UnixNano()
	tid := c.takeEventTrace(now)
	c.inq.put(inputEvent{enq: now, trace: tid, ptr: ev, pointer: true, move: move(c, ev)})
	c.wakeDispatch()
}

func move(c *session, ev rfb.PointerEvent) bool {
	m := ev.Buttons == c.lastPtrMask
	c.lastPtrMask = ev.Buttons
	return m
}

// takeEventTrace consumes the trace context the wire attached to the
// event currently being dispatched (read-loop-synchronous). For a traced
// event it closes the wire span — client transport write to server parse,
// one clock, in-process — and attaches the connection's hub_route span
// under the interaction's id with its true (earlier) timestamps.
func (c *session) takeEventTrace(now int64) uint64 {
	tid, sent := c.conn.TakeTraceContext()
	if tid == 0 {
		return 0
	}
	trace.Record(tid, trace.StageWire, sent, now)
	if c.routeEnd != 0 {
		trace.Record(tid, trace.StageHubRoute, c.routeStart, c.routeEnd)
	}
	return tid
}

func (c *session) wakeDispatch() { c.dispatchTask.Kick() }

// CutText implements rfb.ServerHandler (ignored; appliances do not paste).
func (c *session) CutText(string) {}

// UpdateRequest implements rfb.ServerHandler: park the request for the
// writer and return. The read loop neither blocks on the transport nor
// takes the display widget lock — both the render pump and the request
// state machine run on the writer goroutine (processRequest).
func (c *session) UpdateRequest(req rfb.UpdateRequest) {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	c.unacked = c.unacked[:0]
	c.mu.Unlock()
	c.wake()
}

// processRequest runs the request state machine (writer goroutine).
// Non-incremental requests are answered with the full region; incremental
// requests are answered when damage exists, otherwise parked until damage
// arrives. All replies flow through the writer's coalescing outbox.
func (c *session) processRequest(req rfb.UpdateRequest) {
	if !req.Incremental {
		region := req.Region.Intersect(c.bounds)
		c.mu.Lock()
		// The full-region resend supersedes pending damage inside it;
		// damage outside the requested region stays collectable by a
		// later request instead of being dropped.
		drained := c.drainDirtyLocked(region)
		c.hasPending = false
		if region.Empty() {
			// Every non-incremental request gets exactly one reply, even
			// when the region clips to nothing.
			c.owedEmpty++
			c.mu.Unlock()
			c.recycleDirty(drained)
			c.wake()
			return
		}
		c.mu.Unlock()
		c.recycleDirty(drained) // contents unused: region covers them
		c.enqueue([]gfx.Rect{region})
		return
	}
	c.mu.Lock()
	rects := c.drainDirtyLocked(req.Region)
	if len(rects) == 0 {
		// No damage inside the requested region (pending damage outside
		// it, if any, went back to the dirty set): park the request.
		c.pending = req
		c.hasPending = true
		c.mu.Unlock()
		c.recycleDirty(rects)
		return
	}
	c.mu.Unlock()
	c.enqueue(rects)
	c.recycleDirty(rects)
}

// drainDirtyLocked drains the dirty set for a request covering region:
// parts inside region are returned clipped (in recycled storage), parts
// outside are re-added to the dirty set so a later request still collects
// them. c.mu must be held; hand the storage back via recycleDirty once the
// rectangles are consumed.
func (c *session) drainDirtyLocked(region gfx.Rect) []gfx.Rect {
	taken := c.takeDirtyLocked()
	out := taken[:0]
	var tmp [4]gfx.Rect
	for _, r := range taken {
		in := r.Intersect(region)
		if in != r { // some of r lies outside the requested region
			for _, rest := range r.SubtractInto(tmp[:0], region) {
				c.dirty.Add(rest)
			}
		}
		if !in.Empty() {
			out = append(out, in)
		}
	}
	return out
}

// takeDirtyLocked drains the dirty set into recycled storage (c.mu held).
// Once the returned rectangles are consumed, hand the storage back with
// recycleDirty so the steady-state request path stops allocating.
func (c *session) takeDirtyLocked() []gfx.Rect {
	spare := c.dirtySpare
	c.dirtySpare = nil
	return c.dirty.TakeInto(spare)
}

func (c *session) recycleDirty(rects []gfx.Rect) {
	c.mu.Lock()
	if c.dirtySpare == nil {
		c.dirtySpare = rects
	}
	c.mu.Unlock()
}

// satisfyParkedRequest runs the pending-request satisfaction step for a
// freshly resumed session: a request parked before the disconnect plus
// damage accumulated while detached is a pairing addDirty normally
// resolves on arrival, but here both halves arrive together out of the
// lot.
func (c *session) satisfyParkedRequest() {
	c.mu.Lock()
	if !c.hasPending || c.dirty.Empty() {
		c.mu.Unlock()
		return
	}
	out := c.drainDirtyLocked(c.pending.Region)
	if len(out) == 0 {
		c.mu.Unlock()
		c.recycleDirty(out)
		return
	}
	c.hasPending = false
	c.mu.Unlock()
	c.enqueue(out)
	c.recycleDirty(out)
}

// addDirty accumulates fresh damage and satisfies a parked request.
func (c *session) addDirty(rects []gfx.Rect) {
	c.mu.Lock()
	hadDirty := !c.dirty.Empty()
	for _, r := range rects {
		c.dirty.Add(r)
	}
	if !c.hasPending || c.dirty.Empty() {
		coalesced := !c.hasPending && hadDirty && len(rects) > 0
		c.mu.Unlock()
		if coalesced {
			// No request is waiting and damage was already pending: the
			// client is lagging the screen, so these rects merge into
			// the accumulated set and will ship together — coalesced —
			// on the next request. (A single rect landing on a clean
			// session is just normal demand-driven flow and is not
			// counted.)
			mRectsCoalesced.Add(int64(len(rects)))
		}
		return
	}
	out := c.drainDirtyLocked(c.pending.Region)
	if len(out) == 0 {
		// The new damage lies entirely outside the parked request's
		// region: it stays in the dirty set, the request stays parked.
		c.mu.Unlock()
		c.recycleDirty(out)
		return
	}
	c.hasPending = false
	c.mu.Unlock()
	c.enqueue(out)
	c.recycleDirty(out)
}
