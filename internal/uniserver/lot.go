package uniserver

import (
	"crypto/rand"
	"encoding/hex"
	"time"
	"unsafe"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/sched"
	"uniint/internal/trace"
)

// The detach lot is the server half of session resilience: when a proxy's
// link dies, the session's server-side state — accumulated damage, the
// parked update request, undispatched input events — is parked under its
// resume token instead of being torn down. A reconnecting client that
// presents the token reclaims the parked state and receives an
// incremental resync (only the damage accumulated while detached); a
// token that never returns expires after the park TTL. The lot is
// bounded: at capacity the oldest parked session is expired to make room.
//
// Accounting invariant: session_parked_total + session_migrated_in_total
// == session_resumed_total + session_expired_total +
// session_migrated_out_total + session_parked (gauge) whenever no park,
// claim, or migration is in flight — federation moves a parked entry
// between lots as one migrated-out/migrated-in pair. Input events carried
// through a park window are counted (input_dispatched_total /
// input_abandoned_total) when their session resumes or expires, not at
// detach time.
var (
	mSessParked     = metrics.Default().Counter("session_parked_total")
	mSessResumed    = metrics.Default().Counter("session_resumed_total")
	mSessResumeMiss = metrics.Default().Counter("session_resume_miss_total")
	mSessExpired    = metrics.Default().Counter("session_expired_total")
	mSessParkedNow  = metrics.Default().Gauge("session_parked")
	mDetachSeconds  = metrics.Default().Histogram("session_detach_seconds", metrics.DurationBuckets())
)

// Parked-memory accounting: lot_parked_bytes is the resident size of every
// parked entry's own state — the entry itself, its dirty rects, queued
// events and token — measured when the entry enters the lot. It moves
// under lotMu wherever entries enter or leave.
var mLotParkedBytes = metrics.Default().Gauge("lot_parked_bytes")

// Default detach-lot policy: how long a disconnected session waits for
// its owner to return, and how many may wait per server. Both are
// per-server (per-home under the hub), so a hub hosting M homes parks at
// most M×DefaultParkCapacity sessions.
const (
	DefaultParkTTL      = 45 * time.Second
	DefaultParkCapacity = 64
)

// parkedSession is one disconnected session waiting in the lot. It holds
// no wire model: the resumed session starts a fresh one, distrusted until
// its first full repaint, so a parked shadow would never be read.
type parkedSession struct {
	token   string
	w, h    int  // session geometry at detach; must still match to resume
	claimed bool // a resume handshake is in flight (guarded by lotMu)

	dirty       *gfx.Damage // damage accumulated before and during detach
	dirtySpare  []gfx.Rect
	pending     rfb.UpdateRequest // parked incremental request, if any
	hasPending  bool
	events      []inputEvent // undispatched input at detach, replayed on resume
	lastPtrMask uint8
	pf          gfx.PixelFormat // negotiated format, announced on resume
	bytes       int64           // lot_parked_bytes contribution

	// migrated marks an entry installed by ImportParked — its resume's
	// first shipped update is the federation resync, counted into
	// fed_resync_bytes_total.
	migrated bool

	parkedAt time.Time
	deadline time.Time
}

// parkLocked inserts ps into the lot and its gauges. A full lot first
// gives up its oldest unclaimed entry, which parkLocked returns for the
// caller to settle with expire once lotMu is released. Claimed entries
// are mid-handshake and about to leave the lot on their own; evicting one
// would strand its resume. lotMu must be held.
func (s *Server) parkLocked(ps *parkedSession) (evicted *parkedSession) {
	if s.lot == nil {
		s.lot = make(map[string]*parkedSession)
	}
	if len(s.lot) >= s.parkCap {
		for _, e := range s.lot {
			if !e.claimed && (evicted == nil || e.parkedAt.Before(evicted.parkedAt)) {
				evicted = e
			}
		}
		if evicted != nil {
			s.unparkLocked(evicted)
		}
	}
	s.lot[ps.token] = ps
	// The footprint is measured once, on entry, so the matching unpark
	// subtracts the same figure however much damage lands meanwhile.
	ps.bytes = int64(unsafe.Sizeof(*ps)+unsafe.Sizeof(*ps.dirty)) +
		int64(len(ps.token)) +
		int64(len(ps.dirty.Peek())+cap(ps.dirtySpare))*int64(unsafe.Sizeof(gfx.Rect{})) +
		int64(cap(ps.events))*int64(unsafe.Sizeof(inputEvent{}))
	mLotParkedBytes.Add(ps.bytes)
	mSessParkedNow.Inc()
	s.scheduleSweepLocked(ps.deadline)
	return evicted
}

// unparkLocked removes ps from the lot and its gauges. lotMu must be held.
func (s *Server) unparkLocked(ps *parkedSession) {
	delete(s.lot, ps.token)
	mLotParkedBytes.Add(-ps.bytes)
	mSessParkedNow.Dec()
}

// newSessionToken issues an opaque 96-bit resume token. Token space is
// per-server, so collisions are astronomically unlikely; a failure of the
// system randomness source degrades to a session without resume.
func newSessionToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// claimParked marks the parked session for token as claimed and returns
// it, or nil when the token is unknown, already claimed, expired, or
// parked with a different geometry (the display resized while detached —
// the framebuffer the client kept no longer matches, so the resume must
// fail into a fresh session and full repaint).
//
// The entry STAYS in the lot, still accumulating pump damage, until the
// handshake completes and the new session atomically takes its place
// (finishClaim) — or the handshake fails and the claim is released
// (releaseClaim). Nothing is counted resumed here; a claim is not yet a
// resume.
func (s *Server) claimParked(token string, w, h int) *parkedSession {
	now := time.Now()
	s.lotMu.Lock()
	ps := s.lot[token]
	if ps == nil || ps.claimed {
		s.lotMu.Unlock()
		return nil
	}
	if now.After(ps.deadline) || ps.w != w || ps.h != h {
		s.unparkLocked(ps)
		s.lotMu.Unlock()
		s.expire(ps, now)
		return nil
	}
	ps.claimed = true
	s.lotMu.Unlock()
	return ps
}

// releaseClaim undoes a claim whose handshake failed: the session goes
// back to waiting out its TTL (no counters move). Safe when the entry
// was drained underneath the claim (server shutdown).
func (s *Server) releaseClaim(ps *parkedSession) {
	s.lotMu.Lock()
	if s.lot[ps.token] == ps {
		ps.claimed = false
		// The janitor skips claimed entries (and may have disarmed while
		// this one was the only resident): re-arm for its deadline so a
		// released claim still expires on time.
		s.scheduleSweepLocked(ps.deadline)
	}
	s.lotMu.Unlock()
}

// expire settles the accounting for a parked session that will never be
// claimed. Call without lotMu held.
func (s *Server) expire(ps *parkedSession, now time.Time) {
	mSessExpired.Inc()
	mDetachSeconds.ObserveDuration(now.Sub(ps.parkedAt))
	if len(ps.events) > 0 {
		mInputAbandoned.Add(int64(len(ps.events)))
	}
}

// register installs a freshly handshaked session into the live set and,
// for a resume, atomically swaps the claimed lot entry's state into it.
// It reports false when the server is closing (the caller tears the
// connection down). The whole swap runs under s.pumpMu, so no render
// pump can fire between "entry leaves the lot" and "session receives
// damage" — the window in which rects would otherwise vanish.
func (s *Server) register(sess *session, reclaimed *parkedSession) bool {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		if reclaimed != nil {
			s.releaseClaim(reclaimed) // drainLot settles (or settled) it
		}
		return false
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	if reclaimed != nil {
		s.lotMu.Lock()
		if s.lot[reclaimed.token] != reclaimed {
			// Drained underneath the claim (only shutdown does this —
			// and closed above catches that first); bail defensively.
			s.lotMu.Unlock()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
			return false
		}
		s.unparkLocked(reclaimed)
		s.lotMu.Unlock()
		sess.adopt(reclaimed)
		mSessResumed.Inc()
		mDetachSeconds.ObserveDuration(time.Since(reclaimed.parkedAt))
		// A resume is itself a traceable session-lifecycle interaction:
		// its span covers the whole detach window, under a fresh id.
		if tid := trace.Start(); tid != 0 {
			trace.Record(tid, trace.StageResume,
				reclaimed.parkedAt.UnixNano(), time.Now().UnixNano())
		}
	}
	return true
}

// retire removes a dead connection's session from the live set and
// parks its state in the lot. It reports whether the state was parked
// (false: parking disabled, server closed, or the session never got a
// token — the caller settles the input-event leftovers). events are the
// undispatched input events drained after the dispatcher exited.
//
// Removal and parking are one pumpMu critical section: a pump either
// runs before (offering damage to the still-registered session) or
// after (offering it to the lot entry) — no rect falls between the two
// structures.
func (s *Server) retire(sess *session, events []inputEvent) bool {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	s.mu.Lock()
	delete(s.sessions, sess)
	closed := s.closed
	s.mu.Unlock()
	if s.parkTTL <= 0 || sess.token == "" || closed {
		return false
	}

	// The outbox holds damage a request already claimed but the writer
	// never shipped; unacked holds what the writer shipped after the last
	// request it read, which a dying transport may have swallowed. Fold
	// both back into the dirty set so the resync re-covers them.
	sess.mu.Lock()
	for _, r := range sess.outbox.TakeInto(nil) {
		sess.dirty.Add(r)
	}
	for _, r := range sess.unacked {
		sess.dirty.Add(r)
	}
	now := time.Now()
	ps := &parkedSession{
		token:       sess.token,
		w:           sess.bounds.W,
		h:           sess.bounds.H,
		dirty:       sess.dirty,
		dirtySpare:  sess.dirtySpare,
		pending:     sess.pending,
		hasPending:  sess.hasPending,
		events:      events,
		lastPtrMask: sess.lastPtrMask,
		pf:          sess.conn.PixelFormat(),
		parkedAt:    now,
		deadline:    now.Add(s.parkTTL),
	}
	sess.dirty = nil // state moved; the session object is dead
	sess.dirtySpare = nil

	s.lotMu.Lock()
	evicted := s.parkLocked(ps)
	s.lotMu.Unlock()
	sess.mu.Unlock()

	if evicted != nil {
		s.expire(evicted, now)
	}
	mSessParked.Inc()
	return true
}

// adopt seeds a fresh session with reclaimed parked state. It runs before
// the session's writer and dispatcher start.
func (c *session) adopt(ps *parkedSession) {
	c.dirty = ps.dirty
	c.dirtySpare = ps.dirtySpare
	c.pending = ps.pending
	c.hasPending = ps.hasPending
	c.lastPtrMask = ps.lastPtrMask
	c.fedResync = ps.migrated
	// The fresh wire model assumes a black client screen; the resumed
	// client shows whatever it kept from before the detach. Distrust the
	// model, so CopyRect stays off until a full repaint revalidates it.
	c.ws.Reset()
	// Traced events that sat out the detach window get a park span —
	// detach to reclaim — under their own id, so the gap between their
	// queue enqueue and eventual dispatch is explained in the export.
	if trace.Enabled() {
		p0, now := ps.parkedAt.UnixNano(), time.Now().UnixNano()
		for i := range ps.events {
			if t := ps.events[i].trace; t != 0 {
				trace.Record(t, trace.StagePark, p0, now)
			}
		}
	}
	c.inq.preload(ps.events)
}

// scheduleSweepLocked arms the lot janitor for the given deadline if no
// earlier sweep is already scheduled. The janitor is a timer on the shared
// wheel, so a process full of detach lots holds O(1) runtime timers.
// lotMu must be held.
func (s *Server) scheduleSweepLocked(deadline time.Time) {
	d := time.Until(deadline) + time.Millisecond
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if s.lotTimer == nil {
		s.lotTimer = sched.Shared().AfterFunc(d, s.sweepLot)
		s.lotSweepAt = deadline
		return
	}
	if deadline.Before(s.lotSweepAt) {
		s.lotTimer.Reset(d)
		s.lotSweepAt = deadline
	}
}

// sweepLot expires every parked session past its deadline and re-arms the
// janitor for the earliest remaining one. Claimed entries are skipped —
// a resume handshake is mid-flight and will remove or release them.
func (s *Server) sweepLot() {
	now := time.Now()
	var expired []*parkedSession
	s.lotMu.Lock()
	var next time.Time
	for _, ps := range s.lot {
		if ps.claimed {
			continue
		}
		if now.After(ps.deadline) {
			s.unparkLocked(ps)
			expired = append(expired, ps)
			continue
		}
		if next.IsZero() || ps.deadline.Before(next) {
			next = ps.deadline
		}
	}
	if next.IsZero() {
		s.lotTimer = nil
	} else {
		s.lotSweepAt = next
		s.lotTimer.Reset(time.Until(next) + time.Millisecond)
	}
	s.lotMu.Unlock()
	for _, ps := range expired {
		s.expire(ps, now)
	}
}

// drainLot expires everything parked (server shutdown). It takes pumpMu
// so it serializes with retire: a retire that read closed == false has
// finished inserting before the drain snapshots the lot, and one that
// runs after the drain reads closed == true and parks nothing — no
// entry or armed janitor timer can leak into a drained lot.
func (s *Server) drainLot() {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	now := time.Now()
	s.lotMu.Lock()
	if s.lotTimer != nil {
		s.lotTimer.Stop()
		s.lotTimer = nil
	}
	lot := make([]*parkedSession, 0, len(s.lot))
	for _, ps := range s.lot {
		lot = append(lot, ps)
		s.unparkLocked(ps)
	}
	s.lotMu.Unlock()
	for _, ps := range lot {
		s.expire(ps, now)
	}
}

// addParkedDamage offers freshly rendered damage to every parked session.
// Runs under s.pumpMu (from pump), keeping it ordered against park.
func (s *Server) addParkedDamage(rects []gfx.Rect) {
	s.lotMu.Lock()
	for _, ps := range s.lot {
		for _, r := range rects {
			ps.dirty.Add(r)
		}
	}
	s.lotMu.Unlock()
}

// Parked returns the number of sessions currently waiting in the detach
// lot. The hub's idle eviction consults it (via uniint.HubSession) so a
// home with a parked session is not evicted out from under a roaming
// user.
func (s *Server) Parked() int {
	s.lotMu.Lock()
	defer s.lotMu.Unlock()
	return len(s.lot)
}

// HasParked reports whether the lot holds a live (unexpired) session for
// token — the hub's token-routing probe.
func (s *Server) HasParked(token string) bool {
	s.lotMu.Lock()
	defer s.lotMu.Unlock()
	ps := s.lot[token]
	return ps != nil && !time.Now().After(ps.deadline)
}
