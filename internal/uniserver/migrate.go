package uniserver

import (
	"errors"
	"fmt"
	"time"

	"uniint/internal/gfx"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
)

// Session migration is the lot's federation surface: a parked session is
// already a small self-contained object (resume token, negotiated pixel
// format, accumulated damage, queued input, parked request), so moving a
// home between hub nodes is export here, a byte blob on the wire, import
// there. The exported entry leaves this lot permanently — it is counted
// migrated-out, the target counts it migrated-in, and the pair keeps the
// process-wide lot accounting invariant (lot.go) balanced.
var (
	mSessMigratedOut = metrics.Default().Counter("session_migrated_out_total")
	mSessMigratedIn  = metrics.Default().Counter("session_migrated_in_total")
	// fed_resync_bytes_total sums the first update shipped to each client
	// that resumed a MIGRATED session — the wire cost of catching a
	// shipped session up, which stays incremental (far below a full
	// repaint) when migration preserved the parked damage correctly.
	mFedResyncBytes = metrics.Default().Counter("fed_resync_bytes_total")
)

// ParkedTokens lists the resume tokens currently waiting in the detach
// lot (order unspecified). The federation layer enumerates a home's
// parked sessions with it before migrating them.
func (s *Server) ParkedTokens() []string {
	s.lotMu.Lock()
	defer s.lotMu.Unlock()
	out := make([]string, 0, len(s.lot))
	for tok := range s.lot {
		out = append(out, tok)
	}
	return out
}

// ExportParked removes the parked session for token from the lot and
// returns it as a portable migration record, or (nil, false) when the
// token is unknown, mid-resume (claimed), or expired. The entry is gone
// from this lot on success — the caller owns its fate; a record that is
// never imported anywhere abandons the session exactly like an expiry
// would have.
func (s *Server) ExportParked(token string) (*rfb.MigrationRecord, bool) {
	now := time.Now()
	s.lotMu.Lock()
	ps := s.lot[token]
	if ps == nil || ps.claimed {
		s.lotMu.Unlock()
		return nil, false
	}
	s.unparkLocked(ps)
	s.lotMu.Unlock()
	if now.After(ps.deadline) {
		s.expire(ps, now)
		return nil, false
	}

	rec := &rfb.MigrationRecord{
		Token: ps.token,
		W:     ps.w, H: ps.h,
		PF:           ps.pf,
		Dirty:        ps.dirty.TakeInto(nil),
		Pending:      ps.pending,
		HasPending:   ps.hasPending,
		LastPtrMask:  ps.lastPtrMask,
		RemainingTTL: ps.deadline.Sub(now),
		DetachedFor:  now.Sub(ps.parkedAt),
	}
	for _, ev := range ps.events {
		// Enqueue timestamps and trace ids are node-local; the target
		// restamps on import.
		rec.Events = append(rec.Events, rfb.MigEvent{
			Pointer: ev.pointer, Move: ev.move, Key: ev.key, Ptr: ev.ptr,
		})
	}
	mSessMigratedOut.Inc()
	return rec, true
}

// ImportParked installs a migration record into this server's detach
// lot, making the shipped session resumable here. The entry keeps the
// remaining TTL it left the source with (migration never extends a
// session's life) and the pixel format its client negotiated.
func (s *Server) ImportParked(rec *rfb.MigrationRecord) error {
	if rec == nil || rec.Token == "" {
		return errors.New("uniserver: import: empty migration record")
	}
	if s.parkTTL <= 0 {
		return errors.New("uniserver: import: parking disabled on this server")
	}
	now := time.Now()
	ttl := rec.RemainingTTL
	if ttl < time.Millisecond {
		// Expired (or nearly) in transit: install anyway with an immediate
		// deadline so the janitor settles it through the normal expiry
		// accounting rather than the record silently vanishing.
		ttl = time.Millisecond
	}
	ps := &parkedSession{
		token: rec.Token,
		w:     rec.W, h: rec.H,
		dirty:       gfx.NewDamage(gfx.R(0, 0, rec.W, rec.H), 16),
		pending:     rec.Pending,
		hasPending:  rec.HasPending,
		lastPtrMask: rec.LastPtrMask,
		pf:          rec.PF,
		migrated:    true,
		parkedAt:    now.Add(-rec.DetachedFor),
		deadline:    now.Add(ttl),
	}
	for _, r := range rec.Dirty {
		ps.dirty.Add(r)
	}
	enq := now.UnixNano()
	for _, ev := range rec.Events {
		ps.events = append(ps.events, inputEvent{
			enq: enq, key: ev.Key, ptr: ev.Ptr, pointer: ev.Pointer, move: ev.Move,
		})
	}

	// Same critical-section shape as retire: pumpMu orders the insert
	// against drainLot, and the lot insert handles capacity by expiring
	// the oldest unclaimed resident.
	s.pumpMu.Lock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		s.pumpMu.Unlock()
		return errors.New("uniserver: import: server closed")
	}
	s.lotMu.Lock()
	evicted := s.parkLocked(ps)
	s.lotMu.Unlock()
	s.pumpMu.Unlock()

	if evicted != nil {
		s.expire(evicted, now)
	}
	mSessMigratedIn.Inc()
	return nil
}

// DetachSessions force-disconnects every live session — each parks
// itself in the lot under its resume token, exactly as if its link had
// dropped — and waits up to timeout for the server to quiesce. It is the
// federation drain hook: after it returns nil, every session this home
// holds is a parked (exportable) entry.
func (s *Server) DetachSessions(timeout time.Duration) error {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.conn.Close()
	}
	deadline := time.Now().Add(timeout)
	for s.Sessions() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("uniserver: detach timeout with %d sessions live", s.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// ParkPolicy returns the effective detach-lot policy: the park TTL
// (0: parking disabled) and the lot capacity.
func (s *Server) ParkPolicy() (ttl time.Duration, capacity int) {
	return s.parkTTL, s.parkCap
}
