package uniserver

import (
	"net"
	"sync/atomic"
	"testing"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// The resume invariants below each run twice: once resuming on the server
// the session parked on, once on a second server after the parked entry
// went through ExportParked → UNIMIG/1 bytes → ImportParked. Each server
// serves its own display, built by the same scene code and mutated in
// step, so the two screens are the one home's screen.

// resyncScene is a 160x120 home screen: a label above a boxed group of
// labels large enough (well over copyMinArea) for CopyRect to consider.
type resyncScene struct {
	display *toolkit.Display
	label   *toolkit.Label
	box     *toolkit.Panel
}

func newResyncScene() *resyncScene {
	sc := &resyncScene{
		display: toolkit.NewDisplay(160, 120),
		label:   toolkit.NewLabel("steady"),
		box:     toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2}),
	}
	sc.box.Add(toolkit.NewLabel("living room"), toolkit.NewLabel("lamp on"),
		toolkit.NewLabel("tv standby"), toolkit.NewLabel("door locked"))
	root := toolkit.NewPanel(toolkit.VBox{Gap: 2, Padding: 2})
	root.Add(sc.label, sc.box)
	sc.display.SetRoot(root)
	sc.display.Render()
	return sc
}

func (sc *resyncScene) pixels() *gfx.Framebuffer {
	var out *gfx.Framebuffer
	sc.display.WithFramebuffer(func(fb *gfx.Framebuffer) { out = fb.SubImage(fb.Bounds()) })
	return out
}

// resumePath is one way a parked session comes back.
type resumePath struct {
	name     string
	migrated bool
}

var resumePaths = []resumePath{{"local", false}, {"migrated", true}}

// resumeRig is a home served by a source server (where the session
// parks) and the server it resumes on: the same one for a local resume,
// a second one for a migration.
type resumeRig struct {
	t        *testing.T
	path     resumePath
	src, dst *resyncScene
	srcSrv   *Server
	dstSrv   *Server
	full     gfx.Rect
}

func newResumeRig(t *testing.T, path resumePath) *resumeRig {
	r := &resumeRig{t: t, path: path, src: newResyncScene(), full: gfx.R(0, 0, 160, 120)}
	r.srcSrv = New(r.src.display, "resync src")
	t.Cleanup(r.srcSrv.Close)
	r.dst, r.dstSrv = r.src, r.srcSrv
	if path.migrated {
		r.dst = newResyncScene()
		r.dstSrv = New(r.dst.display, "resync dst")
		t.Cleanup(r.dstSrv.Close)
	}
	return r
}

// update mutates the home's screen (both displays when it has two).
func (r *resumeRig) update(fn func(sc *resyncScene)) {
	r.src.display.Update(func() { fn(r.src) })
	if r.dst != r.src {
		r.dst.display.Update(func() { fn(r.dst) })
	}
}

// dial connects a client to srv over conn's server end, presenting token.
// A resumed client first adopts prev's screen, the way a supervised proxy
// does, before its read loop can apply the resync.
func (r *resumeRig) dial(srv *Server, conn net.Conn, client net.Conn, token string, prev *rfb.ClientConn) (*rfb.ClientConn, *rectRecorder) {
	r.t.Helper()
	go srv.HandleConn(conn)
	c, err := rfb.DialResume(client, token)
	if err != nil {
		r.t.Fatal(err)
	}
	if prev != nil {
		if !c.Resumed() {
			r.t.Fatal("resume missed")
		}
		if !c.AdoptShadow(prev) {
			r.t.Fatal("AdoptShadow refused the previous screen")
		}
	}
	rec := &rectRecorder{}
	go c.Run(rec)
	return c, rec
}

// settle waits until the client holds a full frame and has an incremental
// request parked on the server.
func (r *resumeRig) settle(c *rfb.ClientConn, rec *rectRecorder) {
	r.t.Helper()
	c.RequestUpdate(false, r.full)
	waitFor(r.t, "initial frame", func() bool { u, _ := rec.snapshot(); return u >= 1 })
	c.RequestUpdate(true, r.full)
	waitPending(r.t, r.srcSrv)
}

// park closes the client and waits for its session to park on the
// source server.
func (r *resumeRig) park(c *rfb.ClientConn) {
	r.t.Helper()
	c.Close()
	waitFor(r.t, "session parked", func() bool { return r.srcSrv.Parked() == 1 })
}

// move ships the parked session to the destination server when the path
// migrates, returning the record that crossed (nil for a local resume).
func (r *resumeRig) move(token string) *rfb.MigrationRecord {
	r.t.Helper()
	if !r.path.migrated {
		return nil
	}
	rec, ok := r.srcSrv.ExportParked(token)
	if !ok {
		r.t.Fatal("ExportParked found no parked session")
	}
	b, err := rec.Encode()
	if err != nil {
		r.t.Fatal(err)
	}
	shipped, err := rfb.DecodeMigration(b)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.dstSrv.ImportParked(shipped); err != nil {
		r.t.Fatal(err)
	}
	return shipped
}

// resume redials the destination with token, adopting prev's screen. It
// sends nothing else.
func (r *resumeRig) resume(token string, prev *rfb.ClientConn) (*rfb.ClientConn, *rectRecorder) {
	r.t.Helper()
	sc, cc := net.Pipe()
	c, rec := r.dial(r.dstSrv, sc, cc, token, prev)
	r.t.Cleanup(func() { c.Close() })
	return c, rec
}

// waitPending waits until every live session on srv holds a parked
// incremental request.
func waitPending(t *testing.T, srv *Server) {
	t.Helper()
	waitFor(t, "request parked", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for sess := range srv.sessions {
			sess.mu.Lock()
			p := sess.hasPending
			sess.mu.Unlock()
			if !p {
				return false
			}
		}
		return len(srv.sessions) > 0
	})
}

func screen(c *rfb.ClientConn) *gfx.Framebuffer {
	w, h := c.Size()
	return c.Snapshot(gfx.R(0, 0, w, h))
}

// TestResumeFirstUpdateHasNoCopyRect: the resumed session's wire model
// starts fresh, with a black shadow, while the client shows its old
// screen. Detach damage that paints a large region black matches that
// shadow exactly, so a model trusted before its first full repaint would
// ship a CopyRect the client applies to the wrong pixels. The session
// parks with no request pending, so the resync waits for the resumed
// client to advertise CopyRect; an empty-region request acknowledges the
// initial frame first, so the resync is only the detach damage.
func TestResumeFirstUpdateHasNoCopyRect(t *testing.T) {
	encs := []int32{rfb.EncCopyRect, rfb.EncHextile, rfb.EncRaw}
	for _, path := range resumePaths {
		t.Run(path.name, func(t *testing.T) {
			r := newResumeRig(t, path)
			sc, cc := net.Pipe()
			c, rec := r.dial(r.srcSrv, sc, cc, "", nil)
			token := c.Token()
			if err := c.SetEncodings(encs); err != nil {
				t.Fatal(err)
			}
			c.RequestUpdate(false, r.full)
			waitFor(t, "initial frame", func() bool { u, _ := rec.snapshot(); return u >= 1 })
			// Acknowledge only once the server has recorded the frame as
			// shipped; an earlier request could not acknowledge it.
			waitFor(t, "frame recorded", func() bool {
				r.srcSrv.mu.Lock()
				defer r.srcSrv.mu.Unlock()
				for sess := range r.srcSrv.sessions {
					sess.mu.Lock()
					defer sess.mu.Unlock()
					return len(sess.unacked) > 0
				}
				return false
			})
			c.RequestUpdate(false, gfx.Rect{})
			waitFor(t, "empty reply", func() bool { u, _ := rec.snapshot(); return u >= 2 })
			r.park(c)

			r.update(func(sc *resyncScene) { sc.box.SetBackground(gfx.Black) })
			r.move(token)
			hits0 := counter("rfb_copyrect_hits_total")
			c2, rec2 := r.resume(token, c)
			if err := c2.SetEncodings(encs); err != nil {
				t.Fatal(err)
			}
			c2.RequestUpdate(true, r.full)
			waitFor(t, "resync", func() bool { u, _ := rec2.snapshot(); return u >= 1 })
			if d := counter("rfb_copyrect_hits_total") - hits0; d != 0 {
				t.Fatalf("resync shipped %d CopyRect(s) before a full repaint", d)
			}
			_, rects := rec2.snapshot()
			for _, rr := range rects {
				if rr == r.full {
					t.Fatal("resync repainted the full screen; wanted only the detach damage")
				}
			}
			if !screen(c2).Equal(r.dst.pixels()) {
				t.Fatal("resumed screen differs from the display")
			}
		})
	}
}

// TestResumeKeepsNegotiatedPixelFormat: an 8-bit client's resync arrives
// in its own format although it has not repeated SetPixelFormat on the
// new connection — the resumed ServerInit announces the parked format.
func TestResumeKeepsNegotiatedPixelFormat(t *testing.T) {
	pf8 := gfx.PF8()
	quantized := func(fb *gfx.Framebuffer) *gfx.Framebuffer {
		for i, px := range fb.Pix() {
			fb.Pix()[i] = pf8.Decode(pf8.Encode(px))
		}
		return fb
	}
	for _, path := range resumePaths {
		t.Run(path.name, func(t *testing.T) {
			r := newResumeRig(t, path)
			sc, cc := net.Pipe()
			c, rec := r.dial(r.srcSrv, sc, cc, "", nil)
			token := c.Token()
			if err := c.SetPixelFormat(pf8); err != nil {
				t.Fatal(err)
			}
			r.settle(c, rec)
			r.park(c)

			r.update(func(sc *resyncScene) { sc.label.SetText("while away") })
			if shipped := r.move(token); shipped != nil && shipped.PF != pf8 {
				t.Fatalf("migration record carries %+v, want PF8", shipped.PF)
			}
			c2, rec2 := r.resume(token, c)
			waitFor(t, "resync", func() bool { u, _ := rec2.snapshot(); return u >= 1 })
			want := quantized(r.dst.pixels())
			if want.Equal(r.dst.pixels()) {
				t.Fatal("scene colors survive PF8 exactly; the check would prove nothing")
			}
			if !screen(c2).Equal(want) {
				t.Fatal("resync did not arrive in the parked PF8 format")
			}
		})
	}
}

// swallowConn delivers writes until swallow is set, then accepts and
// drops them — a link that dies after the server's last write left the
// socket but before the client read it.
type swallowConn struct {
	net.Conn
	swallow   atomic.Bool
	swallowed chan struct{}
}

func (s *swallowConn) Write(p []byte) (int, error) {
	if s.swallow.Load() {
		select {
		case s.swallowed <- struct{}{}:
		default:
		}
		return len(p), nil
	}
	return s.Conn.Write(p)
}

// TestResumeResendsUnacknowledgedUpdate: an update the server wrote into
// a dying link, and that no later request acknowledged, must ship again
// on resume — the server cannot know the client applied it.
func TestResumeResendsUnacknowledgedUpdate(t *testing.T) {
	for _, path := range resumePaths {
		t.Run(path.name, func(t *testing.T) {
			r := newResumeRig(t, path)
			sc, cc := net.Pipe()
			link := &swallowConn{Conn: sc, swallowed: make(chan struct{}, 1)}
			c, rec := r.dial(r.srcSrv, link, cc, "", nil)
			token := c.Token()
			r.settle(c, rec)

			// The parked request pairs with this damage at once; the update
			// leaves the server and is lost.
			link.swallow.Store(true)
			r.update(func(sc *resyncScene) { sc.label.SetText("lost write") })
			<-link.swallowed
			u0, _ := rec.snapshot()
			r.park(c)
			if u, _ := rec.snapshot(); u != u0 || u != 1 {
				t.Fatalf("client applied %d updates, want only the initial frame", u)
			}
			r.move(token)

			c2, rec2 := r.resume(token, c)
			c2.RequestUpdate(true, r.full)
			waitFor(t, "resync", func() bool { u, _ := rec2.snapshot(); return u >= 1 })
			if !screen(c2).Equal(r.dst.pixels()) {
				t.Fatal("resumed screen is missing the update lost with the link")
			}
		})
	}
}

// TestParkedEntryIsSmall: a parked session holds its own bookkeeping, not
// a framebuffer — lot_parked_bytes grows by a few hundred bytes.
func TestParkedEntryIsSmall(t *testing.T) {
	r := newResumeRig(t, resumePaths[0])
	bytes0 := gauge("lot_parked_bytes")
	sc, cc := net.Pipe()
	c, rec := r.dial(r.srcSrv, sc, cc, "", nil)
	r.settle(c, rec)
	r.park(c)
	if d := gauge("lot_parked_bytes") - bytes0; d <= 0 || d > 1024 {
		t.Fatalf("one parked session adds %d bytes to lot_parked_bytes, want (0, 1024]", d)
	}
	r.srcSrv.Close()
	if d := gauge("lot_parked_bytes") - bytes0; d != 0 {
		t.Fatalf("lot_parked_bytes off by %d after the lot drained", d)
	}
}
