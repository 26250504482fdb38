package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/rfb"
)

// maxThink bounds the think time a user takes after seeing a frame. It
// is drawn per press from the seeded generator: with none, the two
// closed-loop users fall into lock step, and whether their CPU-heavy
// phases collide or alternate then sets a run's latencies (a ±40% swing
// from run to run on a two-core machine).
const maxThink = 300 * time.Microsecond

// stepTimeout bounds every wait for a frame or a settled screen; an
// operation that hits it counts as failed.
const stepTimeout = 2 * time.Second

var (
	errTimeout    = errors.New("timed out waiting for a frame")
	errResumeMiss = errors.New("resume token was not honoured")
	errMismatch   = errors.New("client framebuffer differs from the display")
)

// openConns is the load-shape guard: the number of client connections
// open at once may never exceed nproc.
var openConns atomic.Int64

// screen is the phone with its presentation observed: it counts frames,
// stamps the last one and wakes a waiting client.
type screen struct {
	*device.Phone
	frames  atomic.Int64
	frameAt atomic.Int64
	gapUS   atomic.Int64           // last read of the update → presented (traced)
	conn    atomic.Pointer[stamps] // stamps of the current connection (traced)
	signal  chan struct{}
}

func (s *screen) Present(f core.Frame) {
	s.Phone.Present(f)
	t := now()
	if st := s.conn.Load(); st != nil {
		if r := st.lastRead.Load(); r != 0 {
			s.gapUS.Store((t - r) / 1e3)
		}
	}
	s.frameAt.Store(t)
	s.frames.Add(1)
	select {
	case s.signal <- struct{}{}:
	default:
	}
}

// waitFrame waits until more than n frames have been presented and
// returns the presentation time of the latest.
func (s *screen) waitFrame(n int64) (int64, error) {
	timer := time.NewTimer(stepTimeout)
	defer timer.Stop()
	for s.frames.Load() <= n {
		select {
		case <-s.signal:
		case <-timer.C:
			if s.frames.Load() > n {
				break
			}
			return 0, errTimeout
		}
	}
	return s.frameAt.Load(), nil
}

// client is one user: a phone bound to a core.Proxy as both input and
// output, reconnecting through the federation router as its workload
// dictates.
type client struct {
	d   *deployment
	scr *screen
	pf  gfx.PixelFormat

	proxy   *core.Proxy
	conn    *meteredConn // client end of the current connection
	srv     *meteredConn // server end (traced deployments only)
	homeID  string
	token   string
	ran     chan error
	lastCli *rfb.ClientConn // the connection the session last ran on
	rng     *rand.Rand      // think times
}

func newClient(d *deployment, id string, seed int64) *client {
	scr := &screen{Phone: device.NewPhone(id), signal: make(chan struct{}, 1)}
	return &client{d: d, scr: scr, pf: scr.OutputPlugin().PixelFormat(), rng: rand.New(rand.NewSource(seed))}
}

// think pauses for the user's next think time.
func (c *client) think() {
	time.Sleep(time.Duration(c.rng.Int63n(int64(maxThink))))
}

func (c *client) id() string { return c.scr.ID() }

// dial opens a connection to the router and sends the preamble.
func (c *client) dial(homeID, token string) (*meteredConn, error) {
	if n := openConns.Add(1); n > nproc {
		openConns.Add(-1)
		return nil, fmt.Errorf("load-shape guard: %d client connections open, limit %d", n, nproc)
	}
	raw, err := net.Dial("tcp", c.d.addr)
	if err != nil {
		openConns.Add(-1)
		return nil, err
	}
	m := newMetered(raw, c.d.tr != nil)
	if err := hub.WritePreambleToken(m, homeID, token); err != nil {
		m.Close()
		openConns.Add(-1)
		return nil, err
	}
	return m, nil
}

// join cold-joins homeID: dial, handshake, select the phone, and wait for
// the first frame. It returns the dial-to-frame time and the bytes the
// client read by then.
func (c *client) join(homeID string) (time.Duration, int64, error) {
	t0 := now()
	conn, err := c.dial(homeID, "")
	if err != nil {
		return 0, 0, err
	}
	p, err := core.Dial(conn)
	if err != nil {
		openConns.Add(-1)
		return 0, 0, err
	}
	n0 := c.scr.frames.Load()
	if err := c.bind(p); err != nil {
		p.Close()
		openConns.Add(-1)
		return 0, 0, err
	}
	c.start(p, conn, homeID)
	if err := p.SelectOutput(c.id()); err != nil {
		c.disconnect()
		return 0, 0, err
	}
	return c.connected("client.join", t0, n0)
}

// resume redials by token alone ("UNIHUB/1 ~ <token>"), reclaims the
// parked session and waits for the restored frame. The restore is the
// one core.Supervisor performs on a reconnect, made from public calls:
// adopt the previous connection's shadow, renegotiate the pixel format
// and ask for an incremental update, so only the detach-window damage
// ships. The phone is registered as a mirror because SelectOutput always
// demands a full repaint.
func (c *client) resume(homeID, token string, prev *rfb.ClientConn) (time.Duration, int64, error) {
	t0 := now()
	conn, err := c.dial(hub.TokenHome, token)
	if err != nil {
		return 0, 0, err
	}
	p, err := core.DialResume(conn, token)
	if err != nil {
		openConns.Add(-1)
		return 0, 0, err
	}
	n0 := c.scr.frames.Load()
	if err := c.restore(p, prev); err != nil {
		p.Close()
		openConns.Add(-1)
		return 0, 0, err
	}
	c.start(p, conn, homeID)
	return c.connected("client.resume", t0, n0)
}

// bind attaches the phone as input and output and selects its input.
func (c *client) bind(p *core.Proxy) error {
	if err := p.AttachInput(c.scr); err != nil {
		return err
	}
	if err := p.AttachOutput(c.scr); err != nil {
		return err
	}
	return p.SelectInput(c.id())
}

// restore binds the phone to a resumed session without a full repaint.
func (c *client) restore(p *core.Proxy, prev *rfb.ClientConn) error {
	if !p.Resumed() {
		return errResumeMiss
	}
	if err := c.bind(p); err != nil {
		return err
	}
	cl := p.Client()
	cl.AdoptShadow(prev)
	if err := cl.SetPixelFormat(c.pf); err != nil {
		return err
	}
	if err := p.AddMirror(c.id()); err != nil {
		return err
	}
	w, h := cl.Size()
	return cl.RequestUpdate(true, gfx.R(0, 0, w, h))
}

// connected waits for the first frame of a new connection.
func (c *client) connected(span string, t0 int64, n0 int64) (time.Duration, int64, error) {
	t1, err := c.scr.waitFrame(n0)
	if err != nil {
		c.disconnect()
		return 0, 0, err
	}
	c.traceConnect(span, t0, t1)
	return time.Duration(t1 - t0), c.conn.in.Load(), nil
}

func (c *client) start(p *core.Proxy, conn *meteredConn, homeID string) {
	c.proxy, c.conn, c.homeID, c.token = p, conn, homeID, p.SessionToken()
	c.scr.conn.Store(conn.st)
	c.srv = nil
	if c.d.tr != nil {
		c.srv = c.d.conns.take(conn.LocalAddr().String())
	}
	c.ran = make(chan error, 1)
	go func() { c.ran <- p.Run() }()
}

// disconnect closes the connection and waits for the proxy to stop; the
// server parks the session under its token. The user leaves only after
// the viewer has re-armed for the next update, so every parked session
// holds a pending request and its resume ships the resync at once; left
// to chance, that would make resume cost depend on a race between the
// re-arm and the close.
func (c *client) disconnect() {
	if c.proxy == nil {
		return
	}
	for deadline := time.Now().Add(stepTimeout); !c.conn.rearmed() && time.Now().Before(deadline); {
		time.Sleep(20 * time.Microsecond)
	}
	c.proxy.Close()
	<-c.ran
	openConns.Add(-1)
	c.lastCli = c.proxy.Client()
	c.proxy, c.conn, c.srv = nil, nil, nil
	c.scr.conn.Store(nil)
}

// waitParked waits until the home's detach lot holds the client's last
// session.
func (c *client) waitParked() error {
	h := c.d.home(c.homeID)
	for deadline := time.Now().Add(stepTimeout); ; {
		if h != nil && h.sess.HasParked(c.token) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session %s never parked on %s", c.token, c.homeID)
		}
		time.Sleep(20 * time.Microsecond)
		h = c.d.home(c.homeID)
	}
}

// settle waits until the client shows its home's display.
func (c *client) settle() error {
	h := c.d.home(c.homeID)
	timer := time.NewTimer(stepTimeout)
	defer timer.Stop()
	for {
		h.sess.WaitIdle()
		if shows(c.proxy.Client(), h.sess.Display, c.pf) {
			return nil
		}
		select {
		case <-c.scr.signal:
		case <-time.After(time.Millisecond):
		case <-timer.C:
			return errMismatch
		}
	}
}

// traceConnect cuts the spans of a join or resume.
func (c *client) traceConnect(name string, t0, t1 int64) {
	if !c.d.tr.enabled() {
		return
	}
	id := c.d.tr.id()
	c.d.tr.span(name, id, 0, t0, t1)
	if s := c.srv; s != nil {
		c.d.tr.span("fed.route", c.d.tr.id(), id, s.st.acceptAt.Load(), s.st.handleAt.Load())
		c.d.tr.span("uniserver.handshake", c.d.tr.id(), id, s.st.handleAt.Load(), s.st.updateAt.Load())
	}
}

// step presses one key and waits for the frame that shows its effect. It
// returns the press-to-frame time. A press whose effect set off more
// damage than the press itself (an appliance echo that changes another
// widget) is followed by an untimed settle, so the next press starts
// from a quiet screen.
func (c *client) step(key string, activation bool) (time.Duration, error) {
	h := c.d.home(c.homeID)
	traced := c.d.tr.enabled()
	if traced {
		c.conn.mark()
		if c.srv != nil {
			c.srv.mark()
		}
		h.mark()
	}
	d0 := h.damage.Load()
	n0 := c.scr.frames.Load()
	t0 := now()
	c.scr.PressKey(key)
	t1, err := c.scr.waitFrame(n0)
	if err != nil {
		return 0, err
	}
	if traced {
		c.traceStep(h, activation, t0, t1)
	}
	h.sess.WaitIdle()
	if h.damage.Load()-d0 > 1 {
		if err := c.settle(); err != nil {
			return 0, err
		}
	}
	return time.Duration(t1 - t0), nil
}

// traceStep cuts one interaction into its layer spans from the stamps
// the wrappers and hooks took.
func (c *client) traceStep(h *home, activation bool, t0, t1 int64) {
	tr := c.d.tr
	id := tr.id()
	tr.span("interaction", id, 0, t0, t1)
	cli := c.conn.st
	keyWr := cli.keyWrAt.Load()
	tr.span("core.input_flush", tr.id(), id, t0, keyWr)
	if gap := c.scr.gapUS.Load(); gap > 0 {
		tr.span("core.present", tr.id(), id, t1-gap*1e3, t1)
	}
	if c.srv == nil {
		return
	}
	srv := c.srv.st
	keyRd, dmg, srvWr := srv.keyReadAt.Load(), h.damageAt.Load(), srv.writeAt.Load()
	tr.span("rfb.wire_up", tr.id(), id, keyWr, keyRd)
	tr.span("uniserver.dispatch", tr.id(), id, keyRd, dmg)
	if srvWr >= dmg {
		tr.span("uniserver.render_encode", tr.id(), id, dmg, srvWr)
		tr.span("rfb.wire_down", tr.id(), id, srvWr, cli.readAt.Load())
	}
	if activation {
		tr.span("havi.control", tr.id(), id, keyRd, h.fcmAt.Load())
	}
}
