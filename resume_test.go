package uniint

// Session-resilience end-to-end test (ISSUE 5 acceptance): a seeded run
// drops the link mid-interaction, the supervisor reconnects with the
// resume token, and the revived session receives only the damage
// accumulated while detached — finishing byte-identical to an
// uninterrupted control run, with zero lost (or duplicated) semantic
// input events.

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/hub"
	"uniint/internal/metrics"
	"uniint/internal/netsim"
	"uniint/internal/toolkit"
	"uniint/internal/trace"
	"uniint/internal/uniserver"
)

// resumeStack is a droppable supervised session over a control panel
// whose state is a deterministic function of the confirmed click count.
type resumeStack struct {
	t       *testing.T
	display *toolkit.Display
	srv     *uniserver.Server
	lbl     *toolkit.Label
	clicks  func() int

	mu   sync.Mutex
	link *netsim.Conn

	sup   *core.Supervisor
	phone *device.Phone
}

func newResumeStack(t *testing.T) *resumeStack {
	return newResumeStackTuned(t, 50*time.Millisecond, nil)
}

// newResumeStackTuned exposes the supervisor's redial backoff and a
// decorator around the button's click handler. The trace park/resume
// test uses both: the decorator stalls the dispatcher mid-interaction
// and the wide backoff keeps the park window open while it does.
func newResumeStackTuned(t *testing.T, backoff time.Duration, wrap func(inner func()) func()) *resumeStack {
	t.Helper()
	st := newResumeDisplay(t, wrap)
	st.connect(backoff, func(conn net.Conn) { st.srv.HandleConn(conn) }, "")
	return st
}

// newResumeDisplay builds the server side of the stack — display,
// widgets, uniserver — without connecting a supervisor, so tests can
// route the connection through something other than a direct dial (the
// federation e2e fronts it with a hub-of-hubs router).
func newResumeDisplay(t *testing.T, wrap func(inner func()) func()) *resumeStack {
	t.Helper()
	st := &resumeStack{t: t, display: toolkit.NewDisplay(320, 240)}
	st.srv = uniserver.New(st.display, "resume-e2e")
	t.Cleanup(st.srv.Close)

	var mu sync.Mutex
	clicks := 0
	handler := func() { mu.Lock(); clicks++; mu.Unlock() }
	if wrap != nil {
		handler = wrap(handler)
	}
	btn := toolkit.NewButton("Toggle", handler)
	st.clicks = func() int { mu.Lock(); defer mu.Unlock(); return clicks }
	st.lbl = toolkit.NewLabel("count 000")
	root := toolkit.NewPanel(toolkit.VBox{Gap: 4, Padding: 4})
	root.Add(btn)
	root.Add(st.lbl)
	st.display.SetRoot(root)
	st.display.Render()
	return st
}

// connect attaches a supervised device pair dialing through serve (the
// server side of each connection). A non-empty preamble home-id makes
// every dial open with the hub routing preamble — the resume token is
// not the dialer's concern; it rides the protocol handshake.
func (st *resumeStack) connect(backoff time.Duration, serve func(net.Conn), preambleHome string) {
	t := st.t
	t.Helper()
	dial := func() (net.Conn, error) {
		sc, cc := net.Pipe()
		go serve(sc)
		if preambleHome != "" {
			if err := hub.WritePreamble(cc, preambleHome); err != nil {
				cc.Close()
				return nil, err
			}
		}
		link := netsim.Wrap(cc)
		st.mu.Lock()
		st.link = link
		st.mu.Unlock()
		return link, nil
	}
	sup, err := core.NewSupervisor(dial, core.WithBackoff(backoff))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Close)
	st.sup = sup
	st.phone = device.NewPhone("phone-1")
	t.Cleanup(st.phone.Close)
	if err := sup.AttachInput(st.phone); err != nil {
		t.Fatal(err)
	}
	if err := sup.AttachOutput(device.NewTVDisplay("tv-1")); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectInput("phone-1"); err != nil {
		t.Fatal(err)
	}
	if err := sup.SelectOutput("tv-1"); err != nil {
		t.Fatal(err)
	}
}

func (st *resumeStack) dropLink() {
	st.mu.Lock()
	link := st.link
	st.mu.Unlock()
	link.DropLink()
}

// settle waits for protocol quiescence on the current connection: the
// server must be idle (the client re-armed after the last update, and no
// update is being encoded) and the byte counter must hold still across
// several polls (a single quiet poll is not quiescence when the peer is
// mid-render under -race).
func (st *resumeStack) settle() {
	prev, stable := int64(-1), 0
	for stable < 3 {
		cur := st.sup.Proxy().Client().BytesReceived()
		if cur == prev && st.srv.Idle() {
			stable++
		} else {
			stable = 0
			prev = cur
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// awaitTraffic blocks until the current connection has received at least
// one update, so a following settle measures a completed exchange rather
// than one that has not started.
func (st *resumeStack) awaitTraffic() {
	waitCond(st.t, "update traffic", func() bool {
		return st.sup.Proxy().Client().UpdatesReceived() >= 1
	})
}

// press delivers one confirmed semantic interaction: a phone "ok" that
// must land as exactly one click, with the label repainted to the new
// count. Retries cover presses swallowed by a dying link; the exact-count
// assertion at the end catches any duplication.
func (st *resumeStack) press(n int) {
	st.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.clicks() < n {
		st.phone.PressKey("ok")
		for i := 0; i < 20 && st.clicks() < n; i++ {
			time.Sleep(2 * time.Millisecond)
		}
		if time.Now().After(deadline) {
			st.t.Fatalf("click %d never landed", n)
		}
	}
	st.display.Update(func() { st.lbl.SetText(labelFor(st.clicks())) })
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func labelFor(n int) string {
	return "count " + string([]byte{byte('0' + n/100%10), byte('0' + n/10%10), byte('0' + n%10)})
}

func (st *resumeStack) shadow() *gfx.Framebuffer {
	return st.sup.Proxy().Client().Snapshot(gfx.R(0, 0, 320, 240))
}

func TestResumeShipsOnlyDetachDamageByteIdentical(t *testing.T) {
	const seed, presses = 20260726, 24
	rng := rand.New(rand.NewSource(seed))
	dropAt := presses/4 + rng.Intn(presses/2) // mid-interaction, seeded

	counters := metrics.Default()
	parked0 := counters.Counter("session_parked_total").Value()
	resumed0 := counters.Counter("session_resumed_total").Value()

	// Control run: the same interactions, the same mid-session label
	// mutation, no failure.
	control := newResumeStack(t)
	control.awaitTraffic()
	control.settle()
	for i := 1; i <= presses; i++ {
		control.press(i)
		if i == dropAt {
			control.settle()
			control.display.Update(func() { control.lbl.SetText("away message") })
		}
	}
	control.settle()
	controlShadow := control.shadow()

	// Faulted run: the link dies after the seeded interaction, the
	// server-side state mutates while nobody is connected, and the
	// session resumes.
	st := newResumeStack(t)
	st.awaitTraffic()
	st.settle()
	initialBytes := st.sup.Proxy().Client().BytesReceived() // cold join: full paint
	for i := 1; i <= dropAt; i++ {
		st.press(i)
	}
	st.settle()
	st.dropLink()
	// Detach-window damage: the label changes while nobody is connected
	// (the supervisor is still inside its redial backoff).
	st.display.Update(func() { st.lbl.SetText("away message") })
	waitCond(t, "reconnect", func() bool { return st.sup.Reconnects() == 1 })
	if got := st.sup.Resumes(); got != 1 {
		t.Fatalf("Resumes() = %d, want 1", got)
	}
	st.awaitTraffic() // the resync for the detach-window damage
	st.settle()

	// The resumed connection shipped an incremental resync of the
	// detach-window damage, not a full repaint: its traffic stays under
	// the cold join's initial full paint. (The margin is thin by design:
	// the wire tier's dictionary-zlib compresses the cold join's full
	// paint to a few hundred bytes, while the resync pays tile-install
	// bodies for a fresh tile window — so "well under half" no longer
	// separates the two, but strictly-cheaper still does.)
	resyncBytes := st.sup.Proxy().Client().BytesReceived()
	if resyncBytes >= initialBytes {
		t.Errorf("resync received %d bytes; cold join full paint was %d — looks like a full repaint",
			resyncBytes, initialBytes)
	}

	for i := dropAt + 1; i <= presses; i++ {
		st.press(i)
	}
	st.settle()

	// Zero lost, zero duplicated semantic input events.
	if got := st.clicks(); got != presses {
		t.Fatalf("clicks = %d, want exactly %d", got, presses)
	}

	// Byte-identical outcome: shadow matches the live display, and the
	// faulted run matches the uninterrupted control run pixel for pixel.
	full := gfx.R(0, 0, 320, 240)
	if !st.shadow().Equal(st.display.Snapshot(full)) {
		t.Error("resumed shadow framebuffer diverged from the display")
	}
	if !st.shadow().Equal(controlShadow) {
		t.Error("faulted run not byte-identical to uninterrupted control run")
	}

	if d := counters.Counter("session_parked_total").Value() - parked0; d < 1 {
		t.Errorf("session_parked_total delta = %d, want >= 1", d)
	}
	if d := counters.Counter("session_resumed_total").Value() - resumed0; d < 1 {
		t.Errorf("session_resumed_total delta = %d, want >= 1", d)
	}
}

// TestTraceSpansSurviveParkResume (ISSUE 6 satellite): a traced
// interaction that is still queued when its link dies keeps its trace id
// across the park window. The replayed dispatch and the resulting
// update flush land under the same id as the pre-drop proxy and wire
// spans; a park span explains the gap, and the queue span straddles it.
//
// The stall is engineered, not raced: the first press's click handler
// blocks on a gate (holding the display lock), so the second press's
// traced events queue behind it in the server's input queue. The link
// then drops, the gate opens, the dispatcher exits with the second
// press undispatched, and retire parks it for the resume to replay.
func TestTraceSpansSurviveParkResume(t *testing.T) {
	trace.Reset()
	trace.SetSampling(1)
	defer trace.Reset()
	defer trace.SetSampling(0)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var gate atomic.Bool
	gate.Store(true) // only the first click stalls; the replay must not
	wrap := func(inner func()) func() {
		return func() {
			if gate.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-release
			}
			inner()
		}
	}
	st := newResumeStackTuned(t, 250*time.Millisecond, wrap)
	st.awaitTraffic()
	st.settle()

	queued0 := metrics.Default().Counter("input_queued_total").Value()
	st.phone.PressKey("ok") // press A: its key-down blocks in the gate
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher never reached the gated click handler")
	}
	st.phone.PressKey("ok") // press B: queues behind the stalled dispatcher
	waitCond(t, "press B queued server-side", func() bool {
		return metrics.Default().Counter("input_queued_total").Value()-queued0 >= 4
	})

	sessions := metrics.Default().Gauge("server_sessions")
	live := sessions.Value()
	st.dropLink()
	// Let the dead link surface in the read loop before opening the gate:
	// the server halts the dispatcher before server_sessions drops, so
	// press B stays queued and retire parks it. The 250ms redial backoff
	// keeps the resumed session from raising the gauge again meanwhile.
	waitCond(t, "read loop saw the dropped link", func() bool { return sessions.Value() < live })
	close(release)

	waitCond(t, "reconnect", func() bool { return st.sup.Reconnects() == 1 })
	if got := st.sup.Resumes(); got != 1 {
		t.Fatalf("Resumes() = %d, want 1", got)
	}
	waitCond(t, "replayed click", func() bool { return st.clicks() == 2 })

	// The parked interaction: one trace id carries a park span and the
	// flush of the post-resume update.
	var parked map[trace.Stage]trace.Span
	waitCond(t, "parked interaction flushed", func() bool {
		for _, spans := range spansByTrace(trace.Snapshot()) {
			if _, ok := spans[trace.StagePark]; !ok {
				continue
			}
			if _, ok := spans[trace.StageFlush]; !ok {
				continue
			}
			parked = spans
			return true
		}
		return false
	})
	for _, stg := range []trace.Stage{
		trace.StageProxyFlush, trace.StageWire, trace.StageQueue,
		trace.StageDispatch, trace.StageRender, trace.StageEncode,
	} {
		if _, ok := parked[stg]; !ok {
			t.Fatalf("parked trace missing %s span", stg)
		}
	}
	park := parked[trace.StagePark]
	// The wire span closed before the park began (the event arrived on
	// the dying connection); the queue span straddles the whole detach
	// window; dispatch ran after the resume reclaimed the session.
	if wire := parked[trace.StageWire]; wire.End > park.Start {
		t.Errorf("wire span ends %d, after park start %d", wire.End, park.Start)
	}
	if q := parked[trace.StageQueue]; q.Start > park.Start || q.End < park.End {
		t.Errorf("queue span [%d, %d] does not straddle park window [%d, %d]",
			q.Start, q.End, park.Start, park.End)
	}
	if d := parked[trace.StageDispatch]; d.Start < park.End {
		t.Errorf("dispatch span starts %d, before park end %d", d.Start, park.End)
	}

	// The resume recorded its own lifecycle span (fresh id) covering the
	// detach window.
	resumes := 0
	for _, s := range trace.Snapshot() {
		if s.Stage == trace.StageResume {
			resumes++
		}
	}
	if resumes != 1 {
		t.Errorf("resume spans = %d, want 1", resumes)
	}
}
