package core_test

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"uniint/internal/core"
	"uniint/internal/gfx"
	"uniint/internal/rfb"
)

// recordingOutput is an output device whose plug-in records the damage
// each Convert receives; Present hands the record to the test.
type recordingOutput struct {
	id     string
	mu     sync.Mutex
	calls  [][]gfx.Rect // damage per Convert, nil kept as nil
	frames chan struct{}
}

func newRecordingOutput(id string) *recordingOutput {
	return &recordingOutput{id: id, frames: make(chan struct{}, 64)}
}

func (o *recordingOutput) ID() string                      { return o.id }
func (o *recordingOutput) Class() string                   { return "recorder" }
func (o *recordingOutput) OutputPlugin() core.OutputPlugin { return recordingPlugin{o} }
func (o *recordingOutput) Present(core.Frame)              { o.frames <- struct{}{} }

// next waits for the next presented frame and returns the damage its
// conversion received.
func (o *recordingOutput) next(t *testing.T) []gfx.Rect {
	t.Helper()
	select {
	case <-o.frames:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s: no frame presented", o.id)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.calls[len(o.calls)-1]
}

type recordingPlugin struct{ o *recordingOutput }

func (recordingPlugin) Name() string                 { return "recorder" }
func (recordingPlugin) PixelFormat() gfx.PixelFormat { return gfx.PF32() }
func (p recordingPlugin) Convert(fb *gfx.Framebuffer, damage []gfx.Rect) core.Frame {
	var rec []gfx.Rect
	if damage != nil {
		rec = append([]gfx.Rect{}, damage...)
	}
	p.o.mu.Lock()
	p.o.calls = append(p.o.calls, rec)
	p.o.mu.Unlock()
	return core.Frame{W: fb.W(), H: fb.H()}
}

// ignoreClient serves a raw protocol connection, discarding the proxy's
// messages; the test pushes updates itself.
type ignoreClient struct{}

func (ignoreClient) KeyEvent(rfb.KeyEvent)           {}
func (ignoreClient) PointerEvent(rfb.PointerEvent)   {}
func (ignoreClient) UpdateRequest(rfb.UpdateRequest) {}
func (ignoreClient) CutText(string)                  {}

// scriptedServer is a proxy running against a raw protocol server that
// ships exactly the updates the test sends, so every present's damage is
// known.
type scriptedServer struct {
	srv   *rfb.ServerConn
	proxy *core.Proxy
	fb    *gfx.Framebuffer
}

func newScriptedServer(t *testing.T) *scriptedServer {
	t.Helper()
	sc, cc := net.Pipe()
	srvc := make(chan *rfb.ServerConn, 1)
	go func() {
		s, err := rfb.NewServerConn(sc, 160, 120, "scripted")
		srvc <- s
		if err == nil {
			_ = s.Serve(ignoreClient{})
		}
	}()
	proxy, err := core.Dial(cc)
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{srv: <-srvc, proxy: proxy, fb: gfx.NewFramebuffer(160, 120)}
	done := make(chan error, 1)
	go func() { done <- proxy.Run() }()
	t.Cleanup(func() {
		proxy.Close()
		s.srv.Close()
		<-done
	})
	return s
}

// update paints rects in a fresh color and ships them as one update.
func (s *scriptedServer) update(t *testing.T, rects ...gfx.Rect) []gfx.Rect {
	t.Helper()
	for _, r := range rects {
		s.fb.Fill(r, gfx.RGB(uint8(r.X), uint8(r.Y), uint8(r.W)))
	}
	if err := s.srv.SendUpdate(s.fb, rects); err != nil {
		t.Fatal(err)
	}
	return rects
}

func (s *scriptedServer) attach(t *testing.T, outs ...*recordingOutput) {
	t.Helper()
	for _, o := range outs {
		if err := s.proxy.AttachOutput(o); err != nil {
			t.Fatal(err)
		}
	}
}

func wantDamage(t *testing.T, what string, got, want []gfx.Rect) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: plug-in got damage %v, want %v", what, got, want)
	}
}

func wantWhole(t *testing.T, what string, got []gfx.Rect) {
	t.Helper()
	if got != nil {
		t.Errorf("%s: plug-in got damage %v, want nil (convert whole)", what, got)
	}
}

func TestPresentPassesUpdateDamage(t *testing.T) {
	s := newScriptedServer(t)
	a := newRecordingOutput("a")
	s.attach(t, a)
	if err := s.proxy.SelectOutput("a"); err != nil {
		t.Fatal(err)
	}
	s.update(t, gfx.R(0, 0, 8, 8))
	wantWhole(t, "first present", a.next(t))

	want := s.update(t, gfx.R(10, 20, 30, 5), gfx.R(100, 90, 4, 4))
	wantDamage(t, "ordinary update", a.next(t), want)

	s.proxy.RefreshOutput()
	wantWhole(t, "RefreshOutput", a.next(t))

	want = s.update(t, gfx.R(1, 2, 3, 4))
	wantDamage(t, "update after a refresh", a.next(t), want)
}

func TestPresentInvalidatesNewTargets(t *testing.T) {
	s := newScriptedServer(t)
	a, b, m := newRecordingOutput("a"), newRecordingOutput("b"), newRecordingOutput("m")
	s.attach(t, a, b, m)
	if err := s.proxy.SelectOutput("a"); err != nil {
		t.Fatal(err)
	}
	s.update(t, gfx.R(0, 0, 8, 8))
	a.next(t)

	// A mirror added mid-stream converts whole; the primary keeps going
	// incrementally.
	if err := s.proxy.AddMirror("m"); err != nil {
		t.Fatal(err)
	}
	want := s.update(t, gfx.R(5, 5, 5, 5))
	wantDamage(t, "primary beside a new mirror", a.next(t), want)
	wantWhole(t, "mirror added mid-stream", m.next(t))
	want = s.update(t, gfx.R(6, 6, 6, 6))
	wantDamage(t, "primary", a.next(t), want)
	wantDamage(t, "established mirror", m.next(t), want)

	// An output switch: the new device converts whole, and so does the
	// old one when it returns, having missed presents meanwhile.
	if err := s.proxy.SelectOutput("b"); err != nil {
		t.Fatal(err)
	}
	s.update(t, gfx.R(7, 7, 7, 7))
	wantWhole(t, "switched-to output", b.next(t))
	m.next(t)
	if err := s.proxy.SelectOutput("a"); err != nil {
		t.Fatal(err)
	}
	s.update(t, gfx.R(8, 8, 8, 8))
	wantWhole(t, "output switched back after missing a present", a.next(t))
	m.next(t)
}

func TestPresentInvalidatesOnAdoptShadow(t *testing.T) {
	prev := newScriptedServer(t)
	s := newScriptedServer(t)
	a := newRecordingOutput("a")
	s.attach(t, a)
	if err := s.proxy.SelectOutput("a"); err != nil {
		t.Fatal(err)
	}
	s.update(t, gfx.R(0, 0, 8, 8))
	a.next(t)
	want := s.update(t, gfx.R(9, 9, 9, 9))
	wantDamage(t, "before adoption", a.next(t), want)

	// Adoption rewrites the whole shadow behind the plug-in's back.
	prev.proxy.Close()
	if !s.proxy.Client().AdoptShadow(prev.proxy.Client()) {
		t.Fatal("AdoptShadow refused a same-size shadow")
	}
	s.update(t, gfx.R(1, 1, 1, 1))
	wantWhole(t, "first present after AdoptShadow", a.next(t))
	want = s.update(t, gfx.R(2, 2, 2, 2))
	wantDamage(t, "after the adoption settled", a.next(t), want)
}
