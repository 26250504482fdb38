package uniint

import (
	"net"
	"testing"

	"uniint/internal/core"
	"uniint/internal/device"
	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
	"uniint/internal/workload"
)

// focusCycle renders a 320×240 control panel and moves keyboard focus
// through it until focus is back where it started, returning the screen
// after every move that repainted something and that move's damage. The
// last screen equals the starting one, so the steps replay as a cycle.
func focusCycle(b testing.TB) (screens []*gfx.Framebuffer, damage [][]gfx.Rect) {
	b.Helper()
	d := toolkit.NewDisplay(320, 240)
	d.SetRoot(workload.NewUIScene(16).Root)
	d.Render()
	start := d.Snapshot(gfx.R(0, 0, 320, 240))
	first := d.Focus()
	for i := 0; i < 64; i++ {
		d.InjectKey(true, toolkit.KeyTab)
		d.InjectKey(false, toolkit.KeyTab)
		if rects := d.Render(); len(rects) > 0 {
			screens = append(screens, d.Snapshot(gfx.R(0, 0, 320, 240)))
			damage = append(damage, append([]gfx.Rect(nil), rects...))
		}
		if d.Focus() == first {
			break
		}
	}
	if len(screens) < 2 || !screens[len(screens)-1].Equal(start) {
		b.Fatalf("focus moves did not cycle back to the first screen (%d steps)", len(screens))
	}
	return screens, damage
}

// BenchmarkPresentKeypress measures the proxy's present path for the
// paper's main output example: a 96×64 1-bit phone bound to a proxy on a
// 320×240 GUI desktop. A scripted server replays a fixed cycle of focus
// moves; one op is one move's FramebufferUpdate read into the proxy's
// shadow, converted for the LCD and presented. srcpx/op counts the
// desktop pixels the phone's plug-in re-averaged per present: the
// damage-driven conversion reads a focus move's boxes, not the screen.
func BenchmarkPresentKeypress(b *testing.B) {
	screens, damage := focusCycle(b)
	sc, cc := net.Pipe()
	srvc := make(chan *rfb.ServerConn, 1)
	go func() {
		s, err := rfb.NewServerConn(sc, 320, 240, "present bench")
		srvc <- s
		if err == nil {
			_ = s.Serve(discardHandler{})
		}
	}()
	proxy, err := core.Dial(cc)
	if err != nil {
		b.Fatal(err)
	}
	srv := <-srvc
	phone := device.NewPhone("phone-1")
	if err := proxy.AttachOutput(phone); err != nil {
		b.Fatal(err)
	}
	if err := proxy.SelectOutput(phone.ID()); err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- proxy.Run() }()
	b.Cleanup(func() {
		proxy.Close()
		srv.Close()
		<-done
	})

	// The whole starting screen first: that present converts everything.
	start := screens[len(screens)-1]
	if err := srv.SendUpdate(start, []gfx.Rect{start.Bounds()}); err != nil {
		b.Fatal(err)
	}
	phone.WaitFrames(1)
	px0 := phone.SourcePixels()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(screens)
		if err := srv.SendUpdate(screens[k], damage[k]); err != nil {
			b.Fatal(err)
		}
		phone.WaitFrames(int64(i) + 2)
	}
	b.StopTimer()
	b.ReportMetric(float64(phone.SourcePixels()-px0)/float64(b.N), "srcpx/op")
}
