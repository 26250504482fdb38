package device

import (
	"testing"

	"uniint/internal/core"
	"uniint/internal/gfx"
	"uniint/internal/rfb"
)

func TestDeviceIdentities(t *testing.T) {
	tests := []struct {
		id, class string
		in        core.InputDevice
		out       core.OutputDevice
	}{
		{"pda-x", "pda", NewPDA("pda-x"), NewPDA("pda-x")},
		{"ph-x", "phone", NewPhone("ph-x"), NewPhone("ph-x")},
		{"v-x", "voice", NewVoiceInput("v-x"), nil},
		{"g-x", "gesture", NewGestureInput("g-x"), nil},
		{"r-x", "remote", NewRemoteControl("r-x"), nil},
		{"tv-x", "tv", nil, NewTVDisplay("tv-x")},
	}
	for _, tt := range tests {
		if tt.in != nil {
			if tt.in.ID() != tt.id || tt.in.Class() != tt.class {
				t.Errorf("input %s: id=%q class=%q", tt.id, tt.in.ID(), tt.in.Class())
			}
			if tt.in.InputPlugin().Name() == "" {
				t.Errorf("%s: empty plugin name", tt.id)
			}
			// Bind must be safe for every plugin.
			tt.in.InputPlugin().Bind(640, 480)
		}
		if tt.out != nil {
			if tt.out.ID() != tt.id || tt.out.Class() != tt.class {
				t.Errorf("output %s: id=%q class=%q", tt.id, tt.out.ID(), tt.out.Class())
			}
			if tt.out.OutputPlugin().Name() == "" {
				t.Errorf("%s: empty plugin name", tt.id)
			}
			if !tt.out.OutputPlugin().PixelFormat().Valid() {
				t.Errorf("%s: invalid pixel format", tt.id)
			}
		}
	}
}

func TestScreenBackedDevices(t *testing.T) {
	frame := core.Frame{W: 10, H: 10, RGB: gfx.NewFramebuffer(10, 10), Seq: 1}
	devs := []interface {
		Present(core.Frame)
		Latest() core.Frame
		FrameCount() int64
		WaitFrames(int64) core.Frame
	}{
		NewPDA("p"), NewPhone("f"), NewTVDisplay("t"),
	}
	for _, d := range devs {
		d.Present(frame)
		if d.FrameCount() != 1 || d.Latest().Seq != 1 {
			t.Errorf("%T: count=%d seq=%d", d, d.FrameCount(), d.Latest().Seq)
		}
		if got := d.WaitFrames(1); got.Seq != 1 {
			t.Errorf("%T: wait seq=%d", d, got.Seq)
		}
	}
}

func TestPDATouchMoveDrag(t *testing.T) {
	pda := NewPDA("p")
	defer pda.Close()
	pl := pda.InputPlugin()
	pl.Bind(640, 480)
	pda.TouchDown(10, 10)
	pda.TouchMove(20, 10)
	pda.TouchUp(20, 10)
	evs := collect(pda.Events(), 3)
	mid := pl.Translate(evs[1])
	if len(mid) != 1 || mid[0].Pointer.Buttons != 1 {
		t.Errorf("drag should keep the button held: %+v", mid)
	}
	if pda.Dropped() != 0 {
		t.Errorf("dropped = %d", pda.Dropped())
	}
}

func TestRemoteHoldRelease(t *testing.T) {
	r := NewRemoteControl("r")
	defer r.Close()
	pl := r.InputPlugin()
	pl.Bind(640, 480)
	r.Hold("down")
	r.Release("down")
	evs := collect(r.Events(), 2)
	down := pl.Translate(evs[0])
	up := pl.Translate(evs[1])
	if !down[0].Key.Down || up[0].Key.Down {
		t.Error("hold/release should map to press/release")
	}
	if down[0].Key.Key != rfb.KeyDown {
		t.Errorf("key = %x", down[0].Key.Key)
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d", r.Dropped())
	}
}

func TestTVDisplayScalesOddSources(t *testing.T) {
	pl := NewTVDisplay("t").OutputPlugin()
	src := gfx.NewFramebuffer(320, 200) // not the TV's native size
	src.Clear(gfx.Green)
	f := pl.Convert(src, nil)
	if f.W != TVWidth || f.H != TVHeight {
		t.Fatalf("geometry %dx%d", f.W, f.H)
	}
	if f.RGB.At(100, 100) != gfx.Green {
		t.Error("scaled content lost")
	}
}

func TestPluginsIgnoreForeignEventKinds(t *testing.T) {
	// Every input plug-in must ignore event kinds it does not own —
	// the proxy shares one RawEvent vocabulary across devices.
	foreign := []core.RawEvent{
		{Kind: core.EvStylus, X: 1, Y: 1, Down: true},
		{Kind: core.EvKeypad, Code: "ok", Down: true},
		{Kind: core.EvUtterance, Code: "select"},
		{Kind: core.EvStroke, Code: StrokeTap},
		{Kind: core.EvButton, Code: "ok", Down: true},
	}
	owners := map[string]core.InputPlugin{
		core.EvStylus:    NewPDA("p").InputPlugin(),
		core.EvKeypad:    NewPhone("f").InputPlugin(),
		core.EvUtterance: NewVoiceInput("v").InputPlugin(),
		core.EvStroke:    NewGestureInput("g").InputPlugin(),
		core.EvButton:    NewRemoteControl("r").InputPlugin(),
	}
	for kind, pl := range owners {
		pl.Bind(640, 480)
		for _, ev := range foreign {
			got := pl.Translate(ev)
			if ev.Kind == kind {
				if len(got) == 0 {
					t.Errorf("%s plugin ignored its own event", kind)
				}
			} else if len(got) != 0 {
				t.Errorf("%s plugin consumed foreign %s event", kind, ev.Kind)
			}
		}
	}
}
