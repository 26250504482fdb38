package main

import (
	"reflect"

	"uniint/internal/gfx"
	"uniint/internal/rfb"
	"uniint/internal/toolkit"
)

// planStep turns a key drawn from the workload generator into a key whose
// effect on the panel is visible, judged from the focused widget. A press
// without a visible effect never produces a frame, so a closed-loop user
// waiting for one would stall (pressing "ok" on an action button repaints
// nothing, nor does a slider nudge at its end stop, nor anything that
// happens to a widget the 240-line screen clips). activation reports a
// press that changes an appliance control through the middleware.
//
// The rules, in order:
//   - focus off screen: move it back onto the screen;
//   - "ok" on a toggle: flip it;
//   - "6"/"4" on a slider: nudge it, reversed at an end stop;
//   - "#", "8", "2": move focus (its old or new widget is on screen);
//   - anything else: move focus forward.
func planStep(d *toolkit.Display, drawn string) (key string, activation bool) {
	root, focus := d.Root(), d.Focus()
	w, h := d.Size()
	screen := gfx.R(0, 0, w, h)
	// Update holds the display lock, so the widget tree is read as the
	// dispatcher leaves it; reading posts no damage.
	d.Update(func() {
		chain := focusables(root, nil)
		idx := -1
		for i, c := range chain {
			if c == focus {
				idx = i
			}
		}
		n := len(chain)
		if n == 0 {
			key = "#"
			return
		}
		on := func(i int) bool {
			r := chain[((i%n)+n)%n].Bounds()
			return !r.Empty() && screen.ContainsRect(r)
		}
		if idx < 0 || !on(idx) {
			key = "#"
			if idx >= 0 && on(idx-1) {
				key = "2"
			}
			return
		}
		switch fw := focus.(type) {
		case *toolkit.Toggle:
			if drawn == "ok" {
				key, activation = "ok", true
				return
			}
		case *toolkit.Slider:
			if drawn == "6" || drawn == "4" {
				lo, hi := sliderRange(fw)
				v := fw.Value()
				switch {
				case drawn == "6" && v >= hi:
					drawn = "4"
				case drawn == "4" && v <= lo:
					drawn = "6"
				}
				key, activation = drawn, true
				return
			}
		}
		switch drawn {
		case "#", "8", "2":
			key = drawn
		default:
			key = "#"
		}
	})
	return key, activation
}

// focusables lists w's focusable widgets in the order Tab visits them:
// depth first, visible subtrees only (the toolkit's own traversal rule).
func focusables(w toolkit.Widget, out []toolkit.Widget) []toolkit.Widget {
	if w == nil || !w.Visible() {
		return out
	}
	if w.Focusable() {
		out = append(out, w)
	}
	for _, c := range w.Children() {
		out = focusables(c, out)
	}
	return out
}

// sliderRange reads a slider's bounds. toolkit.Slider exports its value
// but not its range, so the range is read by reflection; without it a
// nudge into an end stop could not be told from one that moves the knob.
func sliderRange(s *toolkit.Slider) (lo, hi int) {
	v := reflect.ValueOf(s).Elem()
	return int(v.FieldByName("min").Int()), int(v.FieldByName("max").Int())
}

// shows reports whether the client's shadow framebuffer shows what the
// display holds: every pixel equal to the display's, or to its round trip
// through pf, the wire format the client negotiated (updates shipped
// before the negotiation arrive in the server's exact format). A display
// with undrawn damage is not settled and never matches. The pixels are
// read under the display's pixel lock rather than through
// Display.Snapshot, which would render pending damage itself and so take
// it away from the server's update pump; with no damage pending the two
// read the same pixels.
func shows(c *rfb.ClientConn, d *toolkit.Display, pf gfx.PixelFormat) bool {
	if d.Dirty() {
		return false
	}
	var want []gfx.Color
	d.WithFramebuffer(func(fb *gfx.Framebuffer) { want = append(want, fb.Pix()...) })
	ok := true
	c.WithFramebuffer(func(fb *gfx.Framebuffer) {
		got := fb.Pix()
		if len(got) != len(want) {
			ok = false
			return
		}
		var from, to gfx.Color
		cached := false
		for i, g := range got {
			w := want[i]
			if g == w {
				continue
			}
			if !cached || w != from {
				from, to, cached = w, pf.Decode(pf.Encode(w)), true
			}
			if g != to {
				ok = false
				return
			}
		}
	})
	return ok
}
