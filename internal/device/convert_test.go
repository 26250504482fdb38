package device

import (
	"math/rand"
	"testing"

	"uniint/internal/core"
	"uniint/internal/gfx"
)

// Damage-driven conversion: a plug-in instance fed a stream of updates and
// their damage rects must hand out, at every step, exactly the frame a
// fresh instance converts from the whole framebuffer — and never touch a
// frame it handed out before.

const convW, convH = 320, 240

// opSize is the number of fuzz bytes one fill consumes: x, y, w, h, r, g,
// b and a flags byte (bit 0: the fill joins the previous step's update;
// bit 1: the step converts with nil damage, as RefreshOutput does).
const opSize = 8

type convStep struct {
	damage []gfx.Rect
	full   bool
}

// convSteps decodes fuzz bytes into updates, painting each fill into fb
// as it goes; paint(i) applies the fills of step i.
func convSteps(fb *gfx.Framebuffer, ops []byte) (steps []convStep, paint func(i int)) {
	type fill struct {
		r gfx.Rect
		c gfx.Color
	}
	var fills [][]fill
	for len(ops) >= opSize {
		b := ops[:opSize]
		ops = ops[opSize:]
		f := fill{
			r: gfx.R(int(b[0])*(convW+16)/256-8, int(b[1])*(convH+16)/256-8,
				int(b[2])*convW/512+1, int(b[3])*convH/512+1),
			c: gfx.RGB(b[4], b[5], b[6]),
		}
		if b[7]&1 != 0 && len(steps) > 0 {
			last := len(steps) - 1
			steps[last].damage = append(steps[last].damage, f.r)
			fills[last] = append(fills[last], f)
			continue
		}
		steps = append(steps, convStep{damage: []gfx.Rect{f.r}, full: b[7]&2 != 0})
		fills = append(fills, []fill{f})
	}
	return steps, func(i int) {
		for _, f := range fills[i] {
			fb.Fill(f.r, f.c)
		}
	}
}

func frameBytes(f core.Frame) string {
	if f.Bits != nil {
		return string(f.Bits.Bits)
	}
	px := f.RGB.Pix()
	b := make([]byte, 0, 4*len(px))
	for _, c := range px {
		b = append(b, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return string(b)
}

// checkConvertDamage runs the damage property for the phone and PDA
// plug-ins on a random frame drawn from seed and the updates in ops.
func checkConvertDamage(t *testing.T, seed int64, ops []byte) {
	devices := map[string]func() core.OutputPlugin{
		"phone": NewPhone("f").OutputPlugin,
		"pda":   NewPDA("p").OutputPlugin,
	}
	for name, plugin := range devices {
		rng := rand.New(rand.NewSource(seed))
		fb := gfx.NewFramebuffer(convW, convH)
		for i := range fb.Pix() {
			fb.Pix()[i] = gfx.RGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		}
		steps, paint := convSteps(fb, ops)
		inc := plugin()
		type handed struct {
			f    core.Frame
			want string
		}
		out := []handed{{f: inc.Convert(fb, nil)}}
		out[0].want = frameBytes(out[0].f)
		for i, st := range steps {
			paint(i)
			damage := st.damage
			if st.full {
				damage = nil
			}
			got := inc.Convert(fb, damage)
			want := frameBytes(plugin().Convert(fb, nil))
			if frameBytes(got) != want {
				t.Fatalf("%s step %d (damage %v): incremental frame differs from a whole conversion", name, i, damage)
			}
			out = append(out, handed{got, want})
		}
		for i, h := range out {
			if frameBytes(h.f) != h.want {
				t.Fatalf("%s: frame %d changed after it was handed out", name, i)
			}
		}
	}
}

func TestOutputConvertDamageMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for seed := int64(1); seed <= 6; seed++ {
		ops := make([]byte, 40*opSize)
		rng.Read(ops)
		checkConvertDamage(t, seed, ops)
	}
}

// TestPhoneConvertReadsOnlyDamage pins the point of the exercise: an
// update touching a few pixels re-averages a few boxes, not the screen.
func TestPhoneConvertReadsOnlyDamage(t *testing.T) {
	p := NewPhone("f")
	pl := p.OutputPlugin()
	fb := gfx.NewFramebuffer(convW, convH)
	pl.Convert(fb, nil)
	if got := p.SourcePixels(); got != convW*convH {
		t.Fatalf("whole conversion read %d source pixels, want %d", got, convW*convH)
	}
	fb.Fill(gfx.R(100, 100, 2, 2), gfx.White)
	pl.Convert(fb, []gfx.Rect{gfx.R(100, 100, 2, 2)})
	if got := p.SourcePixels() - convW*convH; got <= 0 || got > 64 {
		t.Errorf("a 2x2 update read %d source pixels", got)
	}
}

func FuzzOutputConvertDamage(f *testing.F) {
	f.Add(int64(1), []byte{10, 10, 40, 40, 255, 255, 255, 0})
	f.Add(int64(2), []byte{
		0, 0, 255, 255, 0, 0, 0, 0, // whole-screen black
		128, 128, 8, 8, 255, 255, 255, 0,
		130, 128, 8, 8, 255, 0, 0, 1, // same update
		250, 250, 200, 200, 9, 9, 9, 2, // nil damage, partly off screen
	})
	f.Add(int64(3), []byte{255, 255, 255, 255, 1, 2, 3, 0, 7, 200, 3, 3, 200, 100, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64*opSize {
			ops = ops[:64*opSize]
		}
		checkConvertDamage(t, seed, ops)
	})
}
