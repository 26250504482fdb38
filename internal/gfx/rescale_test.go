package gfx

import (
	"math/rand"
	"testing"
)

// refScaleBox is the straightforward box filter (nearest when upscaling
// in both dimensions) that ScaleBox and RescaleBox must reproduce.
func refScaleBox(src *Framebuffer, w, h int) *Framebuffer {
	dst := NewFramebuffer(w, h)
	if src.w == 0 || src.h == 0 || w == 0 || h == 0 {
		return dst
	}
	if w >= src.w && h >= src.h {
		return ScaleNearest(src, w, h)
	}
	for y := 0; y < h; y++ {
		sy0, sy1 := y*src.h/h, max((y+1)*src.h/h, y*src.h/h+1)
		for x := 0; x < w; x++ {
			sx0, sx1 := x*src.w/w, max((x+1)*src.w/w, x*src.w/w+1)
			var rs, gs, bs, n uint32
			for sy := sy0; sy < sy1; sy++ {
				for sx := sx0; sx < sx1; sx++ {
					c := src.At(sx, sy)
					rs += uint32(c.R())
					gs += uint32(c.G())
					bs += uint32(c.B())
					n++
				}
			}
			dst.Set(x, y, RGB(uint8(rs/n), uint8(gs/n), uint8(bs/n)))
		}
	}
	return dst
}

func randomFrame(rng *rand.Rand, w, h int) *Framebuffer {
	f := NewFramebuffer(w, h)
	for i := range f.pix {
		f.pix[i] = RGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
	return f
}

// randomRect returns a rectangle that may stick out of w×h.
func randomRect(rng *rand.Rand, w, h int) Rect {
	return R(rng.Intn(w+8)-4, rng.Intn(h+8)-4, rng.Intn(w/2+2), rng.Intn(h/2+2))
}

func TestScaleBoxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range [][4]int{
		{320, 240, 96, 64}, {640, 480, 320, 240}, {320, 240, 320, 240},
		{7, 5, 3, 2}, {5, 7, 9, 3}, {3, 2, 7, 5}, {1, 1, 4, 4}, {10, 10, 10, 3},
	} {
		src := randomFrame(rng, g[0], g[1])
		if !ScaleBox(src, g[2], g[3]).Equal(refScaleBox(src, g[2], g[3])) {
			t.Errorf("ScaleBox %dx%d → %dx%d differs from the reference", g[0], g[1], g[2], g[3])
		}
	}
}

func TestBoxSpanMatchesBruteForce(t *testing.T) {
	for sn := 1; sn <= 24; sn++ {
		for dn := 1; dn <= 24; dn++ {
			for lo := 0; lo < sn; lo++ {
				for hi := lo + 1; hi <= sn; hi++ {
					w0, w1 := dn, 0
					for i := 0; i < dn; i++ {
						if boxLo(i, sn, dn) < hi && boxHi(i, sn, dn) > lo {
							w0, w1 = min(w0, i), max(w1, i+1)
						}
					}
					if d0, d1 := boxSpan(lo, hi, sn, dn); d0 != w0 || d1 != w1 {
						t.Fatalf("boxSpan(%d, %d, %d, %d) = [%d, %d), want [%d, %d)", lo, hi, sn, dn, d0, d1, w0, w1)
					}
				}
			}
		}
	}
}

// TestRescaleBoxTracksDamage paints random fills and checks that
// re-averaging only the damaged boxes keeps the scaled image equal to a
// full ScaleBox, and that the reported change covers every changed pixel.
func TestRescaleBoxTracksDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range [][4]int{{320, 240, 96, 64}, {320, 240, 320, 240}, {50, 40, 7, 9}, {20, 10, 40, 30}} {
		src := randomFrame(rng, g[0], g[1])
		dst := ScaleBox(src, g[2], g[3])
		for step := 0; step < 300; step++ {
			damage := make([]Rect, 1+rng.Intn(3))
			for i := range damage {
				damage[i] = randomRect(rng, g[0], g[1])
				src.Fill(damage[i], RGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))))
			}
			before := dst.Clone()
			changed, _ := RescaleBox(dst, src, damage)
			want := ScaleBox(src, g[2], g[3])
			if !dst.Equal(want) {
				t.Fatalf("%v step %d: incremental scale differs from ScaleBox", g, step)
			}
			if diff := before.DiffRect(dst); !changed.ContainsRect(diff) {
				t.Fatalf("%v step %d: changed %v misses %v", g, step, changed, diff)
			}
		}
	}
}

func TestRescaleBoxCountsSourcePixels(t *testing.T) {
	src := NewFramebuffer(320, 240)
	dst := ScaleBox(src, 96, 64)
	if _, n := RescaleBox(dst, src, nil); n != 320*240 {
		t.Errorf("full rescale read %d source pixels, want %d", n, 320*240)
	}
	if _, n := RescaleBox(dst, src, []Rect{}); n != 0 {
		t.Errorf("empty damage read %d source pixels", n)
	}
	// One source pixel lies in exactly one box.
	if _, n := RescaleBox(dst, src, []Rect{R(0, 0, 1, 1)}); n != 9 {
		t.Errorf("one-pixel damage read %d source pixels, want the 3x3 box", n)
	}
}

// TestDithererResumesExactly re-dithers from random rows after changing
// only the rows below them and compares with a full FloydSteinberg; the
// bitmaps handed out earlier must stay as they were.
func TestDithererResumesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomFrame(rng, 96, 64)
	var d Ditherer
	type kept struct {
		b    *Bitmap
		bits string
	}
	var out []kept
	for step := 0; step < 200; step++ {
		from := rng.Intn(src.h + 1)
		if step > 0 {
			src.Fill(R(rng.Intn(src.w), from, rng.Intn(src.w), rng.Intn(src.h)), RGB(uint8(rng.Intn(256)), 0, uint8(rng.Intn(256))))
		}
		b := d.Dither(src, from)
		want := FloydSteinberg(src)
		if string(b.Bits) != string(want.Bits) {
			t.Fatalf("step %d (from row %d): resumed dither differs", step, from)
		}
		out = append(out, kept{b, string(b.Bits)})
	}
	for i, k := range out {
		if string(k.b.Bits) != k.bits {
			t.Fatalf("bitmap %d changed after it was returned", i)
		}
	}
	if d.Dither(NewFramebuffer(8, 3), 2).Ones() != 0 {
		t.Error("new geometry did not restart the diffusion")
	}
}
