package gfx

// ScaleNearest resizes src to w×h using nearest-neighbour sampling. It is
// the cheap path used when upscaling or when the output device asked for
// speed over quality.
func ScaleNearest(src *Framebuffer, w, h int) *Framebuffer {
	dst := NewFramebuffer(w, h)
	if src.w == 0 || src.h == 0 || w == 0 || h == 0 {
		return dst
	}
	for y := 0; y < h; y++ {
		sy := y * src.h / h
		srow := src.pix[sy*src.w : (sy+1)*src.w]
		drow := dst.pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			drow[x] = srow[x*src.w/w]
		}
	}
	return dst
}

// ScaleBox resizes src to w×h using box averaging. When downscaling (the
// common case: a 640×480 server frame onto a 320×240 PDA or 96×64 phone
// screen) it averages all covered source pixels, which keeps text legible
// where nearest-neighbour would drop strokes. When upscaling in both
// dimensions each box is a single source pixel, so box degenerates to
// nearest.
func ScaleBox(src *Framebuffer, w, h int) *Framebuffer {
	dst := NewFramebuffer(w, h)
	RescaleBox(dst, src, nil)
	return dst
}

// RescaleBox brings dst, a ScaleBox of an earlier state of src, up to date
// after the pixels inside damage changed: it re-averages only the
// destination pixels whose source boxes overlap a damage rectangle, so dst
// ends equal to ScaleBox(src, dst.W(), dst.H()) exactly. nil damage
// re-averages every destination pixel. It returns the bounding rectangle
// of the destination pixels whose value changed and the number of source
// pixels read.
func RescaleBox(dst, src *Framebuffer, damage []Rect) (changed Rect, srcPx int) {
	if dst.w == 0 || dst.h == 0 {
		return Rect{}, 0
	}
	if src.w == 0 || src.h == 0 {
		if damage != nil { // no damage survives clipping to an empty source
			return Rect{}, 0
		}
		dst.Clear(Black) // ScaleBox of an empty source is black
		return dst.Bounds(), 0
	}
	if damage == nil {
		return rescaleBoxRect(dst, src, dst.Bounds())
	}
	for _, r := range damage {
		r = r.Intersect(src.Bounds())
		if r.Empty() {
			continue
		}
		x0, x1 := boxSpan(r.X, r.MaxX(), src.w, dst.w)
		y0, y1 := boxSpan(r.Y, r.MaxY(), src.h, dst.h)
		c, n := rescaleBoxRect(dst, src, Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0})
		changed = changed.Union(c)
		srcPx += n
	}
	return changed, srcPx
}

// boxLo and boxHi bound the source span [boxLo, boxHi) that destination
// index i averages when sn source pixels map onto dn destination pixels.
// A span is never empty, so upscaling samples the nearest source pixel.
func boxLo(i, sn, dn int) int { return i * sn / dn }

func boxHi(i, sn, dn int) int { return max((i+1)*sn/dn, boxLo(i, sn, dn)+1) }

// boxSpan returns the destination indices [d0, d1) whose source spans
// overlap the source interval [lo, hi). Both span ends grow with the
// index, so the overlapping indices are contiguous.
func boxSpan(lo, hi, sn, dn int) (d0, d1 int) {
	// First index whose span ends after lo: its end is either
	// (i+1)*sn/dn > lo or its start is at or past lo.
	d0 = min(ceilDiv((lo+1)*dn, sn)-1, ceilDiv(lo*dn, sn))
	// First index whose span starts at or past hi.
	d1 = min(ceilDiv(hi*dn, sn), dn)
	return max(d0, 0), d1
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// rescaleBoxRect re-averages the destination pixels in dr (inside dst).
func rescaleBoxRect(dst, src *Framebuffer, dr Rect) (changed Rect, srcPx int) {
	// Upscaling in both dimensions samples one source pixel per box;
	// copying it keeps every bit of the source Color.
	nearest := dst.w >= src.w && dst.h >= src.h
	cx0, cy0, cx1, cy1 := dr.MaxX(), dr.MaxY(), dr.X, dr.Y
	for y := dr.Y; y < dr.MaxY(); y++ {
		sy0, sy1 := boxLo(y, src.h, dst.h), boxHi(y, src.h, dst.h)
		drow := dst.pix[y*dst.w : (y+1)*dst.w]
		first, last := -1, -1
		sx0 := boxLo(dr.X, src.w, dst.w)
		for x := dr.X; x < dr.MaxX(); x++ {
			next := boxLo(x+1, src.w, dst.w)
			sx1 := max(next, sx0+1)
			var c Color
			if nearest {
				c = src.pix[sy0*src.w+sx0]
			} else {
				var rs, gs, bs uint32
				for i := sy0 * src.w; i < sy1*src.w; i += src.w {
					for _, s := range src.pix[i+sx0 : i+sx1] {
						rs += uint32(s >> 16 & 0xff)
						gs += uint32(s >> 8 & 0xff)
						bs += uint32(s & 0xff)
					}
				}
				n := uint32((sy1 - sy0) * (sx1 - sx0))
				c = RGB(uint8(rs/n), uint8(gs/n), uint8(bs/n))
			}
			if drow[x] != c {
				drow[x] = c
				if first < 0 {
					first = x
				}
				last = x
			}
			sx0 = next
		}
		srcPx += (sy1 - sy0) * (boxHi(dr.MaxX()-1, src.w, dst.w) - boxLo(dr.X, src.w, dst.w))
		if first >= 0 {
			cx0, cy0 = min(cx0, first), min(cy0, y)
			cx1, cy1 = max(cx1, last+1), max(cy1, y+1)
		}
	}
	if cx1 <= cx0 {
		return Rect{}, srcPx
	}
	return Rect{X: cx0, Y: cy0, W: cx1 - cx0, H: cy1 - cy0}, srcPx
}

// FitScale computes the largest (w, h) with the same aspect ratio as
// (srcW, srcH) that fits inside (maxW, maxH). Degenerate inputs yield (0, 0).
func FitScale(srcW, srcH, maxW, maxH int) (w, h int) {
	if srcW <= 0 || srcH <= 0 || maxW <= 0 || maxH <= 0 {
		return 0, 0
	}
	// Compare srcW/srcH with maxW/maxH without floats.
	if srcW*maxH >= srcH*maxW {
		w = maxW
		h = srcH * maxW / srcW
		if h < 1 {
			h = 1
		}
	} else {
		h = maxH
		w = srcW * maxH / srcH
		if w < 1 {
			w = 1
		}
	}
	return w, h
}
