package gfx

// Color-reduction routines used by output plug-ins: grayscale conversion,
// fixed-threshold and error-diffusion binarization for 1-bit phone screens,
// ordered dithering, and palette quantization for 8-bit displays.

// ToGray returns a copy of src with every pixel replaced by its luma.
func ToGray(src *Framebuffer) *Framebuffer {
	dst := NewFramebuffer(src.w, src.h)
	for i, c := range src.pix {
		y := c.Gray()
		dst.pix[i] = RGB(y, y, y)
	}
	return dst
}

// Bitmap is a 1-bit-per-pixel image, the native format of the cellular
// phone device's display. Rows are packed MSB-first.
type Bitmap struct {
	W, H   int
	Stride int // bytes per row
	Bits   []byte
}

// NewBitmap allocates a cleared w×h bitmap.
func NewBitmap(w, h int) *Bitmap {
	stride := (w + 7) / 8
	return &Bitmap{W: w, H: h, Stride: stride, Bits: make([]byte, stride*h)}
}

// Get reports whether the pixel at (x, y) is set; out of bounds is false.
func (b *Bitmap) Get(x, y int) bool {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return false
	}
	return b.Bits[y*b.Stride+x/8]&(0x80>>uint(x%8)) != 0
}

// Set sets or clears the pixel at (x, y); out of bounds is ignored.
func (b *Bitmap) Set(x, y int, on bool) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	mask := byte(0x80) >> uint(x%8)
	if on {
		b.Bits[y*b.Stride+x/8] |= mask
	} else {
		b.Bits[y*b.Stride+x/8] &^= mask
	}
}

// Ones counts the number of set pixels (used by tests and by the phone
// device's screen diffing).
func (b *Bitmap) Ones() int {
	n := 0
	for _, v := range b.Bits {
		for ; v != 0; v &= v - 1 {
			n++
		}
	}
	return n
}

// Threshold binarizes src: pixels with luma >= cut become set.
func Threshold(src *Framebuffer, cut uint8) *Bitmap {
	dst := NewBitmap(src.w, src.h)
	for y := 0; y < src.h; y++ {
		row := src.pix[y*src.w : (y+1)*src.w]
		for x, c := range row {
			if c.Gray() >= cut {
				dst.Set(x, y, true)
			}
		}
	}
	return dst
}

// FloydSteinberg binarizes src with Floyd–Steinberg error diffusion, the
// quality path of the phone output plug-in. Error weights are the classic
// 7/16, 3/16, 5/16, 1/16 distribution.
func FloydSteinberg(src *Framebuffer) *Bitmap {
	dst := NewBitmap(src.w, src.h)
	if src.w == 0 || src.h == 0 {
		return dst
	}
	cur := make([]int32, src.w+2)
	next := make([]int32, src.w+2)
	for y := 0; y < src.h; y++ {
		clear(next)
		ditherRow(src.pix[y*src.w:(y+1)*src.w], cur, next, dst.Bits[y*dst.Stride:(y+1)*dst.Stride])
		cur, next = next, cur
	}
	return dst
}

// ditherRow diffuses one row: cur holds the error carried into the row
// (and takes the error pushed right along it), next accumulates the error
// pushed into the row below, and bits receives the row's set pixels.
func ditherRow(row []Color, cur, next []int32, bits []byte) {
	for x, c := range row {
		v := int32(c.Gray()) + cur[x+1]
		var out int32
		if v >= 128 {
			out = 255
			bits[x>>3] |= 0x80 >> uint(x&7)
		}
		e := v - out
		cur[x+2] += e * 7 / 16
		next[x] += e * 3 / 16
		next[x+1] += e * 5 / 16
		next[x+2] += e * 1 / 16
	}
}

// Ditherer is FloydSteinberg that resumes part way down an image. Error
// diffusion only flows down and to the right, so the rows above the first
// changed row binarize as before: Dither copies them from its previous
// result and restarts the diffusion from the error it saved for that row.
// A Ditherer is not safe for concurrent use.
type Ditherer struct {
	prev  *Bitmap
	carry []int32 // error carried into each row, w+2 entries per row
	cur   []int32 // scratch: the carry of the row being diffused
}

// Dither returns FloydSteinberg(src). from is the first row of src that
// may differ from the image the previous call dithered; rows above it are
// copied. The first call, a call with new geometry or from <= 0 dithers
// every row. Every call returns a new Bitmap and never touches one it
// returned before.
func (d *Ditherer) Dither(src *Framebuffer, from int) *Bitmap {
	dst := NewBitmap(src.w, src.h)
	if src.w == 0 || src.h == 0 {
		return dst
	}
	n := src.w + 2
	if d.prev == nil || d.prev.W != src.w || d.prev.H != src.h {
		d.carry = make([]int32, (src.h+1)*n)
		d.cur = make([]int32, n)
		from = 0
	}
	from = min(max(from, 0), src.h)
	if from > 0 {
		copy(dst.Bits, d.prev.Bits[:from*dst.Stride])
	}
	for y := from; y < src.h; y++ {
		copy(d.cur, d.carry[y*n:(y+1)*n])
		next := d.carry[(y+1)*n : (y+2)*n]
		clear(next)
		ditherRow(src.pix[y*src.w:(y+1)*src.w], d.cur, next, dst.Bits[y*dst.Stride:(y+1)*dst.Stride])
	}
	d.prev = dst
	return dst
}

// bayer4 is the 4×4 ordered-dither threshold matrix scaled to 0..255.
var bayer4 = [4][4]int32{
	{15, 135, 45, 165},
	{195, 75, 225, 105},
	{60, 180, 30, 150},
	{240, 120, 210, 90},
}

// OrderedDither binarizes src with a 4×4 Bayer matrix — cheaper than
// Floyd–Steinberg, used when the phone asks for the fast path.
func OrderedDither(src *Framebuffer) *Bitmap {
	dst := NewBitmap(src.w, src.h)
	for y := 0; y < src.h; y++ {
		row := src.pix[y*src.w : (y+1)*src.w]
		for x, c := range row {
			if int32(c.Gray()) > bayer4[y&3][x&3] {
				dst.Set(x, y, true)
			}
		}
	}
	return dst
}

// BitmapToFramebuffer expands a bitmap back to a framebuffer (white on
// black), used by tests and by the phone simulator's debug rendering.
func BitmapToFramebuffer(b *Bitmap) *Framebuffer {
	f := NewFramebuffer(b.W, b.H)
	for y := 0; y < b.H; y++ {
		for x := 0; x < b.W; x++ {
			if b.Get(x, y) {
				f.Set(x, y, White)
			}
		}
	}
	return f
}

// QuantizeRGB332 reduces src to the 8-bit RGB 3-3-2 palette in place on a
// copy, returning the copy. Used by the 8-bit display path.
func QuantizeRGB332(src *Framebuffer) *Framebuffer {
	dst := NewFramebuffer(src.w, src.h)
	for i, c := range src.pix {
		r := c.R() &^ 0x1F
		g := c.G() &^ 0x1F
		b := c.B() &^ 0x3F
		dst.pix[i] = RGB(r|r>>3, g|g>>3, b|b>>2)
	}
	return dst
}

// GrayLevels quantizes src to n evenly spaced gray levels (n >= 2). PDA
// devices with 4- or 16-level grayscale LCDs use this.
func GrayLevels(src *Framebuffer, n int) *Framebuffer {
	if n < 2 {
		n = 2
	}
	dst := NewFramebuffer(src.w, src.h)
	step := 255 / (n - 1)
	for i, c := range src.pix {
		y := int(c.Gray())
		q := (y + step/2) / step * step
		if q > 255 {
			q = 255
		}
		dst.pix[i] = RGB(uint8(q), uint8(q), uint8(q))
	}
	return dst
}
