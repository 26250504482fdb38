package device

import (
	"uniint/internal/core"
	"uniint/internal/gfx"
)

// TV display geometry.
const (
	TVWidth  = 640
	TVHeight = 480
)

// TVDisplay is an output-only interaction device: the living-room
// television screen used as the GUI surface while input comes from a
// phone, remote or voice (characteristic C1: independent choice).
type TVDisplay struct {
	id string
	sc *screen
}

var _ core.OutputDevice = (*TVDisplay)(nil)

// NewTVDisplay creates a TV display simulator.
func NewTVDisplay(id string) *TVDisplay {
	return &TVDisplay{id: id, sc: newScreen()}
}

// ID implements core.OutputDevice.
func (t *TVDisplay) ID() string { return t.id }

// Class implements core.OutputDevice.
func (t *TVDisplay) Class() string { return "tv" }

// OutputPlugin implements core.OutputDevice.
func (t *TVDisplay) OutputPlugin() core.OutputPlugin { return tvOutputPlugin{} }

// Present implements core.OutputDevice.
func (t *TVDisplay) Present(f core.Frame) { t.sc.present(f) }

// Latest returns the most recent frame.
func (t *TVDisplay) Latest() core.Frame { return t.sc.Latest() }

// FrameCount returns the number of frames presented.
func (t *TVDisplay) FrameCount() int64 { return t.sc.FrameCount() }

// WaitFrames blocks until n frames have been presented.
func (t *TVDisplay) WaitFrames(n int64) core.Frame { return t.sc.WaitFrames(n) }

// tvOutputPlugin is the passthrough conversion: the TV panel matches the
// server desktop, so frames are cloned (the proxy's shadow buffer cannot
// be retained) at full 32-bit color. Every frame is a whole new copy
// anyway, so damage would save nothing and is ignored.
type tvOutputPlugin struct{}

var _ core.OutputPlugin = tvOutputPlugin{}

func (tvOutputPlugin) Name() string { return "tv-screen" }

func (tvOutputPlugin) PixelFormat() gfx.PixelFormat { return gfx.PF32() }

func (tvOutputPlugin) Convert(fb *gfx.Framebuffer, _ []gfx.Rect) core.Frame {
	if fb.W() == TVWidth && fb.H() == TVHeight {
		return core.Frame{W: TVWidth, H: TVHeight, RGB: fb.Clone()}
	}
	scaled := gfx.ScaleNearest(fb, TVWidth, TVHeight)
	return core.Frame{W: TVWidth, H: TVHeight, RGB: scaled}
}
