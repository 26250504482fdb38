package device

import (
	"uniint/internal/core"
	"uniint/internal/gfx"
)

// PDA display geometry (a Compaq iPAQ-class handheld of the paper's era).
const (
	PDAWidth  = 320
	PDAHeight = 240
)

// PDA is a stylus-operated handheld that serves as input and output
// interaction device simultaneously — the paper's first example of a user
// selecting "their PDAs for their input/output interaction".
type PDA struct {
	id string
	em *emitter
	sc *screen
}

var (
	_ core.InputDevice  = (*PDA)(nil)
	_ core.OutputDevice = (*PDA)(nil)
)

// NewPDA creates a PDA simulator.
func NewPDA(id string) *PDA {
	return &PDA{id: id, em: newEmitter(128), sc: newScreen()}
}

// ID implements core.InputDevice/core.OutputDevice.
func (p *PDA) ID() string { return p.id }

// Class implements core.InputDevice/core.OutputDevice.
func (p *PDA) Class() string { return "pda" }

// InputPlugin implements core.InputDevice.
func (p *PDA) InputPlugin() core.InputPlugin {
	return &pdaInputPlugin{devW: PDAWidth, devH: PDAHeight}
}

// OutputPlugin implements core.OutputDevice.
func (p *PDA) OutputPlugin() core.OutputPlugin { return &pdaOutputPlugin{} }

// Events implements core.InputDevice.
func (p *PDA) Events() <-chan core.RawEvent { return p.em.events() }

// Present implements core.OutputDevice.
func (p *PDA) Present(f core.Frame) { p.sc.present(f) }

// Latest returns the most recent frame on the PDA's screen.
func (p *PDA) Latest() core.Frame { return p.sc.Latest() }

// FrameCount returns the number of frames presented so far.
func (p *PDA) FrameCount() int64 { return p.sc.FrameCount() }

// WaitFrames blocks until n frames have been presented.
func (p *PDA) WaitFrames(n int64) core.Frame { return p.sc.WaitFrames(n) }

// Dropped reports input events lost to backpressure.
func (p *PDA) Dropped() int64 { return p.em.Dropped() }

// Close shuts the device down; its event stream ends.
func (p *PDA) Close() { p.em.close() }

// TouchDown simulates the stylus making contact at device coordinates.
func (p *PDA) TouchDown(x, y int) {
	p.em.emit(core.RawEvent{Kind: core.EvStylus, X: x, Y: y, Down: true})
}

// TouchMove simulates dragging the stylus.
func (p *PDA) TouchMove(x, y int) {
	p.em.emit(core.RawEvent{Kind: core.EvStylus, X: x, Y: y, Down: true})
}

// TouchUp simulates lifting the stylus.
func (p *PDA) TouchUp(x, y int) {
	p.em.emit(core.RawEvent{Kind: core.EvStylus, X: x, Y: y, Down: false})
}

// Tap simulates a complete stylus tap.
func (p *PDA) Tap(x, y int) {
	p.TouchDown(x, y)
	p.TouchUp(x, y)
}

// pdaInputPlugin maps stylus contact in PDA screen coordinates onto
// pointer events in server desktop coordinates, inverting the output
// plug-in's scaling.
type pdaInputPlugin struct {
	devW, devH int
	srvW, srvH int
}

var _ core.InputPlugin = (*pdaInputPlugin)(nil)

func (pl *pdaInputPlugin) Name() string { return "pda-stylus" }

func (pl *pdaInputPlugin) Bind(w, h int) { pl.srvW, pl.srvH = w, h }

func (pl *pdaInputPlugin) Translate(ev core.RawEvent) []core.UniEvent {
	if ev.Kind != core.EvStylus || pl.srvW == 0 || pl.srvH == 0 {
		return nil
	}
	x := ev.X * pl.srvW / pl.devW
	y := ev.Y * pl.srvH / pl.devH
	var buttons uint8
	if ev.Down {
		buttons = 1
	}
	return []core.UniEvent{core.PointerTo(x, y, buttons)}
}

// pdaOutputPlugin downscales the desktop to the PDA panel with box
// filtering (keeping text legible) and asks for 16-bit wire pixels. It
// keeps the scaled image and re-averages only the damaged boxes; each
// frame is a copy, since the device keeps the frames it was handed.
type pdaOutputPlugin struct{ scaled *gfx.Framebuffer }

var _ core.OutputPlugin = (*pdaOutputPlugin)(nil)

func (*pdaOutputPlugin) Name() string { return "pda-lcd" }

func (*pdaOutputPlugin) PixelFormat() gfx.PixelFormat { return gfx.PF16() }

func (pl *pdaOutputPlugin) Convert(fb *gfx.Framebuffer, damage []gfx.Rect) core.Frame {
	if pl.scaled == nil {
		pl.scaled = gfx.NewFramebuffer(PDAWidth, PDAHeight)
		damage = nil
	}
	gfx.RescaleBox(pl.scaled, fb, damage)
	return core.Frame{W: PDAWidth, H: PDAHeight, RGB: pl.scaled.Clone()}
}
