package core

import "uniint/internal/gfx"

// InputPlugin translates device-native events into universal input events.
// The paper: "The input plug-in module contains a code to translate events
// received from the input device to mouse or keyboard events."
//
// A plug-in may be stateful (a gesture recognizer accumulating strokes);
// the proxy guarantees Translate is called from a single goroutine per
// device.
type InputPlugin interface {
	// Name identifies the plug-in module.
	Name() string
	// Bind tells the plug-in the server desktop geometry so positional
	// device events can be mapped into desktop coordinates. Called once
	// when the device attaches, before any Translate.
	Bind(serverW, serverH int)
	// Translate converts one device event into zero or more universal
	// events, in order.
	Translate(ev RawEvent) []UniEvent
}

// Frame is a converted output image in the target device's native depth.
// Exactly one of RGB or Bits is non-nil.
type Frame struct {
	W, H int
	// RGB carries frames for color devices (possibly quantized).
	RGB *gfx.Framebuffer
	// Bits carries frames for 1-bit devices (cellular phone LCDs).
	Bits *gfx.Bitmap
	// Seq numbers frames per output device, starting at 1.
	Seq uint64
}

// OutputPlugin converts server framebuffers into device frames. The paper:
// "The output plug-in module contains a code to convert bitmap images
// received from a UniInt server to images that can be displayed on the
// screen of the target output device."
//
// Conversion is damage-driven. A plug-in may keep the previous conversion
// (a scaled image, the dither's error carry) and redo only what an update
// changed. Each OutputDevice.OutputPlugin call returns a fresh instance;
// the proxy binds one instance to one output binding and calls Convert
// only under its present lock, so an instance needs no locking of its own.
type OutputPlugin interface {
	// Name identifies the plug-in module.
	Name() string
	// Convert renders the server framebuffer into a device frame.
	//
	// damage lists the rectangles of fb written since this instance's
	// previous Convert; fb is unchanged outside them. nil damage means
	// "convert the whole framebuffer": the proxy passes it on a binding's
	// first present, on RefreshOutput, when the binding missed a present
	// and when the shadow was rewritten outside an update. A plug-in may
	// always treat damage as a hint and convert everything.
	//
	// Convert runs with the proxy's shadow framebuffer locked and must
	// retain neither fb nor damage. The returned Frame belongs to the
	// device: later Convert calls must never modify it, so a plug-in that
	// keeps state hands out copies.
	Convert(fb *gfx.Framebuffer, damage []gfx.Rect) Frame
	// PixelFormat returns the wire pixel format the proxy should request
	// from the server while this device is selected — a phone-class
	// device has no use for 32-bit color, and the cheaper format saves
	// protocol bandwidth (measured in experiment E8).
	PixelFormat() gfx.PixelFormat
}

// InputDevice is an input interaction device attached to the proxy. The
// device delivers its plug-in module at attach time and exposes a stream
// of native events.
type InputDevice interface {
	// ID uniquely names this device instance ("pda-1").
	ID() string
	// Class names the device category: "pda", "phone", "voice",
	// "gesture", "remote". Selection policies match on class.
	Class() string
	// InputPlugin returns the translation module the device transmits to
	// the proxy.
	InputPlugin() InputPlugin
	// Events returns the device's native event stream. The channel is
	// owned by the device and closed when the device shuts down.
	Events() <-chan RawEvent
}

// OutputDevice is an output interaction device attached to the proxy.
type OutputDevice interface {
	// ID uniquely names this device instance ("tv-display-1").
	ID() string
	// Class names the device category: "pda", "phone", "tv".
	Class() string
	// OutputPlugin returns the conversion module the device transmits to
	// the proxy: a fresh instance per call, since a plug-in may keep
	// per-binding conversion state.
	OutputPlugin() OutputPlugin
	// Present delivers a converted frame. Implementations must not block:
	// slow devices drop to latest-wins.
	Present(f Frame)
}
