package rfb

import (
	"errors"
	"testing"

	"uniint/internal/gfx"

	"uniint/internal/netsim"
)

// edgeHandshake runs the server half of an edge handshake against a
// scripted client hello and returns both ends.
func edgeHandshake(t *testing.T, token string, ex TokenExchange) (*netsim.EventConn, *ServerConn) {
	t.Helper()
	client, server := netsim.EventPipe()
	if _, err := client.Write(ClientHello(token)); err != nil {
		t.Fatal(err)
	}
	sc, err := NewEdgeServerConn(server, 160, 120, "edge test", ex)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return client, sc
}

func TestEdgeHandshake(t *testing.T) {
	var presented string
	client, sc := edgeHandshake(t, "tok-123", func(p string) (string, bool, gfx.PixelFormat) {
		presented = p
		return "issued-456", true, gfx.PF8()
	})
	if presented != "tok-123" {
		t.Fatalf("presented token %q", presented)
	}
	if sc.Token() != "issued-456" || !sc.Resumed() {
		t.Fatalf("token %q resumed %v", sc.Token(), sc.Resumed())
	}
	// A resume encodes in the parked format from the first update on.
	if sc.PixelFormat() != gfx.PF8() {
		t.Fatalf("resumed session format %+v, want PF8", sc.PixelFormat())
	}
	// The client end holds the server's complete handshake output, and
	// ServerInit (after version and security) announces the parked format.
	hs := make([]byte, 64)
	n, _ := client.ReadAvailable(hs)
	if n < 36 {
		t.Fatalf("server handshake of %d bytes", n)
	}
	if pf := pixelFormatFrom(hs[20:36]); pf != gfx.PF8() {
		t.Fatalf("ServerInit announces %+v, want PF8", pf)
	}
}

func TestEdgeHandshakeFreshKeepsDefaultFormat(t *testing.T) {
	// Only a resume adopts the exchanged format; a fresh session, or a
	// resume offering an invalid format, starts in the server default.
	for _, resumed := range []bool{false, true} {
		pf := gfx.PF16()
		if resumed {
			pf = gfx.PixelFormat{BitsPerPixel: 24}
		}
		_, sc := edgeHandshake(t, "", func(string) (string, bool, gfx.PixelFormat) {
			return "t", resumed, pf
		})
		if sc.PixelFormat() != gfx.PF32() {
			t.Fatalf("resumed=%v: format %+v, want PF32", resumed, sc.PixelFormat())
		}
	}
}

// clientMsgs builds a byte script of client messages for Feed tests.
func clientMsgs() []byte {
	var b []byte
	// SetEncodings: raw only.
	b = append(b, msgSetEncodings, 0, 0, 1)
	b = append(b, 0, 0, 0, byte(EncRaw))
	// KeyEvent down 'a' (0x61).
	b = append(b, msgKeyEvent, 1, 0, 0, 0, 0, 0, 0x61)
	// PointerEvent buttons=1 at (10, 20).
	b = append(b, msgPointerEvent, 1, 0, 10, 0, 20)
	// FramebufferRequest incremental over (1,2)-(3,4).
	b = append(b, msgFramebufferRequest, 1, 0, 1, 0, 2, 0, 3, 0, 4)
	// ClientCutText "hi".
	b = append(b, msgClientCutText, 0, 0, 0, 0, 0, 0, 2, 'h', 'i')
	return b
}

func checkFeedResults(t *testing.T, h *testServerHandler) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.keys) != 1 || !h.keys[0].Down || h.keys[0].Key != 0x61 {
		t.Errorf("keys = %+v", h.keys)
	}
	if len(h.pointers) != 1 || h.pointers[0].X != 10 || h.pointers[0].Y != 20 || h.pointers[0].Buttons != 1 {
		t.Errorf("pointers = %+v", h.pointers)
	}
	if len(h.requests) != 1 || !h.requests[0].Incremental || h.requests[0].Region != gfx.R(1, 2, 3, 4) {
		t.Errorf("requests = %+v", h.requests)
	}
	if len(h.cuts) != 1 || h.cuts[0] != "hi" {
		t.Errorf("cuts = %+v", h.cuts)
	}
}

func TestFeedParsesWholeScript(t *testing.T) {
	_, sc := edgeHandshake(t, "", nil)
	h := newTestServerHandler()
	if err := sc.Feed(clientMsgs(), h); err != nil {
		t.Fatal(err)
	}
	checkFeedResults(t, h)
	if got := sc.PreferredEncoding(); got != EncRaw {
		t.Errorf("PreferredEncoding = %d", got)
	}
}

func TestFeedByteByByte(t *testing.T) {
	// Every message boundary lands mid-feed: the partial-message retention
	// path must reassemble the identical stream.
	_, sc := edgeHandshake(t, "", nil)
	h := newTestServerHandler()
	for _, c := range clientMsgs() {
		if err := sc.Feed([]byte{c}, h); err != nil {
			t.Fatal(err)
		}
	}
	checkFeedResults(t, h)
}

func TestFeedPipelinedPastHandshake(t *testing.T) {
	// Messages written before the server handshake even ran are retained
	// by the handshake reader drain and parsed by the first Feed.
	client, server := netsim.EventPipe()
	script := append(ClientHello(""), clientMsgs()...)
	if _, err := client.Write(script); err != nil {
		t.Fatal(err)
	}
	sc, err := NewEdgeServerConn(server, 160, 120, "edge test", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	h := newTestServerHandler()
	if err := sc.Feed(nil, h); err != nil {
		t.Fatal(err)
	}
	checkFeedResults(t, h)
}

func TestFeedTraceContextAndPixelFormat(t *testing.T) {
	_, sc := edgeHandshake(t, "", nil)
	h := newTestServerHandler()
	var b []byte
	b = append(b, msgTraceContext)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 42) // trace id
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 7)  // client send time
	// SetPixelFormat to 16bpp.
	b = append(b, msgSetPixelFormat, 0, 0, 0)
	pfb := make([]byte, 16)
	pf := gfx.PF16()
	pfb[0] = pf.BitsPerPixel
	pfb[1] = pf.Depth
	if pf.BigEndian {
		pfb[2] = 1
	}
	pfb[3] = 1 // true color
	be.PutUint16(pfb[4:], pf.RedMax)
	be.PutUint16(pfb[6:], pf.GreenMax)
	be.PutUint16(pfb[8:], pf.BlueMax)
	pfb[10], pfb[11], pfb[12] = pf.RedShift, pf.GreenShift, pf.BlueShift
	b = append(b, pfb...)
	if err := sc.Feed(b, h); err != nil {
		t.Fatal(err)
	}
	if id, at := sc.TakeTraceContext(); id != 42 || at != 7 {
		t.Errorf("trace context = %d, %d", id, at)
	}
	if got := sc.PixelFormat(); got.BitsPerPixel != 16 {
		t.Errorf("pixel format bpp = %d", got.BitsPerPixel)
	}
}

func TestFeedRejectsUnknownMessage(t *testing.T) {
	_, sc := edgeHandshake(t, "", nil)
	if err := sc.Feed([]byte{0xEE}, newTestServerHandler()); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v, want ErrBadMessage", err)
	}
}
