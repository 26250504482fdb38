package main

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// Every byte that crosses a wrapped connection is counted once, on the
// side that moved it, however the reads split the stream.
func TestMeteredConnCountsBytesExactly(t *testing.T) {
	for _, traced := range []bool{false, true} {
		a, b := net.Pipe()
		ma, mb := newMetered(a, traced), newMetered(b, traced)
		chunks := [][]byte{{3, 0, 0, 0, 0, 0, 1, 64, 0, 240}, bytes.Repeat([]byte{7}, 1000), {4, 1, 0, 0, 0, 0, 255, 13}}
		want := 0
		for _, c := range chunks {
			want += len(c)
		}
		done := make(chan []byte)
		go func() {
			got, _ := io.ReadAll(readInSmallPieces{mb})
			done <- got
		}()
		for _, c := range chunks {
			if _, err := ma.Write(c); err != nil {
				t.Fatal(err)
			}
		}
		ma.Close()
		got := <-done
		mb.Close()
		if len(got) != want {
			t.Fatalf("traced=%v: read %d bytes, want %d", traced, len(got), want)
		}
		if ma.out.Load() != int64(want) || mb.in.Load() != int64(want) {
			t.Errorf("traced=%v: out=%d in=%d, want %d each", traced, ma.out.Load(), mb.in.Load(), want)
		}
		if ma.in.Load() != 0 || mb.out.Load() != 0 {
			t.Errorf("traced=%v: reverse direction counted in=%d out=%d, want 0", traced, ma.in.Load(), mb.out.Load())
		}
		if traced && (ma.st.keyWrAt.Load() == 0 || ma.st.writes.Load() != 3) {
			t.Errorf("traced writer stamps: keyWrAt=%d writes=%d", ma.st.keyWrAt.Load(), ma.st.writes.Load())
		}
	}
}

// readInSmallPieces forces reads of at most 7 bytes.
type readInSmallPieces struct{ r io.Reader }

func (s readInSmallPieces) Read(p []byte) (int, error) {
	if len(p) > 7 {
		p = p[:7]
	}
	return s.r.Read(p)
}

func TestCarriesKeyEvent(t *testing.T) {
	req := []byte{3, 0, 0, 0, 0, 0, 1, 64, 0, 240}
	key := []byte{4, 1, 0, 0, 0, 0, 255, 13}
	enc := []byte{2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 5}
	for _, c := range []struct {
		name string
		b    []byte
		want bool
	}{
		{"key", key, true},
		{"request then key", append(append([]byte{}, req...), key...), true},
		{"encodings then key", append(append([]byte{}, enc...), key...), true},
		{"request only", req, false},
		{"truncated request", req[:5], false},
		{"unknown type", []byte{9, 4}, false},
		{"empty", nil, false},
	} {
		if got := carriesKeyEvent(c.b); got != c.want {
			t.Errorf("%s: carriesKeyEvent = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRearmedAfterRequestFollowsRead(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	m := newMetered(a, false)
	go func() {
		_, _ = b.Write([]byte{0})
		_, _ = io.ReadFull(b, make([]byte, 10))
	}()
	if _, err := m.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if m.rearmed() {
		t.Fatal("rearmed before any request was written")
	}
	if _, err := m.Write([]byte{3, 0, 0, 0, 0, 0, 1, 64, 0, 240}); err != nil {
		t.Fatal(err)
	}
	if !m.rearmed() {
		t.Fatal("not rearmed after an update request followed the read")
	}
}
