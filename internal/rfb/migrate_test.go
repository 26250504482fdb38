package rfb

import (
	"reflect"
	"testing"
	"time"

	"uniint/internal/gfx"
)

// fullRecord is a migration record with every section populated.
func fullRecord() *MigrationRecord {
	return &MigrationRecord{
		Token: "a0b1c2d3e4f5a6b7c8d9e0f1",
		W:     64, H: 48,
		PF:    gfx.PF16(),
		Dirty: []gfx.Rect{gfx.R(0, 0, 10, 10), gfx.R(30, 20, 4, 6)},
		Pending: UpdateRequest{
			Incremental: true,
			Region:      gfx.R(0, 0, 64, 48),
		},
		HasPending: true,
		Events: []MigEvent{
			{Key: KeyEvent{Down: true, Key: 0xff0d}},
			{Key: KeyEvent{Down: false, Key: 0xff0d}},
			{Pointer: true, Ptr: PointerEvent{Buttons: 1, X: 12, Y: 34}},
			{Pointer: true, Move: true, Ptr: PointerEvent{X: 13, Y: 35}},
		},
		LastPtrMask:  1,
		RemainingTTL: 31500 * time.Millisecond,
		DetachedFor:  1200 * time.Millisecond,
	}
}

// withLegacyShadow appends the shadow section an older node writes
// (MigFlagShadow|MigFlagDict, raw size, stream length, stream) to an
// encoded record.
func withLegacyShadow(b []byte, stream []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(MigMagic)] |= MigFlagShadow | MigFlagDict
	out = appendU32(out, 64*48*4)
	out = appendU32(out, uint32(len(stream)))
	return append(out, stream...)
}

func TestMigrationRecordRoundTrip(t *testing.T) {
	rec := fullRecord()
	b, err := rec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if b[len(MigMagic)]&MigFlagPF == 0 {
		t.Fatal("Encode must always set MigFlagPF")
	}
	if b[len(MigMagic)]&(MigFlagShadow|MigFlagDict) != 0 {
		t.Fatal("Encode wrote a legacy shadow flag")
	}
	got, err := DecodeMigration(b)
	if err != nil {
		t.Fatalf("DecodeMigration: %v", err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, rec)
	}
}

func TestMigrationRecordNoShadow(t *testing.T) {
	// The minimal record: no shadow, request, events or damage. Its
	// format defaults to PF32 and still travels in the PF block.
	rec := &MigrationRecord{Token: "t0", W: 8, H: 8}
	b, err := rec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if want := len(MigMagic) + 3 + 2 + 4 + 16 + 8 + 8 + 2 + 2; len(b) != want {
		t.Fatalf("minimal record is %d bytes, want %d", len(b), want)
	}
	got, err := DecodeMigration(b)
	if err != nil {
		t.Fatalf("DecodeMigration: %v", err)
	}
	if got.HasPending || len(got.Events) != 0 || len(got.Dirty) != 0 {
		t.Fatalf("empty record gained state: %+v", got)
	}
	// A record built without a format ships the server default.
	if got.PF != gfx.PF32() {
		t.Fatalf("unset format decoded as %+v, want PF32", got.PF)
	}
}

func TestMigrationRecordLegacyShadowDiscarded(t *testing.T) {
	rec := fullRecord()
	b, err := rec.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	legacy := withLegacyShadow(b, []byte{0x78, 0x9c, 1, 2, 3, 4, 5})
	got, err := DecodeMigration(legacy)
	if err != nil {
		t.Fatalf("legacy record rejected: %v", err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("legacy record decoded to %+v, want %+v", got, rec)
	}
	// The section is still bounds-checked.
	for name, bad := range map[string][]byte{
		"stream truncated":  legacy[:len(legacy)-1],
		"header truncated":  legacy[:len(b)+6],
		"trailing":          append(append([]byte(nil), legacy...), 0),
		"stream length lie": append(withLegacyShadow(b, nil)[:len(b)+4], 0xff, 0xff, 0xff, 0xff),
	} {
		if _, err := DecodeMigration(bad); err == nil {
			t.Errorf("%s: decode accepted corrupt legacy record", name)
		}
	}
	// A legacy record whose session never negotiated a format carries
	// no MigFlagPF: it resumes in the server default.
	noPF := append([]byte(nil), b...)
	noPF[len(MigMagic)] &^= MigFlagPF
	got, err = DecodeMigration(withLegacyShadow(noPF, nil))
	if err != nil {
		t.Fatalf("legacy record without PF rejected: %v", err)
	}
	if got.PF != gfx.PF32() {
		t.Fatalf("format without MigFlagPF = %+v, want PF32", got.PF)
	}
}

func TestMigrationRecordRejectsGarbage(t *testing.T) {
	good, err := fullRecord().Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// The PF block starts after magic, flags/mask/token length, token and
	// geometry.
	pfOff := len(MigMagic) + 3 + len(fullRecord().Token) + 4
	badPF := append([]byte(nil), good...)
	badPF[pfOff] = 24 // bits per pixel
	palette := append([]byte(nil), good...)
	palette[pfOff+3] = 0 // true-color flag
	cases := map[string][]byte{
		"empty":         nil,
		"bad magic":     append([]byte("UNIMIG/9"), good[8:]...),
		"truncated":     good[:len(good)-3],
		"trailing":      append(append([]byte(nil), good...), 0),
		"invalid pf":    badPF,
		"palette pf":    palette,
		"unknown event": append(append([]byte(nil), good[:len(good)-6]...), 9, 0, 0, 0, 0, 0),
	}
	for name, b := range cases {
		if _, err := DecodeMigration(b); err == nil {
			t.Errorf("%s: decode accepted corrupt record", name)
		}
	}
	if _, err := (&MigrationRecord{Token: ""}).Encode(); err == nil {
		t.Error("Encode accepted empty token")
	}
	if _, err := (&MigrationRecord{Token: "t", W: 1 << 17, H: 4}).Encode(); err == nil {
		t.Error("Encode accepted oversized geometry")
	}
}

// FuzzDecodeMigration feeds arbitrary bytes to the decoder — peer records
// are untrusted input. Property: no panic, and every accepted record
// re-encodes into a record that decodes back to itself.
func FuzzDecodeMigration(f *testing.F) {
	full, err := fullRecord().Encode()
	if err != nil {
		f.Fatal(err)
	}
	minimal, err := (&MigrationRecord{Token: "t0", W: 8, H: 8, PF: gfx.PF8()}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(minimal)
	f.Add(withLegacyShadow(full, []byte{0x78, 0x9c, 1, 2, 3}))
	f.Add(withLegacyShadow(minimal, nil))
	f.Add(full[:len(full)-3])
	f.Add([]byte(MigMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeMigration(b)
		if err != nil {
			return
		}
		if !rec.PF.Valid() {
			t.Fatalf("accepted record with invalid format %+v", rec.PF)
		}
		again, err := rec.Encode()
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		back, err := DecodeMigration(again)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, rec)
		}
	})
}
