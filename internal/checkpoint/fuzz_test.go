package checkpoint

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"spire/internal/model"
)

// seedBody builds a snapshot exercising every field type, matching the
// read sequence in readFields.
func seedBody() []byte {
	e := NewEncoder()
	e.Section("TEST")
	e.BaseEpoch(100)
	e.Uvarint(42)
	e.Varint(-7)
	e.Epoch(98)
	e.Epoch(model.EpochNone)
	e.Tag(model.NoTag, 5)
	e.Bool(true)
	e.Float64(3.5)
	e.String("hello")
	e.Uvarint(uint64(e.Len())) // a count field
	return frame(e)
}

func frame(e *Encoder) []byte {
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// badVarints are framed bodies whose first field after the section tag
// is a malformed varint: overlong (a zero final byte), overflowing 64
// bits in its tenth byte or running past it, and cut off by the body's
// end.
func badVarints() map[string][]byte {
	out := make(map[string][]byte)
	for name, raw := range map[string][]byte{
		"overlong":    {0x80, 0x00},
		"overlong-10": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00},
		"overflow":    {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
		"overflow-11": {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"truncated":   {0xFF, 0xFF},
	} {
		e := NewEncoder()
		e.Section("TEST")
		for _, b := range raw {
			e.Uint8(b)
		}
		out[name] = frame(e)
	}
	return out
}

// readFields walks a verified body in seedBody's order and returns the
// decode error.
func readFields(d *Decoder) error {
	d.Section("TEST")
	_ = d.BaseEpoch()
	_ = d.Uvarint()
	_ = d.Varint()
	_ = d.Epoch()
	_ = d.Epoch()
	_ = d.Tag(model.NoTag)
	_ = d.Bool()
	_ = d.Float64()
	_ = d.String()
	_ = d.Count(8)
	return d.Finish()
}

// FuzzDecoder: arbitrary bytes through header verification and a typed
// field walk must never panic, and every failure must wrap ErrCorrupt or
// ErrVersion.
func FuzzDecoder(f *testing.F) {
	valid := seedBody()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte("SPIRECKP"))
	f.Add([]byte("WRONGMAGIC-------------------"))
	for _, name := range []string{"overlong", "overlong-10", "overflow", "overflow-11", "truncated"} {
		f.Add(badVarints()[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("header rejection %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		if err := readFields(d); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode failure %v does not wrap ErrCorrupt", err)
		}
	})
}

// TestFieldsRoundTrip reads seedBody's fields back.
func TestFieldsRoundTrip(t *testing.T) {
	d, err := NewDecoder(bytes.NewReader(seedBody()))
	if err != nil {
		t.Fatal(err)
	}
	d.Section("TEST")
	base, u, v, ep, none, tag := d.BaseEpoch(), d.Uvarint(), d.Varint(), d.Epoch(), d.Epoch(), d.Tag(model.NoTag)
	if base != 100 || u != 42 || v != -7 || ep != 98 || none != model.EpochNone || tag != 5 {
		t.Fatalf("read %d %d %d %d %d %d", base, u, v, ep, none, tag)
	}
	if !d.Bool() || d.Float64() != 3.5 || d.String() != "hello" || d.Uvarint() == 0 {
		t.Fatal("fixed fields differ")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestBadVarintsCorrupt: every malformed varint is ErrCorrupt, and the
// error sticks for the fields after it.
func TestBadVarintsCorrupt(t *testing.T) {
	for name, snap := range badVarints() {
		d, err := NewDecoder(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("%s: header: %v", name, err)
		}
		d.Section("TEST")
		if v := d.Uvarint(); v != 0 || !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s: read %d, err %v, want ErrCorrupt", name, v, d.Err())
		}
		if d.Varint() != 0 || d.Uint8() != 0 || !errors.Is(d.Finish(), ErrCorrupt) {
			t.Errorf("%s: error not sticky", name)
		}
	}
}

// TestDecodeRejectsDescendingTags: a tag list must climb strictly; a
// zero step (repeat, or a zero first tag) and a wrapping step are
// corrupt.
func TestDecodeRejectsDescendingTags(t *testing.T) {
	for name, steps := range map[string][]uint64{
		"zero first": {0},
		"repeat":     {5, 0},
		"wrap":       {5, 1<<64 - 3},
	} {
		e := NewEncoder()
		for _, s := range steps {
			e.Uvarint(s)
		}
		d, err := NewDecoder(bytes.NewReader(frame(e)))
		if err != nil {
			t.Fatal(err)
		}
		prev := model.NoTag
		for range steps {
			prev = d.Tag(prev)
		}
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, d.Err())
		}
	}
}

// TestOldVersionRejected: a snapshot written by format v1 is refused as
// a version mismatch, not misread as a corrupt v2 body.
func TestOldVersionRejected(t *testing.T) {
	snap := seedBody()
	snap[9] = 1
	if _, err := NewDecoder(bytes.NewReader(snap)); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestLyingLengthBounded: a header that declares far more body than the
// stream holds fails as truncated after reading what is there.
func TestLyingLengthBounded(t *testing.T) {
	snap := seedBody()
	snap[12], snap[13] = 0x00, 0x00
	snap[14], snap[15] = 0x00, 0x00
	snap[16] = 0x40 // 1 GiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewDecoder(bytes.NewReader(snap)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	runtime.ReadMemStats(&after)
	// The declared length is 1 GiB; the first read allocates firstRead,
	// and the slack covers the race detector's own allocations.
	if n := after.TotalAlloc - before.TotalAlloc; n > 4*firstRead {
		t.Errorf("allocated %d bytes for a %d-byte stream", n, len(snap))
	}
}
