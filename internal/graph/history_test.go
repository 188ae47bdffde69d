package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bit reports the evidence bit i epochs back (0 = most recent).
func bit(h History, i int) bool { return h>>uint(i)&1 == 1 }

// historyOf builds a history whose bit i is bits' bit i, the way the
// update procedure does: one SetRecent per epoch, oldest first.
func historyOf(bits uint32) History {
	var h History
	for i := HistorySize - 1; i >= 0; i-- {
		h.Shift()
		h.SetRecent(bits>>uint(i)&1 == 1)
	}
	return h
}

func TestHistoryShiftAndSet(t *testing.T) {
	var h History
	h.SetRecent(true) // [1]
	h.Shift()         // [_,1]
	h.SetRecent(true) // [1,1]
	h.Shift()         // [_,1,1]
	h.SetRecent(false)
	if !bit(h, 1) || !bit(h, 2) || bit(h, 0) {
		t.Errorf("bits wrong after shifts: %v %v %v", bit(h, 0), bit(h, 1), bit(h, 2))
	}
	if h.Ones() != 2 {
		t.Errorf("Ones = %d, want 2", h.Ones())
	}
	// The older bit survives until S shifts after it was set, then falls
	// off the end.
	for i := 0; i < HistorySize-3; i++ {
		h.Shift()
	}
	if !bit(h, HistorySize-1) || h.Ones() != 2 {
		t.Fatalf("bit set S-1 shifts ago must survive: %032b", uint32(h))
	}
	h.Shift()
	h.Shift()
	if h.Ones() != 0 {
		t.Errorf("history must expire after %d shifts, Ones = %d", HistorySize, h.Ones())
	}
}

// TestHistoryWeightEquallyWeighted: at the paper's α = 0 every Zipf
// weight 1/(i+1)^α is 1, so k set bits weigh k/S wherever they sit.
func TestHistoryWeightEquallyWeighted(t *testing.T) {
	var h History
	for k := 0; k <= HistorySize; k++ {
		if got, want := h.Weight(), float64(k)/HistorySize; got != want {
			t.Errorf("%d set bits: weight = %v, want %v", k, got, want)
		}
		h.Shift()
		h.SetRecent(true)
	}
}

// TestHistoryWeightRecency: α = 0 weighs all S bits equally, so the
// newest bit and the oldest weigh the same.
func TestHistoryWeightRecency(t *testing.T) {
	var recent, old History
	recent.SetRecent(true)
	old.SetRecent(true)
	for i := 0; i < HistorySize-1; i++ {
		old.Shift()
	}
	if recent.Weight() != old.Weight() {
		t.Errorf("recent bit weight %v != old bit weight %v", recent.Weight(), old.Weight())
	}
}

// Property: Weight is always in [0,1], and a full history weighs
// exactly 1.
func TestQuickHistoryWeightBounds(t *testing.T) {
	f := func(bits uint32) bool {
		v := historyOf(bits).Weight()
		return v >= 0 && v <= 1 && historyOf(^uint32(0)).Weight() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// weightAllBits is Eq. 1 as the paper writes it, at α = 0: it walks all
// S bits, adding each bit's Zipf weight to the numerator when the bit is
// set and to the denominator always.
func weightAllBits(h History) float64 {
	var num, den float64
	for i := 0; i < HistorySize; i++ {
		w := 1 / math.Pow(float64(i+1), 0)
		den += w
		if bit(h, i) {
			num += w
		}
	}
	return num / den
}

// checkWeightExact requires the popcount to reproduce Eq. 1's loop to
// the last bit of the float.
func checkWeightExact(t *testing.T, bits uint32) {
	t.Helper()
	h := historyOf(bits)
	if got, want := h.Weight(), weightAllBits(h); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("bits=%#x: Weight = %v (%#x), all-bits loop = %v (%#x)",
			bits, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestHistoryWeightMatchesAllBitsLoop(t *testing.T) {
	for _, bits := range []uint32{0, 1, 1 << 31, ^uint32(0), 0xAAAAAAAA} {
		checkWeightExact(t, bits)
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 2000; i++ {
		checkWeightExact(t, rng.Uint32())
	}
}

func FuzzHistoryWeightMatchesAllBitsLoop(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0xCAFEF00D))
	f.Add(^uint32(0))
	f.Fuzz(checkWeightExact)
}
