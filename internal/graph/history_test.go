package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewHistoryBounds(t *testing.T) {
	for _, bad := range []int{0, -1, 65} {
		if _, err := NewHistory(bad); err == nil {
			t.Errorf("NewHistory(%d) should fail", bad)
		}
	}
	for _, ok := range []int{1, 32, 64} {
		h, err := NewHistory(ok)
		if err != nil {
			t.Errorf("NewHistory(%d): %v", ok, err)
		}
		if h.Size() != ok {
			t.Errorf("Size = %d, want %d", h.Size(), ok)
		}
	}
}

func TestHistoryShiftAndSet(t *testing.T) {
	h, _ := NewHistory(4)
	h.SetRecent(true) // [1]
	h.Shift()         // [_,1]
	h.SetRecent(true) // [1,1]
	h.Shift()         // [_,1,1]
	h.SetRecent(false)
	if !h.Bit(1) || !h.Bit(2) || h.Bit(0) {
		t.Errorf("bits wrong after shifts: %v %v %v", h.Bit(0), h.Bit(1), h.Bit(2))
	}
	if h.Ones() != 2 {
		t.Errorf("Ones = %d, want 2", h.Ones())
	}
	// Bits fall off the end after size shifts.
	for i := 0; i < 4; i++ {
		h.Shift()
	}
	if h.Ones() != 0 {
		t.Errorf("history must expire after %d shifts, Ones = %d", 4, h.Ones())
	}
}

func TestHistoryBitOutOfRange(t *testing.T) {
	h, _ := NewHistory(4)
	h.SetRecent(true)
	if h.Bit(-1) || h.Bit(4) || h.Bit(100) {
		t.Error("out-of-range bits must read false")
	}
}

func TestHistorySize64NoOverflow(t *testing.T) {
	h, _ := NewHistory(64)
	h.SetRecent(true)
	for i := 0; i < 63; i++ {
		h.Shift()
	}
	if !h.Bit(63) {
		t.Error("bit must survive 63 shifts in a size-64 history")
	}
	h.Shift()
	if h.Ones() != 0 {
		t.Error("bit must expire after 64 shifts")
	}
}

func TestZipfWeights(t *testing.T) {
	t0 := ZipfWeights(4, 0)
	for i, v := range t0.w {
		if v != 1 {
			t.Errorf("α=0 weight[%d] = %v, want 1", i, v)
		}
	}
	if t0.den != 4 {
		t.Errorf("α=0 denominator = %v, want 4", t0.den)
	}
	t1 := ZipfWeights(3, 1)
	want := []float64{1, 0.5, 1.0 / 3}
	for i := range want {
		if math.Abs(t1.w[i]-want[i]) > 1e-12 {
			t.Errorf("α=1 weight[%d] = %v, want %v", i, t1.w[i], want[i])
		}
	}
	if math.Abs(t1.den-11.0/6) > 1e-12 {
		t.Errorf("α=1 denominator = %v, want 11/6", t1.den)
	}
}

func TestHistoryWeightEquallyWeighted(t *testing.T) {
	h, _ := NewHistory(8)
	w := ZipfWeights(8, 0)
	if got := h.Weight(w); got != 0 {
		t.Errorf("empty history weight = %v, want 0", got)
	}
	h.SetRecent(true)
	h.Shift()
	h.SetRecent(true) // two of eight bits set
	if got, want := h.Weight(w), 0.25; math.Abs(got-want) > 1e-12 {
		t.Errorf("weight = %v, want %v", got, want)
	}
}

func TestHistoryWeightRecency(t *testing.T) {
	// With α>0 a recent bit must weigh more than an old one.
	w := ZipfWeights(8, 1.5)
	recent, _ := NewHistory(8)
	recent.SetRecent(true)
	old, _ := NewHistory(8)
	old.SetRecent(true)
	for i := 0; i < 7; i++ {
		old.Shift()
	}
	if recent.Weight(w) <= old.Weight(w) {
		t.Errorf("recent bit weight %v must exceed old bit weight %v",
			recent.Weight(w), old.Weight(w))
	}
}

func TestHistoryWeightPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Weight with wrong table size must panic")
		}
	}()
	h, _ := NewHistory(8)
	h.Weight(ZipfWeights(4, 0))
}

// Property: Weight is always in [0,1], monotone in set bits, and a full
// history weighs exactly 1.
func TestQuickHistoryWeightBounds(t *testing.T) {
	f := func(bits uint64, alphaQ uint8) bool {
		alpha := float64(alphaQ%40) / 10 // 0.0 .. 3.9
		w := ZipfWeights(32, alpha)
		h, _ := NewHistory(32)
		for i := 0; i < 32; i++ {
			h.SetRecent(bits>>uint(i)&1 == 1)
			if i < 31 {
				h.Shift()
			}
		}
		v := h.Weight(w)
		if v < 0 || v > 1+1e-12 {
			return false
		}
		full, _ := NewHistory(32)
		for i := 0; i < 32; i++ {
			full.SetRecent(true)
			if i < 31 {
				full.Shift()
			}
		}
		return math.Abs(full.Weight(w)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// weightAllBits is the Eq. 1 loop History.Weight replaced, kept verbatim
// as the oracle: it walks all S bits, summing the denominator as it goes.
func weightAllBits(h History, weights []float64) float64 {
	var num, den float64
	for i := 0; i < h.size; i++ {
		den += weights[i]
		if h.bits>>uint(i)&1 == 1 {
			num += weights[i]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// checkWeightExact requires the set-bits walk to reproduce the all-bits
// loop to the last bit of the float, for one (S, α, bits).
func checkWeightExact(t *testing.T, size int, alpha float64, bits uint64) {
	t.Helper()
	h, err := NewHistory(size)
	if err != nil {
		t.Fatal(err)
	}
	h.bits = bits
	if size < 64 {
		h.bits &= 1<<uint(size) - 1 // Shift never leaves a bit beyond S
	}
	tab := ZipfWeights(size, alpha)
	got, want := h.Weight(tab), weightAllBits(h, tab.w)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("S=%d α=%v bits=%#x: Weight = %v (%#x), all-bits loop = %v (%#x)",
			size, alpha, h.bits, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

var (
	exactSizes  = []int{1, 31, 32, 64}
	exactAlphas = []float64{0, 0.5, 1, 2}
)

func TestHistoryWeightMatchesAllBitsLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, size := range exactSizes {
		for _, alpha := range exactAlphas {
			// Unit weights (α = 0, or S = 1) take the set-bit-count path;
			// the others walk the bits.
			if unit := ZipfWeights(size, alpha).unit; unit != (alpha == 0 || size == 1) {
				t.Fatalf("S=%d α=%v: unit table = %v", size, alpha, unit)
			}
			for _, bits := range []uint64{0, 1, 1 << 63, ^uint64(0), 0xAAAAAAAAAAAAAAAA} {
				checkWeightExact(t, size, alpha, bits)
			}
			for i := 0; i < 500; i++ {
				checkWeightExact(t, size, alpha, rng.Uint64())
			}
		}
	}
}

func FuzzHistoryWeightMatchesAllBitsLoop(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(0))
	f.Add(uint8(2), uint8(3), uint64(0xDEADBEEFCAFEF00D))
	f.Add(uint8(3), uint8(1), ^uint64(0))
	f.Fuzz(func(t *testing.T, sizeIdx, alphaIdx uint8, bits uint64) {
		checkWeightExact(t, exactSizes[int(sizeIdx)%len(exactSizes)],
			exactAlphas[int(alphaIdx)%len(exactAlphas)], bits)
	})
}
