package graph

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxHistorySize bounds the recent_colocations bit-vector length. The
// paper finds no benefit beyond S=32; we allow up to 64 so the whole
// vector fits one machine word.
const MaxHistorySize = 64

// History is the recent_colocations bit-vector kept on every edge
// (Section III-A): bit 0 is the most recent epoch in which the edge was
// examined, and a set bit records positive co-location evidence (both
// endpoints observed with the same color).
type History struct {
	bits uint64
	size int
}

// NewHistory returns an empty history of the given size (1..MaxHistorySize).
func NewHistory(size int) (History, error) {
	if size < 1 || size > MaxHistorySize {
		return History{}, fmt.Errorf("graph: history size %d out of range [1,%d]", size, MaxHistorySize)
	}
	return History{size: size}, nil
}

// Size returns the capacity S of the bit-vector.
func (h History) Size() int { return h.size }

// Shift expires the oldest bit and opens a fresh (unset) most-recent slot.
// This is the "right shift ... to expire old information" of Fig. 4; we
// shift left internally because bit 0 is the most recent.
func (h *History) Shift() {
	h.bits <<= 1
	if h.size < 64 {
		h.bits &= 1<<uint(h.size) - 1
	}
}

// SetRecent records this epoch's co-location evidence in bit 0.
func (h *History) SetRecent(colocated bool) {
	if colocated {
		h.bits |= 1
	} else {
		h.bits &^= 1
	}
}

// Bit returns the evidence bit i epochs back (0 = most recent).
func (h History) Bit(i int) bool {
	if i < 0 || i >= h.size {
		return false
	}
	return h.bits>>uint(i)&1 == 1
}

// Ones returns the number of set bits.
func (h History) Ones() int { return bits.OnesCount64(h.bits) }

// Weight computes the normalized Zipf-weighted co-location score of Eq. 1:
//
//	w = Σ_i bit[i]/(i+1)^α  /  Σ_i 1/(i+1)^α
//
// The paper writes 1/i^α from i = 0; we use the standard Zipf index (i+1)
// so the most recent bit has finite weight — identical at the paper's
// chosen α = 0. The numerator adds the weights of the set bits only, in
// ascending bit order — the additions a walk over all S bits would
// perform, in the same order, so the score is exact for every α. When
// every weight is 1 (α = 0) that sum of ones is the set-bit count, which
// is exact. t must come from ZipfWeights(size, α).
func (h History) Weight(t *ZipfTable) float64 {
	if len(t.w) != h.size {
		panic(fmt.Sprintf("graph: weight table size %d != history size %d", len(t.w), h.size))
	}
	if t.unit {
		return float64(h.Ones()) / t.den
	}
	var num float64
	for b := h.bits; b != 0; b &= b - 1 {
		num += t.w[bits.TrailingZeros64(b)]
	}
	return num / t.den
}

// ZipfTable is the Eq. 1 weight table 1/(i+1)^α for i in [0, size)
// together with its sum, the normalizing denominator (≥ 1: the first
// weight is 1 for every α), and whether every weight is exactly 1.
type ZipfTable struct {
	w    []float64
	den  float64
	unit bool
}

// ZipfWeights precomputes the weight table for histories of the given
// size, summing the denominator once in ascending order.
func ZipfWeights(size int, alpha float64) *ZipfTable {
	t := &ZipfTable{w: make([]float64, size), unit: true}
	for i := range t.w {
		t.w[i] = 1 / math.Pow(float64(i+1), alpha)
		t.den += t.w[i]
		t.unit = t.unit && t.w[i] == 1
	}
	return t
}
