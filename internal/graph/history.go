package graph

import "math/bits"

// HistorySize is S, the length of each edge's recent_colocations
// bit-vector (Section III-A). The paper finds no benefit beyond S = 32,
// which is also the width of History.
const HistorySize = 32

// History is the recent_colocations bit-vector kept on every edge: bit 0
// is the most recent epoch in which the edge was examined, and a set bit
// records positive co-location evidence (both endpoints observed with the
// same color).
type History uint32

// Shift expires the oldest bit and opens a fresh (unset) most-recent slot.
// This is the "right shift ... to expire old information" of Fig. 4; we
// shift left internally because bit 0 is the most recent.
func (h *History) Shift() { *h <<= 1 }

// SetRecent records this epoch's co-location evidence in bit 0.
func (h *History) SetRecent(colocated bool) {
	if colocated {
		*h |= 1
	} else {
		*h &^= 1
	}
}

// Ones returns the number of set bits.
func (h History) Ones() int { return bits.OnesCount32(uint32(h)) }

// Weight is the co-location score of Eq. 1 at the paper's α = 0, where
// every one of the S bits weighs 1: the fraction of set bits.
func (h History) Weight() float64 { return float64(h.Ones()) / HistorySize }
