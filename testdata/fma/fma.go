// Package fma is the positive control of TestNoFusedMultiplyAdd: its
// unrounded x*y + z is what the scan must flag on every architecture
// that fuses.
package fma

// MulAdd leaves the product unrounded, so the compiler may fuse it.
func MulAdd(x, y, z float64) float64 { return x*y + z }
