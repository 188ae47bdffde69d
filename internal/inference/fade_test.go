package inference

import (
	"math"
	"testing"

	"spire/internal/model"
)

// TestFadeTableExact requires the tabled Eq. 3 fade to equal
// 1/math.Pow(age, θ) to the last bit, for ages inside the table and past
// its cap, whichever order the ages arrive in.
func TestFadeTableExact(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 1.25, 3} {
		cfg := DefaultConfig()
		cfg.Theta = theta
		inf, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check := func(age model.Epoch) {
			got, want := inf.fade(age), 1/math.Pow(float64(age), theta)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("θ=%v age=%d: fade = %v (%#x), want %v (%#x)",
					theta, age, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		check(fadeCap / 2) // grows the table past every age below
		for age := model.Epoch(fadeCap + 64); age >= 1; age-- {
			check(age)
		}
		if len(inf.fades) != fadeCap {
			t.Fatalf("θ=%v: fade table holds %d entries, want the cap %d", theta, len(inf.fades), fadeCap)
		}
	}
}
