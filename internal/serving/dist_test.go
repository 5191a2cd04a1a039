package serving

import (
	"errors"
	"math"
	"testing"
)

// sampleStats draws n samples and returns the empirical mean and
// coefficient of variation.
func sampleStats(t *testing.T, d Dist, r *RNG, n int) (mean, cv float64) {
	t.Helper()
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		if x < 0 {
			t.Fatalf("%s produced a negative inter-arrival %v", d, x)
		}
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean
}

// within asserts |got-want| <= tol*want.
func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s: got %.5f, want %.5f (tolerance %.1f%%)", what, got, want, 100*tol)
	}
}

// TestGeneratorStatistics checks the inter-arrival distribution's
// empirical mean and CV against the configured parameters: Poisson
// (CV 1).
func TestGeneratorStatistics(t *testing.T) {
	const n = 200000
	cases := []struct {
		name string
		d    Dist
		cv   float64
	}{
		{"poisson", Exponential{Rate: 25}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.d.Validate(); err != nil {
				t.Fatalf("valid distribution rejected: %v", err)
			}
			r := DeriveRNG(42, tc.name)
			mean, cv := sampleStats(t, tc.d, r, n)
			within(t, tc.name+" mean", mean, tc.d.Mean(), 0.02)
			within(t, tc.name+" cv", cv, tc.cv, 0.05)
		})
	}
}

// TestDistValidation rejects every non-positive parameter with a typed
// *ParamError naming the distribution and the parameter.
func TestDistValidation(t *testing.T) {
	cases := []struct {
		d           Dist
		dist, param string
	}{
		{Exponential{Rate: 0}, "exponential", "rate"},
		{Exponential{Rate: -3}, "exponential", "rate"},
		{Exponential{Rate: math.NaN()}, "exponential", "rate"},
	}
	for _, tc := range cases {
		err := tc.d.Validate()
		if err == nil {
			t.Errorf("%v: expected a validation error", tc.d)
			continue
		}
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%v: error %v is not a *ParamError", tc.d, err)
			continue
		}
		if pe.Dist != tc.dist || pe.Param != tc.param {
			t.Errorf("%v: got ParamError{%s,%s}, want {%s,%s}", tc.d, pe.Dist, pe.Param, tc.dist, tc.param)
		}
	}
}

// TestRNGDeterminism: same seed ⇒ same stream; derived substreams are
// decorrelated by label.
func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	x, y := DeriveRNG(7, "class/0/ResNet"), DeriveRNG(7, "class/1/GAN")
	same := 0
	for i := 0; i < 1000; i++ {
		if x.Uint64() == y.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("derived substreams collide: %d identical draws", same)
	}
}
