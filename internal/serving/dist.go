package serving

import (
	"fmt"
	"math"
)

// Dist is an inter-arrival time distribution. Sample returns one draw in
// seconds; Mean is the analytical expectation (the statistics test checks
// Sample against it); Validate rejects degenerate parameters with a typed
// *ParamError before any sampling happens.
//
// Exponential is the one production implementation. Dist stays an
// interface because perfbench's cluster workload type-asserts
// Class.Arrival back to Exponential to read its rate, which only compiles
// against an interface, and because tests drive the event loop with
// scripted gap sequences through it.
type Dist interface {
	Sample(r *RNG) float64
	Mean() float64
	Validate() error
	String() string
}

// ParamError reports a distribution parameter that must be positive but
// is not. It is a typed error so callers (flag parsing, the HTTP surface)
// can distinguish configuration mistakes from simulation failures.
type ParamError struct {
	Dist  string  // "exponential"
	Param string  // "rate"
	Value float64 // the offending value
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("serving: %s %s must be positive, got %v", e.Dist, e.Param, e.Value)
}

// Exponential inter-arrivals form a Poisson arrival process with the
// given rate (arrivals per second). Mean inter-arrival is 1/Rate; CV 1.
type Exponential struct {
	Rate float64
}

func (d Exponential) Validate() error {
	if !(d.Rate > 0) {
		return &ParamError{Dist: "exponential", Param: "rate", Value: d.Rate}
	}
	return nil
}

func (d Exponential) Mean() float64 { return 1 / d.Rate }

func (d Exponential) Sample(r *RNG) float64 {
	return -math.Log(r.open()) / d.Rate
}

func (d Exponential) String() string { return fmt.Sprintf("poisson(rate=%g)", d.Rate) }
