// Package serving is a deterministic discrete-event simulator of a
// multi-chip serving cluster. Request service times come from the
// cycle-accurate per-layer simulator through a LatencyTable (built by
// internal/experiments from Runner results), so a single traffic-level
// experiment answers "what does a per-layer Duplo speedup buy at cluster
// scale — p99 latency and goodput under real arrival processes?".
//
// Everything in this package is single-threaded and integer-clocked
// (nanoseconds): given a fixed Config.Seed, a simulation's metrics are
// byte-identical across runs, GOMAXPROCS values, and hosts. The
// parallelism lives one layer down, in the experiment engine that fills
// the latency table (itself byte-identical at any worker count).
package serving

// RNG is a deterministic splitmix64 pseudo-random generator. It is
// deliberately not seeded from math/rand: the serving simulator's
// determinism contract ("same seed ⇒ byte-identical metrics") must not
// depend on the standard library's generator staying stable across Go
// releases.
type RNG struct {
	state uint64
}

// splitmix64 advances s and returns the next output of Vigna's
// splitmix64, the canonical 64-bit mixer.
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{state: uint64(seed)}
}

// DeriveRNG returns a generator for an independent substream of seed,
// labelled by name (e.g. one stream per request class). The label is
// folded in with FNV-1a so distinct labels decorrelate even for adjacent
// seeds.
func DeriveRNG(seed int64, label string) *RNG {
	const (
		fnvOffset = 1469598103934665603
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	s := uint64(seed)
	// Mix the seed before folding the label hash in, so seed 0 and an
	// empty label do not collapse to the zero state.
	splitmix64(&s)
	return &RNG{state: s ^ h}
}

// Uint64 returns the next 64 uniform random bits.
func (r *RNG) Uint64() uint64 { return splitmix64(&r.state) }

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// open returns a uniform sample in (0, 1], safe as a log argument.
func (r *RNG) open() float64 { return 1 - r.Float64() }
