package sim

import "math"

// RNG is a small, fast, deterministic random stream (xoshiro256**). The
// simulation must be reproducible run-to-run, so all stochastic model inputs
// (arrival processes, service noise, branch outcomes) draw from an RNG
// seeded explicitly by the experiment.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which also
// guards against the all-zero state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		// SplitMix64 step.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new independent stream derived from this one. Use it to
// give each model component its own stream so adding draws in one component
// does not perturb another.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Exp returns an exponentially distributed value with the given mean.
// Exponential inter-arrival times model the burstiness of real network
// traffic (paper §5.4).
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpTime returns an exponentially distributed duration with the given mean.
func (r *RNG) ExpTime(mean Time) Time {
	return Time(math.Round(r.Exp(float64(mean))))
}

// UniformTime returns a uniform duration in [lo, hi].
func (r *RNG) UniformTime(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Uint64n(uint64(hi-lo+1)))
}
