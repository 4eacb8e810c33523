// Package codec is the wire half of the determinism corpus. An encoding
// must be a pure function of (chain spec, seed, vector): the TCP-vs-in-
// process and worker-count bit-identity suites compare encoded bytes, so
// a quantizer's stochastic rounding has to come from a seeded hash, never
// from ambient state.
package codec

import "time"

// mix64 is the seeded rounding hash pattern quant.go uses.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	return x ^ x>>33
}

// roundingBySeed draws the rounding bit from the stage seed and the
// element's position: replayable on every run.
func roundingBySeed(seed uint64, i int) bool {
	return mix64(seed+uint64(i))&1 == 1
}

// roundingByClock seeds the rounding from the wall clock: two runs of the
// same chain then ship different bytes.
func roundingByClock(i int) bool {
	return mix64(uint64(time.Now().UnixNano())+uint64(i))&1 == 1 // want `call to time.Now in deterministic kernel package`
}
