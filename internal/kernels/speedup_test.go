package kernels

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// speedupSink defeats dead-code elimination in the timing loops.
var speedupSink int

// measureInterleaved times a and b over iters calls per round, alternating
// short rounds of each, and returns each one's best round. The minimum is
// the least-noise estimate on a shared box, and interleaving exposes both
// sides to the same co-scheduled load: a burst from a neighbouring process
// (other test packages run in parallel) slows a few rounds of each, not
// every round of one.
func measureInterleaved(rounds, iters int, a, b func()) (bestA, bestB time.Duration) {
	bestA, bestB = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	round := func(fn func()) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		return time.Since(start)
	}
	for r := 0; r < rounds; r++ {
		bestA = min(bestA, round(a))
		bestB = min(bestB, round(b))
	}
	return bestA, bestB
}

// TestKernelSpeedup is the acceptance gate for the SIMD backends: on a host
// whose CPU supports one, the word-scan (popcount sweep) and the dense fold
// (BlockAddF64) must run at least 2x faster than the scalar reference on
// engine-sized inputs. Skipped when only the scalar backend is available
// (e.g. cross-compiled test binaries on a plain host) and under -short, where
// wall-clock timing is not meaningful.
func TestKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped under -short")
	}
	simd := simdBackends()
	if len(simd) == 0 {
		t.Skip("no SIMD backend supported on this CPU")
	}
	backend := simd[len(simd)-1]
	tab := backendTable(backend)

	// Word scan: a frontier bitvector of 2^15 words (2M vertices).
	words := make([]uint64, 1<<15)
	for i := range words {
		words[i] = uint64(i)*0x9E3779B97F4A7C15 | 1
	}
	// Dense fold: a full-width block row with every lane live and half
	// already reduced into — the steady state of a 64-source SpMM superstep.
	xrow := make([]float64, 64)
	yrow := make([]float64, 64)
	for i := range xrow {
		xrow[i] = float64(i) * 1.25
		yrow[i] = float64(i) * 0.5
	}

	cases := []struct {
		name           string
		scalar, vector func()
	}{
		{
			name:   "popcount_word_scan",
			scalar: func() { speedupSink += scalarPopcountSum(words) },
			vector: func() { speedupSink += tab.popcountSum(words) },
		},
		{
			name:   "dense_fold_blockadd",
			scalar: func() { scalarBlockAddF64(yrow, xrow, ^uint64(0), 0xAAAAAAAAAAAAAAAA) },
			vector: func() { tab.blockAddF64(yrow, xrow, ^uint64(0), 0xAAAAAAAAAAAAAAAA) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Rounds of a few milliseconds: short enough that many fall
			// between bursts of neighbouring load.
			iters := 200
			if c.name == "dense_fold_blockadd" {
				iters = 40000 // tiny kernel: more calls per round for stable timing
			}
			sc, vec := measureInterleaved(41, iters, c.scalar, c.vector)
			ratio := float64(sc) / float64(vec)
			t.Logf("%s: scalar %v, %s %v (%.2fx)", c.name, sc, backend, vec, ratio)
			if ratio < 2 {
				t.Errorf("%s: %s is %.2fx scalar, want >= 2x (scalar %v vs %v over %d iters)",
					c.name, backend, ratio, sc, vec, iters)
			}
		})
	}
	if speedupSink == math.MinInt {
		fmt.Println(speedupSink) // keep the sink alive
	}
}
