package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// episode is one fixed-length run of a workload: set-up, then its rounds.
// A benchmark run repeats episodes until its measuring time is spent.
type episode struct {
	Setup time.Duration
	// Rounds completed without error; Failed counts rounds that errored or
	// whose output failed a check.
	Rounds, Failed int
	Failures       []string
	// Latency holds every client's Syncer.Sync wall time per round, in
	// milliseconds: from submitting its local vector to holding the new
	// global.
	Latency []float64
	// Elapsed, CPU and Alloc cover the rounds and evaluations, not set-up.
	Elapsed     time.Duration
	CPU         time.Duration
	Alloc       uint64
	WireBytes   int64
	Accuracy    float64
	Fingerprint uint64
	// Prefix is the fingerprint of the global after round prefixRound.
	Prefix uint64
	// Layers holds the per-layer metrics of a traced episode.
	Layers map[string]float64

	cpu0   time.Duration
	alloc0 uint64
	wall0  time.Time
}

// begin marks the start of the measured rounds.
func (e *episode) begin() {
	e.cpu0, e.alloc0, e.wall0 = cpuTime(), totalAlloc(), time.Now()
}

// end closes the measured interval opened by begin.
func (e *episode) end() {
	e.Elapsed = time.Since(e.wall0)
	e.CPU = cpuTime() - e.cpu0
	e.Alloc = totalAlloc() - e.alloc0
}

func (e *episode) fail(rounds int, why string) {
	e.Failed += rounds
	e.Failures = append(e.Failures, why)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set size (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// fingerprint hashes the exact IEEE-754 bits of a vector: equal
// fingerprints mean bit-identical vectors (up to 64-bit hash collisions).
func fingerprint(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// roundPhases is one round's boundaries taken from its spans: the round's
// first start and last end, and the last client's Sync entry.
type roundPhases struct {
	start, end, lastSync int64
	seen                 bool
}

// phaseLayers derives the span-based per-layer metrics of one traced
// episode: the mean round wall (the round's first start to its last end,
// plus its evaluation — the base of the layer shares), the train and sync
// phases of each round, and the mean time and self time per call of the
// evaluation, sync and collective layers.
func phaseLayers(spans []span) map[string]float64 {
	rounds := map[int]*roundPhases{}
	self := selfTimes(spans)
	var evalMs, syncMs, syncSelfMs, collMs []float64
	var evalNs int64
	for _, s := range spans {
		switch s.Name {
		case spanRound:
			p := rounds[s.Round]
			if p == nil {
				p = &roundPhases{start: s.Start, end: s.End}
				rounds[s.Round] = p
			}
			p.start, p.end = min(p.start, s.Start), max(p.end, s.End)
		case spanEval:
			evalMs = append(evalMs, nsToMs(s.dur()))
			evalNs += s.dur()
		case spanSync:
			syncMs = append(syncMs, nsToMs(s.dur()))
			syncSelfMs = append(syncSelfMs, nsToMs(self[s.ID]))
		case spanCollective:
			collMs = append(collMs, nsToMs(s.dur()))
		}
	}
	for _, s := range spans {
		if p := rounds[s.Round]; s.Name == spanSync && p != nil {
			if !p.seen || s.Start > p.lastSync {
				p.lastSync, p.seen = s.Start, true
			}
		}
	}
	var train, syncPhase []float64
	wallNs := evalNs
	for _, p := range rounds {
		wallNs += p.end - p.start
		if p.seen {
			train = append(train, nsToMs(p.lastSync-p.start))
			syncPhase = append(syncPhase, nsToMs(p.end-p.lastSync))
		}
	}
	n := float64(len(rounds))
	return map[string]float64{
		"fl.round_wall_ms":        nsToMs(wallNs) / n,
		"fl.train_phase_ms":       mean(train),
		"fl.sync_phase_ms":        mean(syncPhase),
		"fl.eval_ms":              mean(evalMs),
		"fl.eval_calls":           float64(len(evalMs)) / n,
		"sparse.sync_ms":          mean(syncMs),
		"sparse.sync_calls":       float64(len(syncMs)) / n,
		"sparse.collective_ms":    mean(collMs),
		"sparse.collective_calls": float64(len(collMs)) / n,
		"core.sync_self_ms":       mean(syncSelfMs),
	}
}

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

// addDecoratorCounts adds the collective counters the decorators kept:
// the share of calls that carried a submission, and the codec messages
// (uploads plus replies) per round.
func addDecoratorCounts(lay map[string]float64, pr *probes, rounds int) {
	calls, contributed, replies := pr.counts()
	lay["sparse.contribute_ratio"] = float64(contributed) / float64(max(calls, 1))
	lay["codec.msgs"] = float64(contributed+replies) / float64(rounds)
}
