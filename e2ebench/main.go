// Command e2ebench is the repository's end-to-end benchmark. One command
// runs a named workload with a given seed, checks its outputs, and prints
// its metrics by name and unit; the last line of standard output is the
// result as one JSON object.
//
//	go run . --workload train-cnn --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced episodes of the same inputs: the traced
// ones record spans at every layer boundary the benchmark reaches from
// outside the program (its own calls into fl.Engine, flrpc, nn, opt,
// tensor and codec, and decorators it hands the engine through the
// strategy factory), and the run prints the per-layer metrics. Every run
// also writes a full record, with provenance and the layer-share table, to
// --out.
//
//	go run . compare -bench ../BENCHMARK.json -claim rounds_per_s@train-cnn <parent-dir> <change-dir>
//
// compares two sets of records; see compare.go.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runTimeout bounds a whole run, so a hang (a barrier that never closes)
// becomes an error rather than a stuck process.
const runTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring time; whole episodes run while the next one still fits in it")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_out", "directory for the full record and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	rec, err := measure(ctx, w, o)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := rec.write(o.out); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	rec.summary(stdout)
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// episodes, when positive, fixes the episode count instead of the
	// measuring time (tests).
	episodes int
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full result of one run, written to --out.
type record struct {
	Result     result             `json:"result"`
	Workload   workload           `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Provenance provenance         `json:"provenance"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Shares     []shareRow         `json:"layer_shares,omitempty"`
	Samples    samples            `json:"samples"`
	Failures   []string           `json:"failures,omitempty"`

	spans []span
}

type samples struct {
	Episodes       int `json:"episodes"`
	TracedEpisodes int `json:"traced_episodes"`
	Rounds         int `json:"rounds"`
	// Latency is the sample count behind round_p50_ms and round_p99_ms.
	Latency int `json:"round_latency"`
	// EpisodeRates are the untraced episodes' rounds per second, whose
	// median is rounds_per_s.
	EpisodeRates []float64 `json:"episode_rates"`
}

// provenance identifies what was measured, where.
type provenance struct {
	GitRev     string `json:"git_rev"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

func currentProvenance() provenance {
	p := provenance{
		GitRev:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			p.GitRev += "+dirty"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// runEpisode runs one episode of w; t is nil for an untraced episode.
func runEpisode(ctx context.Context, w workload, seed int64, t *tracer) (*episode, error) {
	if w.RPC {
		return runRPCEpisode(ctx, w, seed, t)
	}
	return runEngineEpisode(ctx, w, seed, t)
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median. Set-ups beyond the episodes' own are set-up only.
const setupReps = 9

// prefixRounds is the length of the replay every run ends with: a short
// episode of the same inputs, outside the measured time, whose global must
// equal the one every measured episode held after as many rounds. An
// untraced run may hold a single episode; the replay is what lets the
// check that a run repeats itself fail there too.
const prefixRounds = 5

// prefixRound is the round after which an episode of w records Prefix.
func prefixRound(w workload) int { return min(prefixRounds, w.Rounds) - 1 }

// measure runs whole episodes of w while the next one, judged by the
// length of the last, still ends within the measuring time (at least one;
// in trace mode untraced and traced episodes alternate, at least one of
// each), then the replay, checks every output, and assembles the record.
func measure(ctx context.Context, w workload, o options) (*record, error) {
	start := time.Now()
	var setups []float64
	for len(setups) < setupReps-1 {
		bare := w
		bare.Rounds = 0
		ep, err := runEpisode(ctx, bare, o.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		setups = append(setups, ep.Setup.Seconds())
	}
	minEpisodes := 1
	if o.trace {
		minEpisodes = 2
	}
	var eps, plain, traced []*episode
	var tracers []*tracer
	var last time.Duration // the previous episode's length
	for i := 0; ; i++ {
		if o.episodes > 0 && i == o.episodes {
			break
		}
		if o.episodes <= 0 && i >= minEpisodes && (time.Since(start)+last).Seconds() > o.seconds {
			break
		}
		epStart := time.Now()
		runtime.GC() // each episode starts from a collected heap
		var t *tracer
		if o.trace && i%2 == 1 {
			t = newTracer(i)
			tracers = append(tracers, t)
		}
		ep, err := runEpisode(ctx, w, o.seed, t)
		if err != nil {
			return nil, fmt.Errorf("%s episode %d: %w", w.Name, i, err)
		}
		last = time.Since(epStart)
		eps = append(eps, ep)
		setups = append(setups, ep.Setup.Seconds())
		if t != nil {
			traced = append(traced, ep)
		} else {
			plain = append(plain, ep)
		}
	}

	replay := w
	replay.Rounds = prefixRound(w) + 1
	rep, err := runEpisode(ctx, replay, o.seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s replay: %w", w.Name, err)
	}

	rec := &record{Workload: w, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Provenance: currentProvenance()}
	rec.check(w, o.seed, eps, rep)
	rec.EndToEnd = endToEnd(plain, setups)
	rec.EndToEnd["ok_frac"] = float64(rec.Result.Attempted-rec.Result.Failed) / float64(max(rec.Result.Attempted, 1))
	rec.Samples = samples{Episodes: len(eps), TracedEpisodes: len(traced)}
	for _, ep := range plain {
		rec.Samples.Rounds += ep.Rounds
		rec.Samples.Latency += len(ep.Latency)
		rec.Samples.EpisodeRates = append(rec.Samples.EpisodeRates, ep.rate())
	}
	for _, t := range tracers {
		rec.spans = append(rec.spans, t.snapshot()...)
	}
	metrics := rec.EndToEnd
	if o.trace {
		rec.Layers = medianLayers(traced)
		rec.Layers["trace.overhead_frac"] = medianRate(plain)/medianRate(traced) - 1
		rec.Shares = layerShares(rec.Layers, w.RPC)
		metrics = rec.Layers
	}
	defs := endToEndMetrics
	if o.trace {
		defs = perLayerMetrics
	}
	rec.Result.Metrics = map[string]value{}
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured (%v)", w.Name, d.Name, v)
		}
		rec.Result.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return rec, nil
}

// check applies the output checks and fills the result's round counts:
// every episode ran without error, every episode (traced or not) ended on
// a bit-identical global and passed through the replay's global, the final
// accuracy clears the workload's floor, and on rpc-fedsu the global equals
// an in-process replay through fl.Server. A failed check fails the rounds
// it covers.
func (rec *record) check(w workload, seed int64, eps []*episode, replay *episode) {
	res := &rec.Result
	var ref *episode // the first episode that ran without error
	for _, ep := range eps {
		if ep.Failed == 0 {
			ref = ep
			break
		}
	}
	for _, f := range replay.Failures {
		rec.Failures = append(rec.Failures, "replay: "+f)
	}
	for i, ep := range eps {
		res.Attempted += ep.Rounds + ep.Failed
		res.Failed += ep.Failed
		for _, f := range ep.Failures {
			rec.Failures = append(rec.Failures, fmt.Sprintf("episode %d: %s", i, f))
		}
		if ep.Failed > 0 {
			continue
		}
		fail := func(why string) {
			res.Failed += ep.Rounds
			rec.Failures = append(rec.Failures, fmt.Sprintf("episode %d: %s", i, why))
		}
		switch {
		case ep.Fingerprint != ref.Fingerprint:
			fail(fmt.Sprintf("final global %016x differs from the first episode's %016x", ep.Fingerprint, ref.Fingerprint))
		case replay.Failed > 0 || ep.Prefix != replay.Prefix:
			fail(fmt.Sprintf("global after round %d %016x differs from the replay's %016x", prefixRound(w), ep.Prefix, replay.Prefix))
		case !(ep.Accuracy >= w.AccuracyFloor):
			fail(fmt.Sprintf("final accuracy %.4f below the floor %.4f", ep.Accuracy, w.AccuracyFloor))
		}
	}
	if w.RPC && ref != nil {
		fp, err := replayRPC(w, seed)
		switch {
		case err != nil:
			res.Failed += ref.Rounds
			rec.Failures = append(rec.Failures, "in-process replay: "+err.Error())
		case fp != ref.Fingerprint:
			res.Failed += ref.Rounds
			rec.Failures = append(rec.Failures, fmt.Sprintf("TCP global %016x differs from the fl.Server replay's %016x", ref.Fingerprint, fp))
		}
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
}

// rate is an episode's rounds per second of measured time.
func (e *episode) rate() float64 { return float64(e.Rounds) / e.Elapsed.Seconds() }

func medianRate(eps []*episode) float64 {
	rs := make([]float64, len(eps))
	for i, ep := range eps {
		rs[i] = ep.rate()
	}
	return median(rs)
}

// endToEnd computes the end-to-end metrics over the untraced episodes and
// every set-up of the run, except ok_frac, which the output checks decide.
func endToEnd(eps []*episode, setups []float64) map[string]float64 {
	var lat []float64
	var rounds int
	var cpu time.Duration
	var alloc uint64
	var wire int64
	acc := math.NaN()
	for _, ep := range eps {
		lat = append(lat, ep.Latency...)
		rounds += ep.Rounds
		cpu += ep.CPU
		alloc += ep.Alloc
		wire += ep.WireBytes
		acc = ep.Accuracy
	}
	perRound := func(x float64) float64 { return x / float64(max(rounds, 1)) }
	return map[string]float64{
		"setup_s":             median(setups),
		"rounds_per_s":        medianRate(eps),
		"round_p50_ms":        quantile(lat, 0.50),
		"round_p99_ms":        quantile(lat, 0.99),
		"cpu_s_per_round":     perRound(cpu.Seconds()),
		"alloc_mib_per_round": perRound(float64(alloc) / (1 << 20)),
		"peak_rss_mib":        peakRSSMiB(),
		"final_accuracy":      acc,
		"wire_kib_per_round":  perRound(float64(wire) / 1024),
	}
}

// medianLayers is the per-metric median over the traced episodes.
func medianLayers(eps []*episode) map[string]float64 {
	vals := map[string][]float64{}
	for _, ep := range eps {
		for k, v := range ep.Layers {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// write stores the record and, for a traced run, its spans under dir.
func (rec *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	mode := 0
	if rec.Trace {
		mode = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d", rec.Workload.Name, rec.Seed, mode))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	if !rec.Trace {
		return nil
	}
	return writeSpans(base+".spans.jsonl", rec.spans)
}

// summary prints the human-readable lines that precede the result line.
func (rec *record) summary(w io.Writer) {
	p := rec.Provenance
	fmt.Fprintf(w, "# %s seed=%d rev=%s %s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		rec.Workload.Name, rec.Seed, p.GitRev, p.GoVersion, p.NumCPU, p.GOMAXPROCS, p.CPUModel)
	fmt.Fprintf(w, "# episodes=%d (traced %d) rounds=%d latency samples=%d\n",
		rec.Samples.Episodes, rec.Samples.TracedEpisodes, rec.Samples.Rounds, rec.Samples.Latency)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	if len(rec.Shares) > 0 {
		writeShareTable(w, rec.Workload.Name, rec.Layers, rec.Shares)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
