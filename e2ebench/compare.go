package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparator reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// sample is one run's value of one metric.
type sample struct {
	Seed  int64
	Value float64
}

// spread is a sample set's median and quartiles, by the same method as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
type spread struct {
	Q1, Median, Q3 float64
	N              int
}

func spreadOf(ss []sample) spread {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.Value
	}
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		nan := math.NaN()
		return spread{nan, nan, nan, 0}
	}
	if n == 1 {
		return spread{xs[0], xs[0], xs[0], 1}
	}
	q := func(i int) float64 {
		// statistics.quantiles(method="exclusive"), n=4, in its integer form.
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return spread{q(1), median(xs), q(3), n}
}

// iqrFrac is the distance between the quartiles as a share of the median.
func (s spread) iqrFrac() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// verdicts of the comparator.
const (
	verdictWin        = "win"
	verdictLoss       = "loss"
	verdictTie        = "tie"
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictFailed     = "failed"
)

// improvement is how much better change is than parent, as a signed
// amount in the metric's unit (positive = better).
func improvement(better string, parent, change float64) float64 {
	if better == "lower" {
		return parent - change
	}
	return change - parent
}

// pairs matches parent and change runs by seed. compareMain has checked
// that both sides ran the same seeds; a seed on one side only is left out.
func pairs(parent, change []sample) [][2]float64 {
	bySeed := make(map[int64]float64, len(change))
	for _, s := range change {
		bySeed[s.Seed] = s.Value
	}
	p := append([]sample(nil), parent...)
	sort.Slice(p, func(i, j int) bool { return p[i].Seed < p[j].Seed })
	var out [][2]float64
	for _, s := range p {
		if v, ok := bySeed[s.Seed]; ok {
			out = append(out, [2]float64{s.Value, v})
		}
	}
	return out
}

// decideClaim applies the gain rule to the claimed metric: the change wins
// at least nine tenths of the pairs (ties count for neither side) and the
// medians differ, in the change's favour, by more than the distance
// between the parent's quartiles. "loss" is the same rule the other way;
// anything else is a tie.
func decideClaim(better string, parent, change []sample) string {
	ps, cs := spreadOf(parent), spreadOf(change)
	var wins, losses int
	prs := pairs(parent, change)
	for _, pr := range prs {
		switch d := improvement(better, pr[0], pr[1]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	need := int(math.Ceil(0.9 * float64(len(prs))))
	gap := improvement(better, ps.Median, cs.Median)
	iqr := ps.Q3 - ps.Q1
	switch {
	case len(prs) > 0 && wins >= need && gap > iqr:
		return verdictWin
	case len(prs) > 0 && losses >= need && -gap > iqr:
		return verdictLoss
	default:
		return verdictTie
	}
}

// decideBound checks an unclaimed metric against its bound: the change's
// median may be worse than the parent's by at most bound × parent median.
// Where either side's spread exceeds the bound the result is unresolved,
// unless every change run is better than every parent run.
func decideBound(better string, bound float64, parent, change []sample) string {
	ps, cs := spreadOf(parent), spreadOf(change)
	allBetter := len(parent) > 0 && len(change) > 0
	for _, p := range parent {
		for _, c := range change {
			if improvement(better, p.Value, c.Value) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return verdictBetter
	case ps.iqrFrac() > bound || cs.iqrFrac() > bound:
		return verdictUnresolved
	case -improvement(better, ps.Median, cs.Median) > bound*math.Abs(ps.Median):
		return verdictRegression
	default:
		return verdictOK
	}
}

// runSet is one side's untraced runs of one workload.
type runSet struct {
	metrics map[string][]sample
	seeds   []int64 // sorted
	// incorrect lists the seeds whose run failed a check or a round.
	incorrect []int64
}

// loadRecords reads every untraced run record in dir, by workload.
func loadRecords(dir string) (map[string]*runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*runSet{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec struct {
			Workload struct{ Name string } `json:"workload"`
			Seed     int64                 `json:"seed"`
			Trace    bool                  `json:"trace"`
			Result   result                `json:"result"`
		}
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Trace || rec.Workload.Name == "" {
			continue
		}
		rs := out[rec.Workload.Name]
		if rs == nil {
			rs = &runSet{metrics: map[string][]sample{}}
			out[rec.Workload.Name] = rs
		}
		rs.seeds = append(rs.seeds, rec.Seed)
		if !rec.Result.Correct || rec.Result.Failed > 0 || rec.Result.Attempted < 1 {
			rs.incorrect = append(rs.incorrect, rec.Seed)
		}
		for name, v := range rec.Result.Metrics {
			rs.metrics[name] = append(rs.metrics[name], sample{rec.Seed, v.Value})
		}
	}
	for _, rs := range out {
		sort.Slice(rs.seeds, func(i, j int) bool { return rs.seeds[i] < rs.seeds[j] })
		sort.Slice(rs.incorrect, func(i, j int) bool { return rs.incorrect[i] < rs.incorrect[j] })
	}
	return out, nil
}

// runsFailed says why a workload's runs cannot be compared, or "" when
// they can: both sides must hold runs of exactly the same seeds, and every
// change run must pass its checks with no failed round (so it cannot fail
// more rounds than the parent).
func runsFailed(parent, change *runSet) string {
	var ps, cs []int64
	if parent != nil {
		ps = parent.seeds
	}
	if change != nil {
		cs = change.seeds
	}
	if fmt.Sprint(ps) != fmt.Sprint(cs) {
		return fmt.Sprintf("seeds differ: parent %v, change %v", ps, cs)
	}
	if len(change.incorrect) > 0 {
		return fmt.Sprintf("change runs failed their checks: seeds %v", change.incorrect)
	}
	return ""
}

// compareMain compares two directories of run records (the parent's and
// the change's, made with the same benchmark code and settings): the
// claimed metric on the claimed workload by the gain rule, every other
// end-to-end metric × workload against its bound in BENCHMARK.json. Each
// workload × metric is one row. A workload whose runs cannot be compared
// (runsFailed) gets one "failed" row instead. It exits 1 on a failed
// workload, on a regression, or when a claim is made and not won.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	claim := fs.String("claim", "", "claimed metric@workload, e.g. rounds_per_s@train-cnn")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: e2ebench compare [-bench BENCHMARK.json] [-claim metric@workload] <parent-dir> <change-dir>")
		return 2
	}
	var bench benchmarkFile
	b, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(b, &bench)
	}
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	parent, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	claimMetric, claimWorkload, _ := strings.Cut(*claim, "@")
	status := 0
	fmt.Fprintf(stdout, "%-16s %-20s %28s %28s %8s %6s  %s\n", "workload", "metric", "parent median [q1 q3] n", "change median [q1 q3] n", "delta", "bound", "verdict")
	for _, wl := range bench.Workloads {
		prs, crs := parent[wl.Name], change[wl.Name]
		if prs == nil && crs == nil {
			continue
		}
		if why := runsFailed(prs, crs); why != "" {
			fmt.Fprintf(stdout, "%-16s %-20s %s: %s\n", wl.Name, "runs", verdictFailed, why)
			status = 1
			continue
		}
		for _, m := range bench.EndToEnd {
			p, c := prs.metrics[m.Name], crs.metrics[m.Name]
			if len(p) != len(prs.seeds) || len(c) != len(crs.seeds) {
				fmt.Fprintf(stdout, "%-16s %-20s %s: not in every run\n", wl.Name, m.Name, verdictFailed)
				status = 1
				continue
			}
			ps, cs := spreadOf(p), spreadOf(c)
			var v string
			if m.Name == claimMetric && wl.Name == claimWorkload {
				v = decideClaim(m.Better, p, c)
				if v != verdictWin {
					status = 1
				}
				v = "claim: " + v
			} else {
				v = decideBound(m.Better, m.Bound, p, c)
				if v == verdictRegression {
					status = 1
				}
			}
			fmt.Fprintf(stdout, "%-16s %-20s %28s %28s %+7.1f%% %6.2f  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g] %d", ps.Median, ps.Q1, ps.Q3, ps.N),
				fmt.Sprintf("%.4g [%.4g %.4g] %d", cs.Median, cs.Q1, cs.Q3, cs.N),
				100*(cs.Median-ps.Median)/math.Abs(ps.Median), m.Bound, v)
		}
	}
	return status
}
