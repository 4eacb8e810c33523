package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func samplesOf(vals ...float64) []sample {
	out := make([]sample, len(vals))
	for i, v := range vals {
		out[i] = sample{Seed: int64(i + 1), Value: v}
	}
	return out
}

// The quartiles must match Python's statistics.quantiles(values, n=4),
// the spread definition the benchmark's steadiness is judged by.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		vals      []float64
		q1, m, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}, 11.75, 14.5, 17.25},
	} {
		s := spreadOf(samplesOf(tc.vals...))
		if s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 {
			t.Errorf("spreadOf(%v) = [%v %v %v], want [%v %v %v]", tc.vals, s.Q1, s.Median, s.Q3, tc.q1, tc.m, tc.q3)
		}
	}
}

func TestDecideClaim(t *testing.T) {
	parent := samplesOf(10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0)
	for _, tc := range []struct {
		name   string
		better string
		change []sample
		want   string
	}{
		// Every pair better and the medians 2 apart, far beyond the
		// parent's quartile distance (0.2).
		{"win", "higher", samplesOf(12.0, 12.1, 11.9, 12.2, 12.0, 11.8, 12.3, 12.0, 11.9, 12.1), verdictWin},
		{"loss", "higher", samplesOf(8.0, 8.1, 7.9, 8.2, 8.0, 7.8, 8.3, 8.0, 7.9, 8.1), verdictLoss},
		// Same values: ties count for neither side.
		{"tie", "higher", samplesOf(10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0), verdictTie},
		// Every pair wins, but by less than the parent's spread.
		{"small gain is a tie", "higher", samplesOf(10.05, 10.25, 9.95, 10.15, 10.05, 9.85, 10.35, 10.15, 9.95, 10.05), verdictTie},
		// Large median gain, but only 8 of 10 pairs won.
		{"too few wins", "higher", samplesOf(12.0, 12.1, 11.9, 12.2, 12.0, 11.8, 12.3, 12.0, 9.0, 9.0), verdictTie},
		// Direction: for a lower-is-better metric the same move is a loss.
		{"lower is better", "lower", samplesOf(12.0, 12.1, 11.9, 12.2, 12.0, 11.8, 12.3, 12.0, 11.9, 12.1), verdictLoss},
	} {
		if got := decideClaim(tc.better, parent, tc.change); got != tc.want {
			t.Errorf("%s: decideClaim = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestDecideBound(t *testing.T) {
	parent := samplesOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name   string
		change []sample
		want   string
	}{
		{"same", samplesOf(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), verdictOK},
		{"worse within bound", samplesOf(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), verdictOK},
		{"worse beyond bound", samplesOf(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), verdictRegression},
		// The change's own runs spread wider than the bound.
		{"unresolved", samplesOf(80, 120, 90, 115, 100, 85, 125, 95, 110, 105), verdictUnresolved},
		// Every change run beats every parent run: better, even when wide.
		{"better", samplesOf(80, 90, 85, 70, 60, 75, 65, 80, 90, 85), verdictBetter},
	} {
		// lower is better, bound 5%.
		if got := decideBound("lower", 0.05, parent, tc.change); got != tc.want {
			t.Errorf("%s: decideBound = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestPairsBySeed(t *testing.T) {
	parent := []sample{{3, 30}, {1, 10}, {2, 20}, {5, 50}}
	change := []sample{{2, 21}, {3, 31}, {1, 11}, {4, 41}}
	// Seeds 4 and 5 are on one side only: they pair with nothing.
	got := pairs(parent, change)
	want := [][2]float64{{10, 11}, {20, 21}, {30, 31}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
}

// compareMain reads run records from two directories and reports one row
// per workload × metric, or one failed row for a workload whose runs
// cannot be compared.
func TestCompareMainRows(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, bench, map[string]any{
		"workloads": []map[string]string{{"name": "a"}, {"name": "b"}},
		"end_to_end": []map[string]any{
			{"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
		},
	})
	// writeSet writes ten passing runs of workloads a and b (a twice as
	// fast on the change side); edit may alter or drop (nil) a record.
	writeSet := func(name string, edit func(side string, rec *record) *record) (string, string) {
		for side, scale := range map[string]float64{"parent": 1, "change": 2} {
			for seed := int64(1); seed <= 10; seed++ {
				for _, wl := range []string{"a", "b"} {
					v := 10 + float64(seed)/100
					if wl == "a" {
						v *= scale
					}
					rec := &record{Workload: workload{Name: wl}, Seed: seed, Result: result{
						Correct: true, Attempted: 8, Metrics: map[string]value{"rounds_per_s": {v, "1/s"}},
					}}
					if edit != nil {
						rec = edit(side, rec)
					}
					if rec != nil {
						writeJSON(t, filepath.Join(dir, name, side, fmt.Sprintf("%s-%d.json", wl, seed)), rec)
					}
				}
			}
		}
		return filepath.Join(dir, name, "parent"), filepath.Join(dir, name, "change")
	}
	compare := func(parent, change string) (int, []string) {
		var out, errb bytes.Buffer
		code := compareMain([]string{"-bench", bench, "-claim", "rounds_per_s@a", parent, change}, &out, &errb)
		if errb.Len() > 0 {
			t.Fatalf("compare stderr: %s", errb.String())
		}
		return code, strings.Split(strings.TrimSpace(out.String()), "\n")
	}

	code, lines := compare(writeSet("pass", nil))
	if code != 0 || len(lines) != 3 {
		t.Fatalf("want exit 0, a header and one row per workload, got %d:\n%s", code, strings.Join(lines, "\n"))
	}
	if !strings.HasSuffix(lines[1], "claim: win") || !strings.HasPrefix(lines[1], "a ") {
		t.Errorf("workload a row = %q, want a claimed win", lines[1])
	}
	if !strings.HasSuffix(lines[2], verdictOK) || !strings.HasPrefix(lines[2], "b ") {
		t.Errorf("workload b row = %q, want ok", lines[2])
	}

	// The claimed win on a does not count once a run fails its checks, or
	// fails more rounds than the parent, or a seed is missing on one side.
	for _, tc := range []struct {
		name string
		edit func(side string, rec *record) *record
		want string
	}{
		{"incorrect", func(side string, rec *record) *record {
			if side == "change" && rec.Seed == 4 {
				rec.Result.Correct, rec.Result.Failed = false, 8
			}
			return rec
		}, "failed: change runs failed their checks: seeds [4]"},
		{"missing", func(side string, rec *record) *record {
			if side == "parent" && rec.Seed == 7 {
				return nil
			}
			return rec
		}, "failed: seeds differ"},
		{"failed rounds", func(side string, rec *record) *record {
			// A record that counts failed rounds fails the comparison
			// even if it is marked correct.
			if side == "change" && rec.Seed == 2 {
				rec.Result.Failed = 1
			}
			return rec
		}, "failed: change runs failed their checks: seeds [2]"},
	} {
		code, lines := compare(writeSet(tc.name, tc.edit))
		if code != 1 || len(lines) != 3 {
			t.Errorf("%s: want exit 1 and three lines, got %d:\n%s", tc.name, code, strings.Join(lines, "\n"))
			continue
		}
		if !strings.HasPrefix(lines[1], "a ") || !strings.Contains(lines[1], tc.want) {
			t.Errorf("%s: workload a row = %q, want %q", tc.name, lines[1], tc.want)
		}
	}
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json and the metric tables here must name the same workloads
// and metrics, with the same units and directions.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(bench.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(bench.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bench.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) || math.IsNaN(m.Bound) {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bench.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(bench.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bench.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}
