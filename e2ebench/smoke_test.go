package main

import (
	"context"
	"testing"
)

// tiny shrinks a workload to a few rounds of a small model, keeping its
// shape: the same code path, collective, chain and checks.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Rounds, w.EvalEvery = 4, 2
	w.AccuracyFloor = 0
	switch {
	case w.RPC:
		w.Params = 4096
	default:
		w.Clients, w.LocalIters, w.Batch, w.Samples, w.ModelScale = 4, 1, 4, 128, 8
		if w.Population > 0 {
			w.Population, w.Fanout = 40, 2
		}
	}
	return w
}

// Each workload, shrunk, runs untraced and traced episodes, passes its
// output checks (traced globals bit-identical to untraced ones, and on
// rpc-fedsu identical across clients and equal to the fl.Server replay),
// and prints every metric of both modes.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := tiny(t, w.Name)
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				rec, err := measure(context.Background(), w, options{seed: 3, trace: trace, episodes: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted != 2*w.Rounds {
					t.Fatalf("trace=%v: result %+v, failures %v", trace, rec.Result, rec.Failures)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics
				}
				if len(rec.Result.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(rec.Result.Metrics), len(want))
				}
				for _, d := range want {
					if m, ok := rec.Result.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
					}
				}
				if trace && (rec.Samples.TracedEpisodes != 1 || len(rec.spans) == 0) {
					t.Errorf("traced run: %d traced episodes, %d spans", rec.Samples.TracedEpisodes, len(rec.spans))
				}
			}
		})
	}
}

// A failed output check fails the rounds it covers and the run.
func TestFailedCheckFailsRun(t *testing.T) {
	w := tiny(t, "rpc-fedsu")
	w.AccuracyFloor = 2 // unreachable
	rec, err := measure(context.Background(), w, options{seed: 1, episodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Result.Correct || rec.Result.Failed != w.Rounds || rec.EndToEnd["ok_frac"] != 0 {
		t.Fatalf("result %+v, ok_frac %v, want every round failed", rec.Result, rec.EndToEnd["ok_frac"])
	}
}

// A single untraced episode is still checked for repeatability: a global
// that differs from the replay's after prefixRound fails the episode.
func TestReplayMismatchFailsRun(t *testing.T) {
	w := tiny(t, "train-cnn")
	ep := &episode{Rounds: w.Rounds, Accuracy: 1, Fingerprint: 7, Prefix: 1}
	for _, tc := range []struct {
		replay *episode
		failed int
	}{
		{&episode{Rounds: prefixRound(w) + 1, Prefix: 1}, 0},
		{&episode{Rounds: prefixRound(w) + 1, Prefix: 2}, w.Rounds},
		{&episode{Failed: prefixRound(w) + 1, Failures: []string{"round 0: boom"}}, w.Rounds},
	} {
		var rec record
		rec.check(w, 1, []*episode{ep}, tc.replay)
		if rec.Result.Failed != tc.failed || rec.Result.Correct != (tc.failed == 0) {
			t.Errorf("replay %+v: result %+v, failures %v, want %d failed", tc.replay, rec.Result, rec.Failures, tc.failed)
		}
	}
}
