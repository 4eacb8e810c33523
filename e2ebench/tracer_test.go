package main

import (
	"context"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/fl"
	"fedsu/internal/sparse"
)

// Self time is a span's duration minus the union of its children's
// intervals, clipped to the span: overlapping children are not counted
// twice, a child running past its parent's end counts only up to it, and
// a grandchild counts against its own parent, not its grandparent.
func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sync", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sync", Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: "sync", Start: 90, End: 120}, // runs past 1
		{ID: 5, Parent: 3, Name: "collective", Start: 25, End: 45},
		{ID: 6, Parent: 5, Name: "inner", Start: 30, End: 35},
		{ID: 7, Name: "eval", Start: 100, End: 110},
	}
	got := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (40 + 10), // [10,50] and [90,100]
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20 - 5,
		6: 5,
		7: 10,
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestCoveredDisjointAndContained(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		children []span
		want     int64
	}{
		{nil, 0},
		{[]span{{Start: 0, End: 10}, {Start: 20, End: 30}}, 20},
		{[]span{{Start: 10, End: 90}, {Start: 20, End: 30}}, 80},
		{[]span{{Start: -10, End: 5}, {Start: 95, End: 200}}, 10},
		{[]span{{Start: 200, End: 300}}, 0},
	} {
		if got := covered(parent, tc.children); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.children, got, tc.want)
		}
	}
}

// The decorators must change no result bit: a decorated FedSU manager and
// a bare one, fed the same trajectory through the same kind of
// collective, end on identical vectors.
func TestDecoratorsPreserveResults(t *testing.T) {
	const n, rounds = 512, 12
	traj := newTrajectory(n, 2, 0.5, 7)
	runFleet := func(pr *probes) []float64 {
		srv := fl.NewServer(2)
		globals := [][]float64{make([]float64, n), make([]float64, n)}
		syncers := make([]sparse.Syncer, 2)
		for c := range syncers {
			f := core.Factory(core.DefaultOptions())
			if pr != nil {
				f = pr.wrap(f)
			}
			syncers[c] = f(c, n, wireAggregator{inner: srv})
		}
		for r := 0; r < rounds; r++ {
			srv.BeginRound(r, []int{0, 1})
			outs := make([][]float64, 2)
			done := make(chan int, 2)
			for c := range syncers {
				l := make([]float64, n)
				traj.local(l, globals[c], c, r)
				go func(c int, l []float64) {
					out, _, err := sparse.SyncContext(context.Background(), syncers[c], r, l, true)
					if err != nil {
						t.Error(err)
					}
					outs[c] = append([]float64(nil), out...)
					done <- c
				}(c, l)
			}
			<-done
			<-done
			for c := range globals {
				copy(globals[c], outs[c])
			}
		}
		return globals[0]
	}
	plain := runFleet(nil)
	pr := newProbes(newTracer(1))
	traced := runFleet(pr)
	if fingerprint(plain) != fingerprint(traced) {
		t.Fatal("decorated run differs from the bare run")
	}
	if calls, contributed, _ := pr.counts(); calls == 0 || contributed != calls {
		t.Fatalf("decorators counted %d calls, %d contributed", calls, contributed)
	}
	if ups := pr.lastUploads(); len(ups) != 2 {
		t.Fatalf("lastUploads kept %d uploads, want 2", len(ups))
	}
}

// The probes replay one round's uploads: a client that abstained from the
// last round keeps an older upload of another length, which is skipped.
func TestLastUploadsTakeOneRound(t *testing.T) {
	pr := newProbes(nil)
	for c, up := range []struct {
		round int
		n     int
	}{{4, 3}, {3, 5}, {4, 3}} {
		cp := pr.client(c)
		cp.lastUp, cp.lastRound = make([]float64, up.n), up.round
	}
	pr.client(3) // never contributed
	ups := pr.lastUploads()
	if len(ups) != 2 || len(ups[0]) != 3 || len(ups[1]) != 3 {
		t.Fatalf("lastUploads = %d uploads %v, want the two of round 4", len(ups), ups)
	}
}
