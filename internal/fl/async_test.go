package fl

import (
	"testing"

	"fedsu/internal/par"
)

func newAsync(t *testing.T, cfg AsyncConfig) *AsyncAggregator {
	t.Helper()
	a, err := NewAsync(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAsyncAppliesEveryK: contributions buffer without producing a global
// until the K-th arrives, which applies and bumps the version.
func TestAsyncAppliesEveryK(t *testing.T) {
	const k = 3
	s := newAsync(t, AsyncConfig{K: k})
	vec := contributionFor(0, 16)
	for i := 0; i < k-1; i++ {
		g, err := s.AggregateModel(i, 0, vec)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			t.Fatalf("global non-nil after %d of %d contributions", i+1, k)
		}
		if v := s.AsyncVersion(); v != 0 {
			t.Fatalf("version %d before first apply", v)
		}
	}
	g, err := s.AggregateModel(k-1, 0, vec)
	if err != nil {
		t.Fatal(err)
	}
	if g == nil || s.AsyncVersion() != 1 {
		t.Fatalf("K-th contribution did not apply: global=%v version=%d", g != nil, s.AsyncVersion())
	}
	// All contributions identical and fresh: the applied mean is the vector
	// (up to the k·v·(1/k) rounding of the fold/scale steps).
	for i := range g {
		if rel := (g[i] - vec[i]) / vec[i]; rel > 1e-14 || rel < -1e-14 {
			t.Fatalf("mean of identical fresh contributions deviates at %d: %g vs %g", i, g[i], vec[i])
		}
	}
}

// TestAsyncKEqualsNMatchesBarrierMean: with K = N, all-fresh contributions
// arriving in ascending client-id order reproduce the synchronous barrier's
// serial mean bit-for-bit (same left-fold order, weight 1, same 1/n scale).
func TestAsyncKEqualsNMatchesBarrierMean(t *testing.T) {
	const clients, size = 8, 3000
	vecs := make(map[int][]float64, clients)
	for id := 0; id < clients; id++ {
		vecs[id] = contributionFor(id, size)
	}
	want := referenceMean(vecs)

	for _, workers := range []int{1, 2, 7} {
		prev := par.SetWorkers(workers)
		s := newAsync(t, AsyncConfig{K: clients, MaxStaleness: -1, StalenessWeight: 1})
		var got []float64
		for id := 0; id < clients; id++ {
			g, err := s.AggregateModel(id, 0, vecs[id])
			if err != nil {
				par.SetWorkers(prev)
				t.Fatal(err)
			}
			got = g
		}
		par.SetWorkers(prev)
		if !sameBits(got, want) {
			t.Fatalf("workers=%d: K=N async mean deviates from the barrier's serial reference", workers)
		}
	}
}

// TestAsyncStalenessWeighting: a contribution one version behind folds with
// weight StalenessWeight^1 and the apply divides by the weight sum.
func TestAsyncStalenessWeighting(t *testing.T) {
	const size = 64
	const w = 0.5
	s := newAsync(t, AsyncConfig{K: 2, MaxStaleness: -1, StalenessWeight: w})
	v0 := contributionFor(0, size)
	v1 := contributionFor(1, size)

	// Cycle 1: both fresh (first contact), apply at version 1. Client 1
	// triggers the apply so it leaves synchronized at 1; client 0 stays
	// based at 0.
	mustSubmit(t, s, 0, v0)
	mustSubmit(t, s, 1, v1)

	// Cycle 2: client 0 is one version behind (weight w), client 1 fresh.
	mustSubmit(t, s, 0, v0)
	got := mustSubmit(t, s, 1, v1)

	// Mirror the fold order exactly: sum = w·v0 then += 1·v1, scaled by
	// 1/(w+1). Matching the operation order makes bit-equality meaningful.
	want := make([]float64, size)
	for i := range want {
		want[i] = w * v0[i]
		want[i] += 1 * v1[i]
		want[i] *= 1 / (w + 1)
	}
	if s.AsyncVersion() != 2 {
		t.Fatalf("version = %d, want 2", s.AsyncVersion())
	}
	if !sameBits(got, want) {
		t.Fatal("staleness-weighted mean deviates from hand fold")
	}
}

// TestAsyncMaxStalenessDrops: a contribution beyond MaxStaleness is
// discarded (counted, not folded) and the client resynchronizes.
func TestAsyncMaxStalenessDrops(t *testing.T) {
	s := newAsync(t, AsyncConfig{K: 1, MaxStaleness: 0, StalenessWeight: 1})
	v := contributionFor(1, 8)

	g1 := mustSubmit(t, s, 0, contributionFor(0, 8)) // applies version 1, base[0]=1
	mustSubmit(t, s, 1, v)                           // first contact: fresh, applies version 2
	if s.AsyncVersion() != 2 {
		t.Fatalf("version = %d, want 2", s.AsyncVersion())
	}

	// Client 0 is now one version behind its base: stale=1 > MaxStaleness=0.
	got := mustSubmit(t, s, 0, contributionFor(0, 8))
	if s.StaleDropCount() != 1 {
		t.Fatalf("StaleDropCount = %d, want 1", s.StaleDropCount())
	}
	if s.AsyncVersion() != 2 {
		t.Fatalf("dropped contribution advanced the version to %d", s.AsyncVersion())
	}
	if !sameBits(got, v) {
		t.Fatal("dropped submission did not receive the current global")
	}
	_ = g1

	// Resynchronized by the drop: the next submission is fresh and folds.
	mustSubmit(t, s, 0, contributionFor(0, 8))
	if s.AsyncVersion() != 3 || s.StaleDropCount() != 1 {
		t.Fatalf("post-resync submission: version=%d drops=%d, want 3, 1", s.AsyncVersion(), s.StaleDropCount())
	}
}

// TestAsyncAbstainSynchronizes: a nil submission (event-triggered
// abstention) contributes nothing and does not advance the buffer, but
// resynchronizes the client so its next real contribution is fresh.
func TestAsyncAbstainSynchronizes(t *testing.T) {
	s := newAsync(t, AsyncConfig{K: 1, MaxStaleness: 0, StalenessWeight: 1})
	mustSubmit(t, s, 0, contributionFor(0, 8)) // version 1
	mustSubmit(t, s, 0, contributionFor(0, 8)) // version 2 (client 0 stays fresh)

	// Client 1 abstains: receives the current global, folds nothing.
	g := mustSubmit(t, s, 1, nil)
	if s.AsyncVersion() != 2 || g == nil {
		t.Fatalf("abstention changed version (%d) or returned nil global", s.AsyncVersion())
	}

	// Client 0 advances the version once more; client 1's abstention-time
	// base keeps it within MaxStaleness=0? No — one behind. The point: had
	// client 1 NOT abstained, its base would still be 0 and it would be two
	// behind. Verify the abstention moved the base: a submission now is
	// stale=1 (dropped), not stale=3.
	mustSubmit(t, s, 0, contributionFor(0, 8)) // version 3
	mustSubmit(t, s, 1, contributionFor(1, 8)) // stale 1 -> dropped, resyncs
	if s.StaleDropCount() != 1 {
		t.Fatalf("StaleDropCount = %d, want 1", s.StaleDropCount())
	}
	mustSubmit(t, s, 1, contributionFor(1, 8)) // fresh now
	if s.AsyncVersion() != 4 {
		t.Fatalf("version = %d, want 4", s.AsyncVersion())
	}
}

// TestAsyncNilBeforeFirstApply: before any apply, every caller (abstainer
// or contributor short of K) receives a nil global — the same "keep local"
// bootstrap contract as the barrier path's round-0 nil.
func TestAsyncNilBeforeFirstApply(t *testing.T) {
	s := newAsync(t, AsyncConfig{K: 3})
	if g := mustSubmit(t, s, 0, nil); g != nil {
		t.Fatal("abstention before first apply returned a non-nil global")
	}
	if g := mustSubmit(t, s, 1, contributionFor(1, 8)); g != nil {
		t.Fatal("buffered contribution before first apply returned a non-nil global")
	}
	if s.AsyncGlobal() != nil {
		t.Fatal("AsyncGlobal non-nil before first apply")
	}
}

// TestAsyncLengthMismatch: the accumulator's element count is fixed by the
// first contribution; mismatched lengths fail loudly.
func TestAsyncLengthMismatch(t *testing.T) {
	s := newAsync(t, AsyncConfig{K: 4})
	mustSubmit(t, s, 0, make([]float64, 10))
	if _, err := s.AggregateModel(1, 0, make([]float64, 11)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestAsyncRoundArgumentIgnored: async mode has no per-round collectives —
// arbitrary round numbers land in the same accumulator.
func TestAsyncRoundArgumentIgnored(t *testing.T) {
	s := newAsync(t, AsyncConfig{K: 2})
	if _, err := s.AggregateModel(0, 17, contributionFor(0, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AggregateModel(1, 3, contributionFor(1, 8)); err != nil {
		t.Fatal(err)
	}
	if s.AsyncVersion() != 1 {
		t.Fatalf("version = %d, want 1 (rounds 17 and 3 should share the channel)", s.AsyncVersion())
	}
}

// TestAsyncErrorChannelIndependent: the "error" collective kind accumulates
// on its own channel; model version and global are untouched by it.
func TestAsyncErrorChannelIndependent(t *testing.T) {
	s := newAsync(t, AsyncConfig{K: 1})
	if _, err := s.AggregateError(0, 0, contributionFor(0, 8)); err != nil {
		t.Fatal(err)
	}
	if s.AsyncVersion() != 0 || s.AsyncGlobal() != nil {
		t.Fatal("error-channel fold leaked into the model channel")
	}
	mustSubmit(t, s, 0, contributionFor(0, 8))
	if s.AsyncVersion() != 1 {
		t.Fatalf("model version = %d, want 1", s.AsyncVersion())
	}
}

// TestAsyncGlobalImmutable: an apply must not mutate globals already handed
// out — each apply allocates fresh.
func TestAsyncGlobalImmutable(t *testing.T) {
	s := newAsync(t, AsyncConfig{K: 1})
	g1 := mustSubmit(t, s, 0, contributionFor(0, 8))
	snap := append([]float64(nil), g1...)
	mustSubmit(t, s, 1, contributionFor(1, 8))
	if !sameBits(g1, snap) {
		t.Fatal("second apply mutated the first handed-out global")
	}
}

// TestAsyncFoldBitDeterminism extends the barrier bit-identity contract to
// the async fold: a fixed arrival sequence (with staleness mixed in) must
// produce a bit-identical final global at every par worker count. Size
// spans several foldGrain blocks so the parallel kernels actually shard.
func TestAsyncFoldBitDeterminism(t *testing.T) {
	const clients, size, cycles = 6, 5000, 8
	vecs := make([][]float64, clients)
	for id := range vecs {
		vecs[id] = contributionFor(id, size)
	}
	// A fixed arrival schedule with repeats and gaps: client 3 skips most
	// cycles (goes stale), client 0 submits often (stays fresh).
	var schedule []int
	for c := 0; c < cycles; c++ {
		schedule = append(schedule, 0, c%clients, (c*2+1)%clients)
	}

	var want []float64
	for wi, workers := range []int{1, 2, 7} {
		prev := par.SetWorkers(workers)
		s := newAsync(t, AsyncConfig{K: 4, MaxStaleness: 3, StalenessWeight: 0.5})
		for _, id := range schedule {
			mustSubmit(t, s, id, vecs[id])
		}
		got := s.AsyncGlobal()
		par.SetWorkers(prev)
		if got == nil {
			t.Fatal("schedule produced no apply")
		}
		if wi == 0 {
			want = got
			continue
		}
		if !sameBits(got, want) {
			t.Fatalf("workers=%d: async global deviates bitwise from workers=1", workers)
		}
	}
}

// TestNewAsyncValidates: bad configs are refused, a zero config (no async
// mode) is refused, and the staleness weight defaults to 0.5.
func TestNewAsyncValidates(t *testing.T) {
	if _, err := NewAsync(AsyncConfig{K: 1, StalenessWeight: 1.5}); err == nil {
		t.Fatal("StalenessWeight > 1 accepted")
	}
	if _, err := NewAsync(AsyncConfig{K: 1, StalenessWeight: -0.1}); err == nil {
		t.Fatal("negative StalenessWeight accepted")
	}
	if _, err := NewAsync(AsyncConfig{}); err == nil {
		t.Fatal("zero config (K = 0) accepted")
	}
	a, err := NewAsync(AsyncConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.cfg.StalenessWeight != 0.5 {
		t.Fatalf("default StalenessWeight = %v, want 0.5", a.cfg.StalenessWeight)
	}
}

func mustSubmit(t *testing.T, s *AsyncAggregator, id int, values []float64) []float64 {
	t.Helper()
	g, err := s.AggregateModel(id, 0, values)
	if err != nil {
		t.Fatalf("client %d: %v", id, err)
	}
	return g
}
