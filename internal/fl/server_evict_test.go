package fl

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// Regression tests for eviction-state carry-over across sessions: the
// interaction of the collective's evicted set with SetRoster and Readmit. The historical Readmit injected the readmitted id straight into
// the ACTIVE roster, so a client evicted in one session and re-registered
// under a smaller roster in the next became a barrier member the caller's
// roster never listed — every barrier then waited forever on a submission
// that was never coming ("ghost-block").

// runBarrier submits for every id in ids concurrently and returns the
// per-id errors once the barrier releases.
func runBarrier(t *testing.T, s *Tree, round int, ids []int) map[int]error {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make(map[int]error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := s.AggregateModel(id, round, contributionFor(id, 8))
			mu.Lock()
			errs[id] = err
			mu.Unlock()
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("barrier for round %d over %v never released (ghost-block)", round, ids)
	}
	return errs
}

// TestReadmitUnderSmallerRosterDoesNotGhostBlock is the carried-over-state
// regression: session 1 evicts client 2; session 2 readmits it but runs
// with the SMALLER roster {0, 1}. The {0, 1} barriers must complete without
// any submission from client 2.
func TestReadmitUnderSmallerRosterDoesNotGhostBlock(t *testing.T) {
	s := NewServer(3)
	s.SetDeadline(30 * time.Millisecond)
	s.SetRoster([]int{0, 1, 2})
	s.BeginRound(0, []int{0, 1, 2})
	for id, err := range runBarrier(t, s, 0, []int{0, 1}) { // client 2 never submits
		if err != nil {
			t.Fatalf("session 1 client %d: %v", id, err)
		}
	}
	if got := s.Evicted(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Evicted() = %v, want [2]", got)
	}

	// Session 2: readmit 2, then declare the smaller roster. The order is
	// the dangerous one — a Readmit that edited the roster directly would
	// be overwritten here only if SetRoster came after, so also test the
	// reverse order below.
	s.SetDeadline(0)
	s.Readmit(2)
	s.SetRoster([]int{0, 1})
	s.BeginRound(1, []int{0, 1})
	for id, err := range runBarrier(t, s, 1, []int{0, 1}) {
		if err != nil {
			t.Fatalf("session 2 client %d: %v", id, err)
		}
	}

	// Reverse order: roster declared first, THEN the readmission arrives
	// (a late rejoin RPC). The active {0,1} roster must stay authoritative.
	s.SetRoster([]int{0, 1})
	s.Readmit(2)
	s.BeginRound(2, []int{0, 1})
	for id, err := range runBarrier(t, s, 2, []int{0, 1}) {
		if err != nil {
			t.Fatalf("session 3 client %d: %v", id, err)
		}
	}
}

// TestReadmittedClientRejoinsViaRoster: after Readmit, a SetRoster that
// lists the client restores full membership — its submissions count and
// the barrier waits for it.
func TestReadmittedClientRejoinsViaRoster(t *testing.T) {
	s := NewServer(2)
	s.SetDeadline(30 * time.Millisecond)
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1})
	for id, err := range runBarrier(t, s, 0, []int{0}) { // evicts 1
		if err != nil {
			t.Fatalf("round 0 client %d: %v", id, err)
		}
	}
	s.SetDeadline(0)
	s.Readmit(1)
	s.SetRoster([]int{0, 1})
	s.BeginRound(1, []int{0, 1})
	errs := runBarrier(t, s, 1, []int{0, 1})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("round 1 client %d: %v", id, err)
		}
	}
}

// TestEvictedExcludedFromImpliedRoster: with no explicit roster, the
// {0..n-1} roster NewServer declares must also drop evicted ids — and keep
// them out across BeginRound, and after Readmit, until a SetRoster lists
// them again.
func TestEvictedExcludedFromImpliedRoster(t *testing.T) {
	s := NewServer(3)
	s.SetDeadline(30 * time.Millisecond)
	s.BeginRound(0, []int{0, 1, 2})
	for id, err := range runBarrier(t, s, 0, []int{0, 1}) { // evicts 2
		if err != nil {
			t.Fatalf("round 0 client %d: %v", id, err)
		}
	}
	s.SetDeadline(0)
	// No roster call at all: rounds 1 and 2 run on the implied roster,
	// which must now be {0, 1}.
	for round := 1; round <= 2; round++ {
		s.BeginRound(round, []int{0, 1})
		for id, err := range runBarrier(t, s, round, []int{0, 1}) {
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, id, err)
			}
		}
	}
	// Readmit alone does not edit the roster; the next SetRoster that lists
	// the id restores it.
	s.Readmit(2)
	s.SetRoster([]int{0, 1, 2})
	s.BeginRound(3, []int{0, 1, 2})
	for id, err := range runBarrier(t, s, 3, []int{0, 1, 2}) {
		if err != nil {
			t.Fatalf("round 3 client %d: %v", id, err)
		}
	}
}

// TestSetRosterFiltersEvicted: declaring a roster that still lists an
// evicted id must not resurrect it — its submissions stay rejected and
// barriers do not wait for it.
func TestSetRosterFiltersEvicted(t *testing.T) {
	s := NewServer(3)
	s.SetDeadline(30 * time.Millisecond)
	s.SetRoster([]int{0, 1, 2})
	s.BeginRound(0, []int{0, 1, 2})
	for id, err := range runBarrier(t, s, 0, []int{0, 1}) { // evicts 2
		if err != nil {
			t.Fatalf("round 0 client %d: %v", id, err)
		}
	}
	s.SetDeadline(0)
	// A stale session config re-declares the full roster without readmitting.
	s.SetRoster([]int{0, 1, 2})
	s.BeginRound(1, []int{0, 1, 2})
	for id, err := range runBarrier(t, s, 1, []int{0, 1}) {
		if err != nil {
			t.Fatalf("round 1 client %d: %v", id, err)
		}
	}
	if _, err := s.AggregateModel(2, 1, contributionFor(2, 8)); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted id resurrected by SetRoster: err = %v, want ErrEvicted", err)
	}
}

// TestSetRosterShrinkAfterEviction: shrinking the roster below an evicted
// id must not wedge the session — the smaller cohort proceeds; growing the
// roster back over the id keeps it evicted until Readmit.
func TestSetRosterShrinkAfterEviction(t *testing.T) {
	s := NewServer(4)
	s.SetDeadline(30 * time.Millisecond)
	s.BeginRound(0, []int{0, 1, 2, 3})
	for id, err := range runBarrier(t, s, 0, []int{0, 1, 2}) { // evicts 3
		if err != nil {
			t.Fatalf("round 0 client %d: %v", id, err)
		}
	}
	s.SetDeadline(0)
	s.SetRoster([]int{0, 1})
	s.BeginRound(1, []int{0, 1})
	for id, err := range runBarrier(t, s, 1, []int{0, 1}) {
		if err != nil {
			t.Fatalf("round 1 client %d: %v", id, err)
		}
	}
	// Grow back past the evicted id: still evicted, the roster is
	// {0, 1, 2} — the barrier must not wait for 3 and must reject it.
	s.SetRoster([]int{0, 1, 2, 3})
	s.BeginRound(2, []int{0, 1, 2})
	for id, err := range runBarrier(t, s, 2, []int{0, 1, 2}) {
		if err != nil {
			t.Fatalf("round 2 client %d: %v", id, err)
		}
	}
	if _, err := s.AggregateModel(3, 2, contributionFor(3, 8)); !errors.Is(err, ErrEvicted) {
		t.Fatalf("regrown session resurrected evicted id: err = %v, want ErrEvicted", err)
	}
}
