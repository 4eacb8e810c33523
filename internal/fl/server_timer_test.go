package fl

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// These tests pin the deadline-timer lifecycle: a timer firing for a
// collective that has since completed — or been dropped by BeginRound and
// replaced by a NEW collective at the same (round, kind) key, which a
// checkpoint replay produces — must be a strict no-op. Collectives are
// never recycled, so the timer's collective pointer alone identifies the
// barrier it was armed for.

// colAt returns the live collective at (round, kind) under the tree lock.
func colAt(s *Tree, round int, kind string) *treeCol {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cols[opKey{round: round, kind: kind}]
}

// TestExpireAfterCompleteIsNoOp: firing the deadline on a finished barrier
// does nothing — no timeout is counted, nobody is evicted.
func TestExpireAfterCompleteIsNoOp(t *testing.T) {
	s := NewServer(2)
	s.SetDeadline(time.Hour) // armed but never fires on its own
	s.BeginRound(0, []int{0, 1})
	vecs := map[int][]float64{0: contributionFor(0, 8), 1: contributionFor(1, 8)}
	_, errs := submitInOrder(t, s, 0, []int{0, 1}, vecs)
	for id, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	c := colAt(s, 0, "model")
	if c == nil {
		t.Fatal("completed collective already gone before BeginRound")
	}
	s.expire(c)
	if n := s.TimeoutCount(); n != 0 {
		t.Fatalf("stale expiry on a finished barrier counted a timeout (%d)", n)
	}
	if n := s.EvictionCount(); n != 0 {
		t.Fatalf("stale expiry on a finished barrier evicted clients (%d)", n)
	}
}

// TestStaleExpireOnReplacedCollectiveIsNoOp: a second BeginRound(0) drops
// the armed collective and the next submission builds a new one at the
// SAME key; the old timer firing must not touch the new barrier.
func TestStaleExpireOnReplacedCollectiveIsNoOp(t *testing.T) {
	s := NewServer(2)
	s.SetDeadline(time.Hour)
	s.BeginRound(0, []int{0, 1})
	vecs := map[int][]float64{0: contributionFor(0, 8), 1: contributionFor(1, 8)}
	_, errs := submitInOrder(t, s, 0, []int{0, 1}, vecs)
	for id, err := range errs {
		if err != nil {
			t.Fatalf("round 0 client %d: %v", id, err)
		}
	}
	old := colAt(s, 0, "model")

	// Replay round 0 (the checkpoint-restore scenario): same key, new
	// collective.
	s.BeginRound(0, []int{0, 1})
	done := make(chan error, 1)
	go func() {
		_, err := s.AggregateModel(0, 0, vecs[0])
		done <- err
	}()
	waitSubs(t, s, 0, "model", 1)
	if cur := colAt(s, 0, "model"); cur == old {
		t.Fatal("BeginRound kept the old collective at the replayed key")
	}

	// The old timer fires now, naming the dropped collective.
	s.expire(old)
	if n := s.EvictionCount(); n != 0 {
		t.Fatalf("stale timer evicted %d clients from the new barrier", n)
	}
	select {
	case err := <-done:
		t.Fatalf("stale timer released the new barrier early (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}

	// The new barrier still works normally.
	if _, err := s.AggregateModel(1, 0, vecs[1]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestExpireWithCurrentGenerationEvicts: the staleness guard must not
// block a legitimate expiry — the live collective's own timer still evicts
// the missing client and closes the barrier over the survivors.
func TestExpireWithCurrentGenerationEvicts(t *testing.T) {
	s := NewServer(2)
	s.SetDeadline(time.Hour)
	s.BeginRound(0, []int{0, 1})
	done := make(chan error, 1)
	go func() {
		_, err := s.AggregateModel(0, 0, contributionFor(0, 8))
		done <- err
	}()
	waitSubs(t, s, 0, "model", 1)
	s.expire(colAt(s, 0, "model"))
	if err := <-done; err != nil {
		t.Fatalf("survivor errored after legitimate expiry: %v", err)
	}
	if n := s.EvictionCount(); n != 1 {
		t.Fatalf("EvictionCount = %d, want 1", n)
	}
	if _, err := s.AggregateModel(1, 0, contributionFor(1, 8)); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted straggler got err = %v, want ErrEvicted", err)
	}
}

// TestDeadlineExpiryRacesCompletion hammers the expire/complete race under
// the race detector: a short deadline fires while the last submission is
// landing. Every client must end each round with either the collective
// result or an eviction — never a hang, a panic, or a cross-barrier evict
// long after everyone submitted on time.
func TestDeadlineExpiryRacesCompletion(t *testing.T) {
	const clients = 3
	const iters = 150
	vecs := make(map[int][]float64, clients)
	participants := make([]int, clients)
	for id := 0; id < clients; id++ {
		vecs[id] = contributionFor(id, 32)
		participants[id] = id
	}
	for it := 0; it < iters; it++ {
		s := NewServer(clients)
		s.SetDeadline(500 * time.Microsecond)
		s.BeginRound(0, participants)
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for id := 0; id < clients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if id == clients-1 {
					// The straggler lands right around the deadline.
					time.Sleep(time.Duration(it%3) * 250 * time.Microsecond)
				}
				_, errs[id] = s.AggregateModel(id, 0, vecs[id])
			}(id)
		}
		wg.Wait()
		for id, err := range errs {
			if err != nil && !errors.Is(err, ErrEvicted) {
				t.Fatalf("iter %d client %d: unexpected error %v", it, id, err)
			}
		}
		// Whatever the race outcome, the next round must start clean:
		// survivors form a fresh barrier that completes.
		alive := make([]int, 0, clients)
		s.mu.Lock()
		for id := 0; id < clients; id++ {
			if !s.evicted[id] {
				alive = append(alive, id)
			}
		}
		s.mu.Unlock()
		if len(alive) == 0 {
			continue
		}
		s.SetDeadline(0)
		s.BeginRound(1, alive)
		s.SetRoster(alive)
		var wg2 sync.WaitGroup
		for _, id := range alive {
			wg2.Add(1)
			go func(id int) {
				defer wg2.Done()
				if _, err := s.AggregateModel(id, 1, vecs[id]); err != nil {
					t.Errorf("iter %d round 1 client %d: %v", it, id, err)
				}
			}(id)
		}
		wg2.Wait()
	}
}
