package fl

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Two of three clients submit; the third never does. The deadline must
// close the barrier over the two contributors and evict the third.
func TestDeadlineEvictsMissingClient(t *testing.T) {
	s := NewServer(3)
	s.SetDeadline(50 * time.Millisecond)
	s.SetRoster([]int{0, 1, 2})
	s.BeginRound(0, []int{0, 1, 2})

	var wg sync.WaitGroup
	results := make([][]float64, 2)
	errs := make([]error, 2)
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.AggregateModel(i, 0, []float64{float64(2 * (i + 1))})
		}(i)
	}
	wg.Wait()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("barrier took %v, deadline not enforced", el)
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if len(results[i]) != 1 || results[i][0] != 3 {
			t.Errorf("client %d got %v, want [3] (mean over survivors)", i, results[i])
		}
	}
	if got := s.Evicted(); len(got) != 1 || got[0] != 2 {
		t.Errorf("Evicted() = %v, want [2]", got)
	}
	if s.EvictionCount() != 1 || s.TimeoutCount() != 1 {
		t.Errorf("counters = %d evictions / %d timeouts, want 1/1", s.EvictionCount(), s.TimeoutCount())
	}

	// The straggler's late submission must be rejected with the typed
	// error, not absorbed into a later collective.
	if _, err := s.AggregateModel(2, 0, []float64{99}); !errors.Is(err, ErrEvicted) {
		t.Errorf("late submission error = %v, want ErrEvicted", err)
	}
	var ev *EvictedError
	if _, err := s.AggregateModel(2, 1, []float64{99}); !errors.As(err, &ev) || ev.ClientID != 2 {
		t.Errorf("next-round submission error = %v, want EvictedError{2}", err)
	}
}

// Evicting on one collective must also release the round's other in-flight
// collective rather than letting it burn a second full deadline.
func TestEvictionReleasesAllInFlightCollectives(t *testing.T) {
	s := NewServer(2)
	s.SetDeadline(40 * time.Millisecond)
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1})

	var wg sync.WaitGroup
	var modelRes, errRes []float64
	wg.Add(2)
	go func() { defer wg.Done(); modelRes, _ = s.AggregateModel(0, 0, []float64{1}) }()
	go func() { defer wg.Done(); errRes, _ = s.AggregateError(0, 0, []float64{5}) }()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("collectives still blocked long after the deadline")
	}
	if len(modelRes) != 1 || modelRes[0] != 1 {
		t.Errorf("model collective = %v, want [1]", modelRes)
	}
	if len(errRes) != 1 || errRes[0] != 5 {
		t.Errorf("error collective = %v, want [5]", errRes)
	}
	if s.EvictionCount() != 1 {
		t.Errorf("evictions = %d, want 1 (client 1 evicted once, across both ops)", s.EvictionCount())
	}
}

// An alive probe vouching for the straggler buys the barrier exactly one
// deadline extension; a straggler arriving inside it completes the round
// with no eviction.
func TestAliveProbeExtendsDeadlineOnce(t *testing.T) {
	s := NewServer(2)
	const d = 60 * time.Millisecond
	s.SetDeadline(d)
	s.SetAliveProbe(func(int) bool { return true })
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1})

	var wg sync.WaitGroup
	var fast []float64
	wg.Add(1)
	go func() { defer wg.Done(); fast, _ = s.AggregateModel(0, 0, []float64{2}) }()

	// Miss the first deadline but land within the extension.
	time.Sleep(d + d/2)
	slow, err := s.AggregateModel(1, 0, []float64{4})
	if err != nil {
		t.Fatalf("straggler inside the extension: %v", err)
	}
	wg.Wait()
	for _, r := range [][]float64{fast, slow} {
		if len(r) != 1 || r[0] != 3 {
			t.Errorf("result = %v, want [3] (both contributed)", r)
		}
	}
	if s.EvictionCount() != 0 {
		t.Errorf("evictions = %d, want 0", s.EvictionCount())
	}
}

// Even a permanently "alive" straggler is evicted after the single
// extension — the barrier is deadline-bounded, not deadline-hinted.
func TestAliveProbeExtensionIsBounded(t *testing.T) {
	s := NewServer(2)
	s.SetDeadline(40 * time.Millisecond)
	s.SetAliveProbe(func(int) bool { return true })
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1})

	start := time.Now()
	res, err := s.AggregateModel(0, 0, []float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("barrier took %v despite the bounded extension", el)
	}
	if len(res) != 1 || res[0] != 7 {
		t.Errorf("result = %v, want [7]", res)
	}
	if s.EvictionCount() != 1 {
		t.Errorf("evictions = %d, want 1", s.EvictionCount())
	}
}

// With idempotency on (the coordinator's setting), a duplicate submission
// waits for the collective instead of erroring — the first values win.
func TestIdempotentResubmission(t *testing.T) {
	s := NewServer(2)
	s.SetIdempotent(true)
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1})

	var wg sync.WaitGroup
	var first, dup []float64
	wg.Add(2)
	go func() { defer wg.Done(); first, _ = s.AggregateModel(0, 0, []float64{2}) }()
	go func() {
		defer wg.Done()
		// Wait for client 0's first submission to land, then resubmit.
		for {
			s.mu.Lock()
			var landed bool
			if c := s.cols[opKey{round: 0, kind: "model"}]; c != nil {
				landed = c.submit[0]
			}
			s.mu.Unlock()
			if landed {
				break
			}
			time.Sleep(time.Millisecond)
		}
		dup, _ = s.AggregateModel(0, 0, []float64{999})
	}()
	// Fill the barrier.
	res, err := s.AggregateModel(1, 0, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, r := range [][]float64{first, dup, res} {
		if len(r) != 1 || r[0] != 3 {
			t.Errorf("result = %v, want [3] (duplicate's 999 must not count)", r)
		}
	}
}

// A readmitted client re-enters the roster and participates again.
func TestReadmitAfterEviction(t *testing.T) {
	s := NewServer(2)
	s.SetDeadline(40 * time.Millisecond)
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1})
	if _, err := s.AggregateModel(0, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if got := s.Evicted(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Evicted() = %v, want [1]", got)
	}

	s.Readmit(1)
	s.SetRoster([]int{0, 1})
	s.BeginRound(1, []int{0, 1})
	var wg sync.WaitGroup
	var ra, rb []float64
	wg.Add(2)
	go func() { defer wg.Done(); ra, _ = s.AggregateModel(0, 1, []float64{1}) }()
	go func() { defer wg.Done(); rb, _ = s.AggregateModel(1, 1, []float64{3}) }()
	wg.Wait()
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 1 || r[0] != 2 {
			t.Errorf("post-readmit result = %v, want [2]", r)
		}
	}
}

// The context-aware wait aborts on cancellation without losing the
// submission: the barrier still completes for everyone else.
func TestAggregateCtxCancelAbortsWait(t *testing.T) {
	s := NewServer(2)
	s.SetRoster([]int{0, 1})
	s.BeginRound(0, []int{0, 1})

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.AggregateModelCtx(ctx, 0, 0, []float64{2})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter still blocked")
	}

	// Client 0's submission survives; client 1 fills the barrier and gets
	// the mean over both.
	res, err := s.AggregateModel(1, 0, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != 3 {
		t.Errorf("result = %v, want [3]", res)
	}
}

// An explicit roster with non-contiguous ids (dynamic membership) barriers
// on exactly those ids.
func TestRosterWithNonContiguousIDs(t *testing.T) {
	s := NewServer(2)
	s.SetRoster([]int{3, 7})
	s.BeginRound(0, []int{3, 7})
	var wg sync.WaitGroup
	var ra, rb []float64
	wg.Add(2)
	go func() { defer wg.Done(); ra, _ = s.AggregateModel(3, 0, []float64{1}) }()
	go func() { defer wg.Done(); rb, _ = s.AggregateModel(7, 0, []float64{5}) }()
	wg.Wait()
	for _, r := range [][]float64{ra, rb} {
		if len(r) != 1 || r[0] != 3 {
			t.Errorf("result = %v, want [3]", r)
		}
	}
}
