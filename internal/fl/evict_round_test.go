package fl

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestEvictionSpansRoundBarriers: a client evicted at the round's model
// barrier is gone for the round's error barrier too. The model barrier
// closes at the deadline, the error barrier then closes as soon as the
// survivors submit (no second deadline), and the eviction is counted once
// — flat and at fanouts whose roster spans one or several leaves.
func TestEvictionSpansRoundBarriers(t *testing.T) {
	const deadline = 100 * time.Millisecond
	for _, fanout := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("fanout=%d", fanout), func(t *testing.T) {
			tr := NewTree(fanout)
			tr.SetDeadline(deadline)
			tr.SetRoster([]int{0, 1, 2})
			tr.BeginRound(0, []int{0, 1, 2})

			// Clients 0 and 1 submit to a barrier; client 2 never does.
			barrier := func(kind string) (time.Duration, [][]float64) {
				start := time.Now()
				res := make([][]float64, 2)
				var wg sync.WaitGroup
				for id := 0; id < 2; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						vals := []float64{float64(2 * (id + 1))}
						var err error
						if kind == "model" {
							res[id], err = tr.AggregateModel(id, 0, vals)
						} else {
							res[id], err = tr.AggregateError(id, 0, vals)
						}
						if err != nil {
							t.Errorf("%s client %d: %v", kind, id, err)
						}
					}(id)
				}
				wg.Wait()
				return time.Since(start), res
			}

			span, res := barrier("model")
			if span < deadline || span > 10*deadline {
				t.Errorf("model barrier took %v, want it to close at the %v deadline", span, deadline)
			}
			span, res2 := barrier("error")
			if span >= deadline {
				t.Errorf("error barrier took %v: it waited a second deadline for the evicted client", span)
			}
			for _, r := range append(res, res2...) {
				if len(r) != 1 || r[0] != 3 {
					t.Errorf("result = %v, want [3] (mean over survivors)", r)
				}
			}
			if n := tr.EvictionCount(); n != 1 {
				t.Errorf("EvictionCount = %d, want 1", n)
			}
			if n := tr.TimeoutCount(); n != 1 {
				t.Errorf("TimeoutCount = %d, want 1", n)
			}
		})
	}
}
