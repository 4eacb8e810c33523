package fl

import (
	"sync"
	"testing"
)

// TestAsyncSubmitApplyRace hammers the buffered-async path from many
// submitters at once while readers poll the published global. It exists
// for the -race lane: the detector checks that every fold/apply/publish
// interleaving is synchronized, and the checksum pass checks the
// apply-allocates-fresh contract — a global handed to a caller must never
// be mutated by later applies.
func TestAsyncSubmitApplyRace(t *testing.T) {
	const (
		clients = 8
		rounds  = 50
		size    = 256
	)
	s := newAsync(t, AsyncConfig{K: 4, MaxStaleness: -1, StalenessWeight: 1})

	type snapshot struct {
		global []float64
		sum    float64
	}
	checksum := func(g []float64) float64 {
		total := 0.0
		for _, v := range g {
			total += v
		}
		return total
	}

	var wg sync.WaitGroup
	captured := make([][]snapshot, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			vec := contributionFor(id, size)
			for r := 0; r < rounds; r++ {
				g, err := s.AggregateModel(id, r, vec)
				if err != nil {
					t.Error(err)
					return
				}
				if g != nil {
					captured[id] = append(captured[id], snapshot{global: g, sum: checksum(g)})
				}
			}
		}(id)
	}

	// Readers race the submitters on every getter the engine uses.
	quit := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-quit:
					return
				default:
				}
				if g := s.AsyncGlobal(); g != nil {
					_ = checksum(g)
				}
				_ = s.AsyncVersion()
				_ = s.StaleDropCount()
			}
		}()
	}

	wg.Wait()
	close(quit)
	readers.Wait()

	if s.AsyncVersion() == 0 {
		t.Fatal("no apply ever ran; the hammer exercised nothing")
	}
	for id, snaps := range captured {
		for i, snap := range snaps {
			if got := checksum(snap.global); got != snap.sum {
				t.Fatalf("client %d capture %d mutated after handout: checksum %g, was %g",
					id, i, got, snap.sum)
			}
		}
	}
}
