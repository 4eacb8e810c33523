package flrpc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedsu/internal/sparse/codec"
)

// TestClosedLoopAggregateReplies drives Coordinator.Aggregate in process
// from two clients in a closed loop: each starts round r+1 the moment its
// round-r reply returns, so round r+1's first submission (which begins the
// round and drops round r's collectives) races the other client's wake-up
// from round r. Every reply must still be round r's mean. A collective
// whose storage is reused by the next round hands a late waiter the new
// round's empty result (a Nil reply) or deadlocks the loop.
func TestClosedLoopAggregateReplies(t *testing.T) {
	const clients, rounds = 2, 2000
	for _, procs := range []int{1, 2} {
		for _, fanout := range []int{0, 2} {
			t.Run(fmt.Sprintf("procs=%d/fanout=%d", procs, fanout), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				coord, err := NewCoordinatorWith(Config{NumClients: clients, ModelSize: 1, Fanout: fanout})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < clients; i++ {
					var jr JoinReply
					if err := coord.Join(JoinArgs{Name: "c"}, &jr); err != nil {
						t.Fatal(err)
					}
				}

				errs := make(chan error, clients)
				var wg sync.WaitGroup
				for id := 0; id < clients; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							// Client id submits 2r+id, so the mean is 2r+0.5
							// (exact on the float32 wire).
							args := AggArgs{
								ClientID: id,
								Round:    r,
								Kind:     "model",
								Payload:  codec.AppendBase(nil, []float64{float64(2*r + id)}),
							}
							var reply AggReply
							if err := coord.Aggregate(args, &reply); err != nil {
								errs <- fmt.Errorf("client %d round %d: %w", id, r, err)
								return
							}
							got, err := reply.contribution(1)
							if err != nil {
								errs <- fmt.Errorf("client %d round %d: decode: %w", id, r, err)
								return
							}
							if want := float64(2*r) + 0.5; len(got) != 1 || got[0] != want {
								errs <- fmt.Errorf("client %d round %d: reply %v (Nil=%v), want [%v]", id, r, got, reply.Nil, want)
								return
							}
						}
					}(id)
				}
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
					close(errs)
				case <-time.After(60 * time.Second):
					// A client that failed left its peer blocked in the
					// next barrier; report the failure before the hang.
					t.Error("closed loop deadlocked")
				}
				for len(errs) > 0 {
					t.Error(<-errs)
				}
			})
		}
	}
}
