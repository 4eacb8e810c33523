package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fedsu/internal/core"
	"fedsu/internal/fl"
	"fedsu/internal/flrpc"
	"fedsu/internal/sparse"
)

// trajectory generates the rpc-fedsu clients' local vectors. Each round a
// client starts from the global it received and moves every parameter by
// one step. The first `linear` parameters step by a constant slope; the
// rest curve: their step shrinks by a constant curvature every round, as a
// parameter settling towards its optimum does. Each client adds its own
// offset, and the offsets sum to zero over the clients, so the exact mean
// step is the slope (or the curving step). Slopes, curvatures and offsets
// are multiples of 2^-16 and small enough that the mean trajectory is exact
// in float32. The linear parameters have second differences of exactly
// zero, which FedSU's linearity diagnosis promotes; the curving ones have
// a constant non-zero second difference, which it never promotes. So the
// linear share sets the share of the vector FedSU predicts.
type trajectory struct {
	linear int
	step   []float64   // slope, or the curving step of round 0
	curve  []float64   // per-round decrease of a curving step
	offset [][]float64 // per client
}

const trajectoryQuantum = 1.0 / (1 << 16)

func newTrajectory(n, clients int, linearShare float64, seed int64) *trajectory {
	rng := rand.New(rand.NewSource(seed))
	t := &trajectory{linear: int(float64(n) * linearShare), step: make([]float64, n), curve: make([]float64, n), offset: make([][]float64, clients)}
	for i := range t.step {
		t.step[i] = float64(1+rng.Intn(255)) * trajectoryQuantum
		if i >= t.linear {
			t.curve[i] = float64(1+rng.Intn(3)) * trajectoryQuantum
		}
	}
	for c := range t.offset {
		t.offset[c] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for c := 0; c < clients-1; c++ {
			o := float64(rng.Intn(511)-255) * trajectoryQuantum
			t.offset[c][i] = o
			sum += o
		}
		t.offset[clients-1][i] = -sum
	}
	return t
}

// local writes client c's round-r local vector, starting from global.
func (t *trajectory) local(dst, global []float64, c, r int) {
	off := t.offset[c]
	for i := range dst {
		dst[i] = global[i] + t.step[i] - float64(r)*t.curve[i] + off[i]
	}
}

// fidelity scores a global after `rounds` rounds against the exact mean
// trajectory (what full synchronization would hold): 1 − ‖g − g*‖/‖g*‖.
func (t *trajectory) fidelity(global []float64, rounds int) float64 {
	var diff, norm float64
	n := float64(rounds)
	for i, g := range global {
		exact := n*t.step[i] - n*(n-1)/2*t.curve[i]
		diff += (g - exact) * (g - exact)
		norm += exact * exact
	}
	return 1 - math.Sqrt(diff)/math.Sqrt(norm)
}

// rpcFleet is one client's view of an rpc-fedsu session.
type rpcFleet struct {
	mgr    *core.Manager
	syncer sparse.Syncer
	probe  *clientProbe
}

// runRPCEpisode runs one rpc-fedsu episode: a flrpc coordinator on
// loopback and w.Clients flrpc.Client connections in this process, each
// driving a core.Manager in a closed loop (round r+1 starts only after the
// round-r reply). After every round both clients must hold bit-identical
// globals.
func runRPCEpisode(ctx context.Context, w workload, seed int64, t *tracer) (*episode, error) {
	pr := newProbes(t)
	start := time.Now()
	traj := newTrajectory(w.Params, w.Clients, w.LinearShare, seed)
	coord, err := flrpc.NewCoordinatorWith(flrpc.Config{NumClients: w.Clients, ModelSize: w.Params})
	if err != nil {
		return nil, fmt.Errorf("rpc-fedsu: %w", err)
	}
	svc, err := flrpc.Listen("127.0.0.1:0", coord)
	if err != nil {
		return nil, fmt.Errorf("rpc-fedsu: %w", err)
	}
	defer func() {
		svc.Close()
		<-svc.Done()
	}()
	conns, err := dialAll(svc.Addr(), w.Clients, flrpc.Config{})
	if err != nil {
		return nil, fmt.Errorf("rpc-fedsu: %w", err)
	}
	defer closeAll(conns)
	fleet := make([]rpcFleet, w.Clients)
	for i, conn := range conns {
		p := pr.client(i)
		p.round = new(atomic.Int64) // clients run their rounds independently
		mgr, err := core.NewManager(i, w.Params, &timedAggregator{inner: conn, p: p}, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("rpc-fedsu: %w", err)
		}
		fleet[i] = rpcFleet{mgr: mgr, syncer: &timedSyncer{inner: mgr, p: p}, probe: p}
	}
	ep := &episode{Setup: time.Since(start)}
	// A client that fails cancels the others, which would otherwise wait
	// at the coordinator's barrier forever.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rx0, tx0 := coord.Counters().Get("agg_rx_bytes"), coord.Counters().Get("agg_tx_bytes")
	ep.begin()

	hashes := make([][]uint64, w.Clients)
	globals := make([][]float64, w.Clients)
	errs := make([]error, w.Clients)
	var predSum float64
	var wg sync.WaitGroup
	for c := range fleet {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := fleet[c]
			global, local := make([]float64, w.Params), make([]float64, w.Params)
			for r := 0; r < w.Rounds; r++ {
				id, rs := t.newID(), t.now()
				f.probe.round.Store(id)
				traj.local(local, global, c, r)
				out, _, err := sparse.SyncContext(ctx, f.syncer, r, local, true)
				if err != nil {
					errs[c] = fmt.Errorf("client %d round %d: %w", c, r, err)
					cancel()
					return
				}
				copy(global, out)
				hashes[c] = append(hashes[c], fingerprint(global))
				t.add(span{ID: id, Name: spanRound, Round: r, Client: c, Start: rs, End: t.now()})
				if c == 0 {
					predSum += float64(f.mgr.PredictableCount()) / float64(w.Params)
					if (r+1)%w.EvalEvery == 0 || r == w.Rounds-1 {
						eid, es := t.newID(), t.now()
						ep.Accuracy = traj.fidelity(global, r+1)
						t.add(span{ID: eid, Name: spanEval, Round: r, Client: c, Start: es, End: t.now()})
					}
				}
			}
			globals[c] = global
		}(c)
	}
	wg.Wait()
	ep.end()
	ep.WireBytes = coord.Counters().Get("agg_rx_bytes") - rx0 + coord.Counters().Get("agg_tx_bytes") - tx0
	for c := range fleet {
		if errs[c] != nil {
			ep.fail(w.Rounds, errs[c].Error())
			return ep, nil
		}
	}
	ep.Latency = pr.syncLatencies()
	// Bit-identical globals on every client after every round.
	for r := 0; r < w.Rounds; r++ {
		for c := 1; c < w.Clients; c++ {
			if hashes[c][r] != hashes[0][r] {
				ep.fail(1, fmt.Sprintf("round %d: client %d global differs from client 0", r, c))
				break
			}
		}
	}
	ep.Rounds = w.Rounds - ep.Failed
	ep.Fingerprint = fingerprint(globals[0])
	if w.Rounds > 0 {
		ep.Prefix = hashes[0][prefixRound(w)]
	}
	if t == nil {
		return ep, nil
	}
	lay := phaseLayers(t.snapshot())
	lay["core.predictable_fraction"] = predSum / float64(w.Rounds)
	addDecoratorCounts(lay, pr, w.Rounds)
	var calls []float64
	for _, s := range t.snapshot() {
		if s.Name == spanCollective {
			calls = append(calls, nsToMs(s.dur()))
		}
	}
	lay["flrpc.call_ms"] = mean(calls)
	lay["flrpc.call_p99_ms"] = quantile(calls, 0.99)
	var retries, reconnects int64
	for _, conn := range conns {
		retries += conn.Counters().Get("retries")
		reconnects += conn.Counters().Get("reconnects")
	}
	lay["flrpc.retries"] = float64(retries)
	lay["flrpc.reconnects"] = float64(reconnects)

	ups := pr.lastUploads()
	handler, err := handlerCalls(flrpc.Config{NumClients: len(ups), ModelSize: w.Params}, ups, transportProbeReps)
	if err != nil {
		return nil, err
	}
	lay["flrpc.handler_ms"] = median(handler)
	if err := probeCodec(lay, ups, "", seed); err != nil {
		return nil, err
	}
	if err := probeReferenceModel(lay, seed); err != nil {
		return nil, err
	}
	lay["nn.train_steps"], lay["nn.forward_calls"], lay["nn.vector_calls"] = 0, 0, 0
	ep.Layers = lay
	return ep, nil
}

// wireAggregator models the default flrpc wire in process: submissions and
// results both round through float32, as the base codec does on each leg.
type wireAggregator struct{ inner sparse.Aggregator }

func wireImage(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = sparse.QuantizeWire(x)
	}
	return out
}

func (a wireAggregator) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	res, err := a.inner.AggregateModel(clientID, round, wireImage(values))
	return wireImage(res), err
}

func (a wireAggregator) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	res, err := a.inner.AggregateError(clientID, round, wireImage(values))
	return wireImage(res), err
}

// replayRPC replays an rpc-fedsu episode in process through fl.Server and
// returns the fingerprint of the final global, which must equal the TCP
// run's.
func replayRPC(w workload, seed int64) (uint64, error) {
	traj := newTrajectory(w.Params, w.Clients, w.LinearShare, seed)
	srv := fl.NewServer(w.Clients)
	ids := make([]int, w.Clients)
	mgrs := make([]*core.Manager, w.Clients)
	for i := range mgrs {
		ids[i] = i
		m, err := core.NewManager(i, w.Params, wireAggregator{inner: srv}, core.DefaultOptions())
		if err != nil {
			return 0, err
		}
		mgrs[i] = m
	}
	globals := make([][]float64, w.Clients)
	locals := make([][]float64, w.Clients)
	for i := range globals {
		globals[i], locals[i] = make([]float64, w.Params), make([]float64, w.Params)
	}
	errs := make([]error, w.Clients)
	for r := 0; r < w.Rounds; r++ {
		srv.BeginRound(r, ids)
		var wg sync.WaitGroup
		for c := range mgrs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				traj.local(locals[c], globals[c], c, r)
				out, _, err := mgrs[c].Sync(r, locals[c], true)
				if err != nil {
					errs[c] = err
					return
				}
				copy(globals[c], out)
			}(c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, fmt.Errorf("replay round %d: %w", r, err)
			}
		}
	}
	return fingerprint(globals[0]), nil
}
