package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fedsu/internal/data"
	"fedsu/internal/exp"
	"fedsu/internal/flrpc"
	"fedsu/internal/nn"
	"fedsu/internal/opt"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/tensor"
)

// Probe repetitions. Each probe reports the median over its repetitions.
const (
	modelProbeReps     = 25
	kernelProbeReps    = 100
	codecProbeReps     = 15
	transportProbeReps = 40
)

// timeMedian runs f reps times and returns the median wall time in ms.
func timeMedian(reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = ms(time.Since(t0))
	}
	return median(ds)
}

// probeModel times the nn, opt and tensor layers on a replica of the
// workload's model holding the run's final global, with training batches
// of trainBatch samples and inference batches of evalBatch samples drawn
// from the workload's dataset.
func probeModel(lay map[string]float64, newNet func() *nn.Model, ds *data.Dataset, global []float64, trainBatch, evalBatch int, seed int64) error {
	model := newNet()
	if model.Size() != len(global) {
		return fmt.Errorf("probe: model has %d params, global %d", model.Size(), len(global))
	}
	model.LoadVector(global)
	rng := rand.New(rand.NewSource(seed))
	batch := func(n int) (*tensor.Tensor, []int) {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(ds.Len())
		}
		return ds.BatchOf(model.DType(), idx)
	}
	x, labels := batch(trainBatch)
	ex, elabels := batch(evalBatch)
	sgd := opt.NewSGD(0.01, opt.WithWeightDecay(0.001))

	model.ZeroGrad()
	model.TrainStep(x, labels) // warm the scratch arena
	a0 := totalAlloc()
	lay["nn.train_step_ms"] = timeMedian(modelProbeReps, func() {
		model.ZeroGrad()
		model.TrainStep(x, labels)
	})
	lay["nn.train_step_alloc_kib"] = float64(totalAlloc()-a0) / modelProbeReps / 1024
	lay["opt.step_ms"] = timeMedian(kernelProbeReps, func() { sgd.Step(model.Params()) })
	lay["nn.forward_ms"] = timeMedian(modelProbeReps, func() { model.Evaluate(ex, elabels) })
	vec := make([]float64, model.Size())
	lay["nn.vector_ms"] = timeMedian(kernelProbeReps, func() {
		model.ExtractVector(vec)
		model.LoadVector(vec)
	})

	// The first layer is the 5x5 valid convolution: its GEMM multiplies the
	// (outC × inC·25) weight by the (inC·25 × batch·OH·OW) im2col matrix.
	w := model.Params()[0].Value
	p := tensor.ConvParams{KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}
	oh, ow := p.OutSize(x.Dim(2), x.Dim(3))
	if w.Dim(1) != x.Dim(1)*25 {
		return fmt.Errorf("probe: first parameter %v is not a 5x5 conv weight over %d channels", w.Shape(), x.Dim(1))
	}
	cols := tensor.NewOf(model.DType(), w.Dim(1), x.Dim(0)*oh*ow)
	out := tensor.NewOf(model.DType(), w.Dim(0), x.Dim(0)*oh*ow)
	lay["tensor.im2col_ms"] = timeMedian(kernelProbeReps, func() { tensor.Im2ColInto(cols, x, p) })
	lay["tensor.matmul_ms"] = timeMedian(kernelProbeReps, func() { tensor.MatMulInto(out, w, cols) })
	return nil
}

// codecStages are the stages whose per-message byte counters the
// benchmark reports (every stage any workload's chain uses).
var codecStages = []string{"topk", "q4", "rans"}

// probeCodec times one encode and one decode per message of the run's
// final uploads under the workload's chain, and records the encoded size
// and every stage's bytes in and out per message from Chain.Counters().
func probeCodec(lay map[string]float64, ups [][]float64, spec string, seed int64) error {
	if spec == "" {
		spec = codec.Default().Spec()
	}
	chain, err := codec.Parse(spec, seed)
	if err != nil {
		return fmt.Errorf("probe codec: %w", err)
	}
	if len(ups) == 0 {
		return fmt.Errorf("probe codec: the run made no upload")
	}
	bufs := make([][]byte, len(ups))
	var total int
	for i, v := range ups {
		bufs[i] = chain.AppendEncode(nil, v)
		total += len(bufs[i])
	}
	per := float64(len(ups))
	lay["codec.msg_bytes"] = float64(total) / per
	for _, name := range codecStages {
		lay["codec."+name+".in_bytes"] = 0
		lay["codec."+name+".out_bytes"] = 0
	}
	for _, sb := range chain.Counters() {
		lay["codec."+sb.Stage+".in_bytes"] += float64(sb.InBytes) / per
		lay["codec."+sb.Stage+".out_bytes"] += float64(sb.OutBytes) / per
	}
	scratch := make([]byte, 0, total)
	lay["codec.encode_ms"] = timeMedian(codecProbeReps, func() {
		for _, v := range ups {
			scratch = chain.AppendEncode(scratch[:0], v)
		}
	}) / per
	dst := make([]float64, len(ups[0]))
	var derr error
	lay["codec.decode_ms"] = timeMedian(codecProbeReps, func() {
		for i, b := range bufs {
			if _, err := codec.DecodeInto(dst[:0], b, len(ups[i])); err != nil {
				derr = err
			}
		}
	}) / per
	if derr != nil {
		return fmt.Errorf("probe codec: decode: %w", derr)
	}
	return nil
}

// probeTransport measures the flrpc layer on the run's final uploads: the
// call time of flrpc.Client.AggregateModelCtx over loopback TCP, and the
// handler time of Coordinator.Aggregate called directly on the same
// payloads. Each of reps rounds submits every upload concurrently, one
// client per upload, as a session of len(ups) clients.
func probeTransport(ctx context.Context, lay map[string]float64, ups [][]float64, spec string, seed int64, reps int) error {
	if len(ups) > 2 {
		ups = ups[:2]
	}
	n := len(ups[0])
	cfg := flrpc.Config{NumClients: len(ups), ModelSize: n, Compress: spec, CompressSeed: seed}

	calls, retries, reconnects, err := loopbackCalls(ctx, cfg, ups, reps)
	if err != nil {
		return err
	}
	lay["flrpc.retries"], lay["flrpc.reconnects"] = float64(retries), float64(reconnects)
	lay["flrpc.call_ms"] = mean(calls)
	lay["flrpc.call_p99_ms"] = quantile(calls, 0.99)
	handler, err := handlerCalls(cfg, ups, reps)
	if err != nil {
		return err
	}
	lay["flrpc.handler_ms"] = median(handler)
	return nil
}

// lockstepRounds runs reps collective rounds of n concurrent callers and
// returns every call's wall time in ms. Round r+1 starts only once every
// call of round r has returned. The coordinator recycles a round's
// collective state when the next round's first call arrives, and a caller
// that is woken but not yet scheduled when that happens reads recycled
// state, which can hang or corrupt its reply. The probes keep off that path;
// rpc-fedsu's closed-loop clients stay on it, where the per-round checks
// count any corruption it causes.
func lockstepRounds(reps, n int, call func(i, r int) error) ([]float64, error) {
	var times []float64
	for r := 0; r < reps; r++ {
		ds := make([]float64, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t0 := time.Now()
				errs[i] = call(i, r)
				ds[i] = ms(time.Since(t0))
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		times = append(times, ds...)
	}
	return times, nil
}

// loopbackCalls runs reps collective rounds through a real coordinator and
// one flrpc.Client per upload, and returns every call's wall time in ms and
// the clients' retry and reconnect counts.
func loopbackCalls(ctx context.Context, cfg flrpc.Config, ups [][]float64, reps int) (times []float64, retries, reconnects int64, err error) {
	coord, err := flrpc.NewCoordinatorWith(cfg)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("probe transport: %w", err)
	}
	svc, err := flrpc.Listen("127.0.0.1:0", coord)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("probe transport: %w", err)
	}
	defer func() {
		svc.Close()
		<-svc.Done()
	}()
	clients, err := dialAll(svc.Addr(), len(ups), cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	defer closeAll(clients)
	times, err = lockstepRounds(reps, len(clients), func(i, r int) error {
		_, err := clients[i].AggregateModelCtx(ctx, i, r, ups[i])
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("probe transport: %w", err)
	}
	for _, c := range clients {
		retries += c.Counters().Get("retries")
		reconnects += c.Counters().Get("reconnects")
	}
	return times, retries, reconnects, nil
}

// handlerCalls calls Coordinator.Aggregate directly, with no transport, on
// the encoded uploads, and returns every call's wall time in ms.
func handlerCalls(cfg flrpc.Config, ups [][]float64, reps int) ([]float64, error) {
	coord, err := flrpc.NewCoordinatorWith(cfg)
	if err != nil {
		return nil, fmt.Errorf("probe handler: %w", err)
	}
	payloads := make([][]byte, len(ups))
	chain := codec.Default()
	if cfg.Compress != "" {
		if chain, err = codec.Parse(cfg.Compress, cfg.CompressSeed); err != nil {
			return nil, fmt.Errorf("probe handler: %w", err)
		}
	}
	for i, v := range ups {
		var jr flrpc.JoinReply
		if err := coord.Join(flrpc.JoinArgs{Name: "probe"}, &jr); err != nil {
			return nil, fmt.Errorf("probe handler: %w", err)
		}
		payloads[i] = chain.AppendEncode(nil, v)
	}
	times, err := lockstepRounds(reps, len(ups), func(i, r int) error {
		var reply flrpc.AggReply
		return coord.Aggregate(flrpc.AggArgs{ClientID: i, Round: r, Kind: "model", Payload: payloads[i]}, &reply)
	})
	if err != nil {
		return nil, fmt.Errorf("probe handler: %w", err)
	}
	return times, nil
}

// dialAll connects n clients to addr, indexed by their assigned ids.
func dialAll(addr net.Addr, n int, cfg flrpc.Config) ([]*flrpc.Client, error) {
	clients := make([]*flrpc.Client, n)
	for range clients {
		c, err := flrpc.DialWith(addr.String(), flrpc.DialConfig{Name: "e2ebench", Compress: cfg.Compress, CompressSeed: cfg.CompressSeed})
		if err != nil {
			closeAll(clients)
			return nil, fmt.Errorf("dial coordinator: %w", err)
		}
		clients[c.ClientID()] = c
	}
	return clients, nil
}

func closeAll(clients []*flrpc.Client) {
	for _, c := range clients {
		if c != nil {
			c.Close()
		}
	}
}

// probeReferenceModel is probeModel on the train-cnn model at its initial
// weights and a small slice of its dataset, for a workload that has no
// model of its own: the unit costs stay measured, and the workload's call
// counts (zero) carry its share.
func probeReferenceModel(lay map[string]float64, seed int64) error {
	w, err := lookupWorkload("train-cnn")
	if err != nil {
		return err
	}
	cnn := exp.CNNWorkload()
	newNet := func() *nn.Model { return cnn.Model(w.ModelScale, initSeed) }
	return probeModel(lay, newNet, cnn.Dataset(256, corpusSeed), newNet().Vector(), w.Batch, 64, seed)
}
