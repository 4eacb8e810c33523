package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/exp"
	"fedsu/internal/fl"
	"fedsu/internal/nn"
)

// engineRun is one in-process episode's engine and the inputs it was built
// from, kept for the probes that run after a traced episode.
type engineRun struct {
	ds     *data.Dataset
	eng    *fl.Engine
	newNet func() *nn.Model
}

// The corpus and the initial model are fixed, as a real benchmark's dataset
// and starting checkpoint are: they are exp.RunOne's at seed 1. The run's
// seed draws everything the run samples: the Dirichlet partition, every
// client's mini-batch stream, participation and cohort draws, and the
// chain's quantizer seed. (Seeding the corpus and the initial weights too
// spreads the accuracy reached after a fixed number of rounds so widely
// across seeds that final_accuracy could hold no bound.)
const (
	corpusSeed = 1 + 31
	initSeed   = 1 + 97
)

// buildEngine is the set-up phase of an in-process episode: dataset
// synthesis, Dirichlet partition, and the engine with one model replica,
// optimizer and strategy per client. The configuration mirrors
// exp.RunOne (learning rate, weight decay, evaluation set), so a workload
// is the paper experiment at the stated scale.
func buildEngine(w workload, seed int64, pr *probes) (*engineRun, error) {
	cnn := exp.CNNWorkload()
	ds := cnn.Dataset(w.Samples, corpusSeed)
	factory, err := fl.StrategyFactoryWith("fedsu", core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	factory = pr.wrap(factory)
	cfg := fl.Config{
		NumClients:     w.Clients,
		LocalIters:     w.LocalIters,
		BatchSize:      w.Batch,
		LR:             cnn.EffectiveLR(),
		WeightDecay:    0.001,
		DirichletAlpha: 1.0,
		EvalSamples:    256,
		EvalBatch:      64,
		Seed:           seed,
		WireParams:     cnn.WireParams,
		Population:     w.Population,
		Fanout:         w.Fanout,
		Compress:       w.Compress,
	}
	newNet := func() *nn.Model { return cnn.Model(w.ModelScale, initSeed) }
	eng, err := fl.NewEngine(cfg, newNet, ds, factory)
	if err != nil {
		return nil, fmt.Errorf("%s: build engine: %w", w.Name, err)
	}
	return &engineRun{ds: ds, eng: eng, newNet: newNet}, nil
}

// runEngineEpisode runs one in-process episode: set-up, then w.Rounds
// rounds with evaluation every w.EvalEvery rounds and on the last. The
// strategy decorators time every client's Sync. With a tracer, spans are
// also recorded around RunRound and EvaluateGlobal and inside the
// decorators, and the layer probes run afterwards.
func runEngineEpisode(ctx context.Context, w workload, seed int64, t *tracer) (*episode, error) {
	pr := newProbes(t)
	start := time.Now()
	run, err := buildEngine(w, seed, pr)
	if err != nil {
		return nil, err
	}
	ep := &episode{Setup: time.Since(start), Accuracy: math.NaN()}
	ep.begin()
	var predSum float64
	for r := 0; r < w.Rounds; r++ {
		id := t.newID()
		pr.round.Store(id)
		ts := t.now()
		st, err := run.eng.RunRound(ctx, false)
		t.add(span{ID: id, Name: spanRound, Round: r, Client: -1, Start: ts, End: t.now()})
		if err != nil {
			ep.fail(w.Rounds-r, fmt.Sprintf("round %d: %v", r, err))
			break
		}
		ep.Rounds++
		ep.WireBytes += int64(st.Traffic.UpBytes + st.Traffic.DownBytes)
		predSum += st.PredictableFraction
		if r == prefixRound(w) {
			ep.Prefix = fingerprint(run.eng.GlobalVector())
		}
		if (r+1)%w.EvalEvery == 0 || r == w.Rounds-1 {
			eid, es := t.newID(), t.now()
			acc, _ := run.eng.EvaluateGlobal()
			t.add(span{ID: eid, Name: spanEval, Round: r, Client: -1, Start: es, End: t.now()})
			ep.Accuracy = acc
		}
	}
	ep.end()
	ep.Latency = pr.syncLatencies()
	if ep.Rounds == 0 {
		return ep, nil
	}
	ep.Fingerprint = fingerprint(run.eng.GlobalVector())
	if t == nil {
		return ep, nil
	}
	lay := phaseLayers(t.snapshot())
	lay["core.predictable_fraction"] = predSum / float64(ep.Rounds)
	addDecoratorCounts(lay, pr, ep.Rounds)

	// Layer probes on the workload's own model, batches, payloads and
	// chain. They run after the measured rounds and touch nothing the
	// engine holds except a copy of its final global vector.
	global := run.eng.GlobalVector()
	steps := 0
	for _, c := range run.eng.Clients() {
		if c.ShardSize() > 0 {
			steps += w.LocalIters
		}
	}
	evalBatches := 256 / 64
	if err := probeModel(lay, run.newNet, run.ds, global, w.Batch, 64, seed); err != nil {
		return nil, err
	}
	lay["nn.train_steps"] = float64(steps)
	lay["nn.forward_calls"] = lay["fl.eval_calls"] * float64(evalBatches)
	lay["nn.vector_calls"] = float64(len(run.eng.Clients())) + lay["fl.eval_calls"]
	ups := pr.lastUploads()
	if err := probeCodec(lay, ups, w.Compress, seed); err != nil {
		return nil, err
	}
	if w.Compress == "" {
		// The default wire applies no codec in process: the engine folds
		// raw float64 submissions.
		lay["codec.msgs"] = 0
	}
	if err := probeTransport(ctx, lay, ups, w.Compress, seed, transportProbeReps); err != nil {
		return nil, err
	}
	ep.Layers = lay
	return ep, nil
}
