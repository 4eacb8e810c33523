package main

import "fmt"

// workload is one named set of inputs the benchmark runs. Every input is a
// pure function of the run's seed and these parameters; the program under
// test receives only the generated inputs.
type workload struct {
	Name string `json:"name"`
	// Why records the reason this workload was chosen: the layer it
	// stresses, and the layer it is expected to leave alone.
	Why string `json:"why"`
	// RPC selects the flrpc loopback episode; otherwise the in-process
	// fl.Engine runs.
	RPC bool `json:"rpc"`

	// Rounds is one episode's round count. A run repeats whole episodes
	// (set-up included) until its measuring time is spent, so final
	// accuracy and the final global are those of a fixed-length run.
	Rounds int `json:"rounds"`
	// EvalEvery evaluates the global every n rounds and on the last one.
	EvalEvery int `json:"eval_every"`
	// AccuracyFloor is the final accuracy (fidelity on rpc-fedsu) below
	// which the run's output counts as wrong.
	AccuracyFloor float64 `json:"accuracy_floor"`
	// Compress is the wire chain spec; empty is the default wire.
	Compress string `json:"compress,omitempty"`

	// In-process engine parameters (the exp.FastConfig knobs).
	Clients    int `json:"clients"`
	LocalIters int `json:"local_iters,omitempty"`
	Batch      int `json:"batch,omitempty"`
	Samples    int `json:"samples,omitempty"`
	ModelScale int `json:"model_scale,omitempty"`
	Population int `json:"population,omitempty"`
	Fanout     int `json:"fanout,omitempty"`

	// rpc-fedsu parameters: the trajectory length and the share of
	// parameters that move linearly (the rest curve; see trajectory).
	// FedSU predicts the linear parameters and never the curving ones, so
	// the linear share sets core.predictable_fraction.
	Params      int     `json:"params,omitempty"`
	LinearShare float64 `json:"linear_share,omitempty"`
}

// workloads are the benchmark's workloads, in the order BENCHMARK.json
// lists them.
var workloads = []workload{
	{
		Name:   "train-cnn",
		Why:    "paper main experiment at exp.FastConfig scale: local training (tensor, nn, opt) is most of a round and sync under 2%, so compute changes show here and wire changes must not",
		Rounds: 64, EvalEvery: 2, AccuracyFloor: 0.25,
		Clients: 8, LocalIters: 10, Batch: 16, Samples: 2048, ModelScale: 8,
	},
	{
		Name:   "sync-chain-tree",
		Why:    "1000-device population on the fanout-4 tree, 156k-param CNN, FedSU x topk,q4,rans: time goes to core (delta domain, error feedback) and the codec; the only tree and lossy-chain workload",
		Rounds: 40, EvalEvery: 5, AccuracyFloor: 0.1, Compress: "topk,q4,rans",
		Clients: 8, LocalIters: 2, Batch: 8, Samples: 2048, ModelScale: 2, Population: 1000, Fanout: 4,
	},
	{
		Name: "rpc-fedsu",
		Why:  "2 flrpc clients on loopback drive core.Manager over 250k-param synthetic trajectories: core, base codec, gob/net/rpc and the flat fold, with no tensor or nn work",
		RPC:  true, Rounds: 150, EvalEvery: 5, AccuracyFloor: 0.999,
		// The linear share is taken from the paper's CNN under FedSU: on
		// train-cnn, core.predictable_fraction (the speculative share
		// averaged over an episode's 64 rounds) measured 0.118-0.124 over
		// seeds 1-5, median 0.121. FedSU holds a linear parameter
		// speculative from its fourth round on, so a 0.12 linear share
		// gives rpc-fedsu a predictable fraction of 0.98 x 0.12 = 0.118.
		Clients: 2, Params: 250_000, LinearShare: 0.12,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}
