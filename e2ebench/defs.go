package main

import (
	"fmt"
	"io"
)

// metricDef names one printed metric; BENCHMARK.json lists the same names,
// units and directions (TestBenchmarkJSONMatchesDefs), and holds the
// end-to-end bounds.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics are printed with --trace 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"round_p50_ms", "ms", "lower"},
	{"round_p99_ms", "ms", "lower"},
	{"cpu_s_per_round", "s", "lower"},
	{"alloc_mib_per_round", "MiB", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"final_accuracy", "ratio", "higher"},
	{"wire_kib_per_round", "KiB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// perLayerMetrics are printed with --trace 1. Times are per call, counts
// per round ("1/round"), so a layer's time per round is its time times its
// count. Where a workload never calls a layer, the layer's unit cost is
// still probed (on the run's payloads, or the train-cnn model) and its
// count is zero.
var perLayerMetrics = []metricDef{
	{"fl.round_wall_ms", "ms", "lower"},
	{"fl.train_phase_ms", "ms", "lower"},
	{"fl.sync_phase_ms", "ms", "lower"},
	{"fl.eval_ms", "ms", "lower"},
	{"fl.eval_calls", "1/round", "lower"},
	{"sparse.sync_ms", "ms", "lower"},
	{"sparse.sync_calls", "1/round", "lower"},
	{"sparse.collective_ms", "ms", "lower"},
	{"sparse.collective_calls", "1/round", "lower"},
	{"sparse.contribute_ratio", "ratio", "higher"},
	{"core.sync_self_ms", "ms", "lower"},
	{"core.predictable_fraction", "ratio", "higher"},
	{"nn.train_step_ms", "ms", "lower"},
	{"nn.train_steps", "1/round", "lower"},
	{"nn.train_step_alloc_kib", "KiB", "lower"},
	{"nn.forward_ms", "ms", "lower"},
	{"nn.forward_calls", "1/round", "lower"},
	{"nn.vector_ms", "ms", "lower"},
	{"nn.vector_calls", "1/round", "lower"},
	{"opt.step_ms", "ms", "lower"},
	{"tensor.matmul_ms", "ms", "lower"},
	{"tensor.im2col_ms", "ms", "lower"},
	{"codec.encode_ms", "ms", "lower"},
	{"codec.decode_ms", "ms", "lower"},
	{"codec.msg_bytes", "B", "lower"},
	{"codec.msgs", "1/round", "lower"},
	{"codec.topk.in_bytes", "B", "lower"},
	{"codec.topk.out_bytes", "B", "lower"},
	{"codec.q4.in_bytes", "B", "lower"},
	{"codec.q4.out_bytes", "B", "lower"},
	{"codec.rans.in_bytes", "B", "lower"},
	{"codec.rans.out_bytes", "B", "lower"},
	{"flrpc.call_ms", "ms", "lower"},
	{"flrpc.call_p99_ms", "ms", "lower"},
	{"flrpc.handler_ms", "ms", "lower"},
	{"flrpc.retries", "count", "lower"},
	{"flrpc.reconnects", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// shareRow is one line of the layer-share table: a layer's time per round
// and its share of the round wall.
type shareRow struct {
	Layer      string  `json:"layer"`
	MsPerRound float64 `json:"ms_per_round"`
	Share      float64 `json:"share"`
	How        string  `json:"how"`
}

// layerShares turns the per-layer metrics into the layer-share table. The
// base is fl.round_wall_ms. Phase rows tile the round; per-client rows sum
// every client's time, so with concurrent clients they can exceed 100%;
// probe rows multiply a probed unit cost by the workload's call count.
func layerShares(lay map[string]float64, rpc bool) []shareRow {
	base := lay["fl.round_wall_ms"]
	codec := lay["codec.encode_ms"] + lay["codec.decode_ms"]
	rows := []shareRow{
		{"fl.train_phase", lay["fl.train_phase_ms"], 0, "phase: round start to the last client's Sync entry"},
		{"fl.sync_phase", lay["fl.sync_phase_ms"], 0, "phase: last Sync entry to round end"},
		{"fl.eval", lay["fl.eval_ms"] * lay["fl.eval_calls"], 0, "phase: EvaluateGlobal (rpc-fedsu: fidelity score)"},
		{"core.sync_self", lay["core.sync_self_ms"] * lay["sparse.sync_calls"], 0, "all clients: Sync minus its collectives"},
		{"sparse.collective", lay["sparse.collective_ms"] * lay["sparse.collective_calls"], 0, "all clients: wire image, fold, barrier wait"},
		{"nn.train_step", lay["nn.train_step_ms"] * lay["nn.train_steps"], 0, "probe x count"},
		{"opt.step", lay["opt.step_ms"] * lay["nn.train_steps"], 0, "probe x count"},
		{"nn.forward (eval)", lay["nn.forward_ms"] * lay["nn.forward_calls"], 0, "probe x count"},
		{"nn.vector", lay["nn.vector_ms"] * lay["nn.vector_calls"], 0, "probe x count"},
		{"codec", codec * lay["codec.msgs"], 0, "probe x count (encode+decode per message)"},
	}
	if rpc {
		// Every collective is an flrpc call; what the handler and the
		// client codec do not account for is transport.
		transport := lay["flrpc.call_ms"] - lay["flrpc.handler_ms"] - codec
		rows = append(rows, shareRow{"flrpc transport", transport * lay["sparse.collective_calls"], 0, "all clients: call - handler - client codec"})
	}
	for i := range rows {
		rows[i].Share = rows[i].MsPerRound / base
	}
	return rows
}

func writeShareTable(w io.Writer, name string, lay map[string]float64, rows []shareRow) {
	fmt.Fprintf(w, "# layer shares on %s: base = round wall %.3f ms (incl. evaluation)\n", name, lay["fl.round_wall_ms"])
	for _, r := range rows {
		fmt.Fprintf(w, "#   %-18s %9.3f ms/round %7.1f%%  %s\n", r.Layer, r.MsPerRound, 100*r.Share, r.How)
	}
	fmt.Fprintf(w, "#   tracing overhead: untraced/traced rounds_per_s - 1 = %+.1f%%\n", 100*lay["trace.overhead_frac"])
}
