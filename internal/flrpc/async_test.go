package flrpc

import (
	"testing"

	"fedsu/internal/fl"
	"fedsu/internal/sparse"
)

// Tests for the buffered-async wire path: no per-round barrier bootstrap,
// abstentions costing header-only bytes, the nil-vs-abstain distinction
// surviving the gob envelope, and bit-exact agreement with an in-process
// async fold fed the same (quantized) submissions in the same order.

func startAsyncCoordinator(t *testing.T, n, size int, acfg fl.AsyncConfig) (addr string, coord *Coordinator) {
	t.Helper()
	coord, err := NewCoordinatorWith(Config{NumClients: n, ModelSize: size, Async: acfg})
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String(), coord
}

// TestAsyncOverTCP: submissions never block on a barrier; the K-th apply
// becomes visible to the next caller, and nobody needs BeginRound.
func TestAsyncOverTCP(t *testing.T) {
	addr, coord := startAsyncCoordinator(t, 2, 2, fl.AsyncConfig{K: 2, MaxStaleness: -1, StalenessWeight: 1})
	a, err := Dial(addr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// First submission buffers (1 of K=2) and returns the nil bootstrap
	// global — sequentially, with no second submission in flight: in
	// barrier mode this call would hang forever.
	ra, err := a.AggregateModel(a.ClientID(), 0, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if ra != nil {
		t.Fatalf("first async submission returned %v, want nil (no apply yet)", ra)
	}
	// Second submission completes the buffer and receives the applied mean.
	rb, err := b.AggregateModel(b.ClientID(), 0, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rb) != 2 || rb[0] != 2 || rb[1] != 4 {
		t.Fatalf("applied async mean = %v, want [2 4]", rb)
	}
	if coord.AsyncVersion() != 1 {
		t.Fatalf("AsyncVersion = %d, want 1", coord.AsyncVersion())
	}
	// A mid-buffer submission still gets the current global back.
	ra, err = a.AggregateModel(a.ClientID(), 7, []float64{5, 5}) // round arg is irrelevant
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != 2 || ra[0] != 2 || ra[1] != 4 {
		t.Fatalf("mid-buffer pull = %v, want the version-1 global [2 4]", ra)
	}
}

// TestAsyncAbstainHeaderOnlyWire: an abstaining client ships zero payload
// bytes (the message costs HeaderBytes of framing only) and, before the
// first apply, receives zero payload bytes back.
func TestAsyncAbstainHeaderOnlyWire(t *testing.T) {
	addr, coord := startAsyncCoordinator(t, 2, 4, fl.AsyncConfig{K: 2})
	a, err := Dial(addr, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	if sparse.MessageBytes(nil) != sparse.HeaderBytes {
		t.Fatalf("MessageBytes(nil) = %d, want HeaderBytes %d", sparse.MessageBytes(nil), sparse.HeaderBytes)
	}
	res, err := a.AggregateModel(a.ClientID(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Fatalf("abstention before first apply returned %v, want nil", res)
	}
	if got := a.Counters().Get("agg_tx_bytes"); got != 0 {
		t.Errorf("abstention charged %d payload tx bytes, want 0 (header-only)", got)
	}
	if got := a.Counters().Get("agg_rx_bytes"); got != 0 {
		t.Errorf("nil global charged %d payload rx bytes, want 0", got)
	}
	if got := coord.Counters().Get("agg_rx_bytes"); got != 0 {
		t.Errorf("coordinator counted %d rx payload bytes for an abstention", got)
	}
	if coord.AsyncVersion() != 0 {
		t.Fatal("abstention advanced the async version")
	}
}

// TestAsyncNilVsAbstainDistinct: the wire must keep "nil result" (no apply
// yet) and "empty-but-present vector" distinct, and an abstainer after the
// first apply receives the real global, not nil.
func TestAsyncNilVsAbstainDistinct(t *testing.T) {
	addr, _ := startAsyncCoordinator(t, 3, 1, fl.AsyncConfig{K: 2})
	a, _ := Dial(addr, "a")
	defer a.Close()
	b, _ := Dial(addr, "b")
	defer b.Close()

	// Abstain before any apply: nil, and distinguishable from a zero vector.
	res, err := a.AggregateModel(a.ClientID(), 0, nil)
	if err != nil || res != nil {
		t.Fatalf("pre-apply abstention = %v, %v; want nil, nil", res, err)
	}
	// Two contributions apply version 1 with a zero-valued global: the
	// abstainer must now receive a NON-nil length-1 zero vector — if the
	// wire conflated nil with empty, this is exactly where it would break.
	if _, err := a.AggregateModel(a.ClientID(), 0, []float64{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AggregateModel(b.ClientID(), 0, []float64{0}); err != nil {
		t.Fatal(err)
	}
	res, err = a.AggregateModel(a.ClientID(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res) != 1 || res[0] != 0 {
		t.Fatalf("post-apply abstention = %v, want the non-nil zero global [0]", res)
	}
}

// TestAsyncWireMatchesInProcess: the TCP async fold must agree bit-for-bit
// with an in-process fl.AsyncAggregator fed the identical submission sequence —
// after accounting for the codec's wire quantization on both submit and
// reply, exactly like the synchronous TestDistributedMatchesInProcess.
func TestAsyncWireMatchesInProcess(t *testing.T) {
	const size = 33
	acfg := fl.AsyncConfig{K: 2, MaxStaleness: 4, StalenessWeight: 0.5}

	// Reference: in-process server with quantized submissions.
	ref, err := fl.NewAsync(acfg)
	if err != nil {
		t.Fatal(err)
	}

	addr, coord := startAsyncCoordinator(t, 2, size, acfg)
	a, _ := Dial(addr, "a")
	defer a.Close()
	b, _ := Dial(addr, "b")
	defer b.Close()
	clients := []*Client{a, b}

	vec := func(clientID, cycle int) []float64 {
		v := make([]float64, size)
		for i := range v {
			v[i] = float64((clientID+1)*(i+3)) * 0.125 * float64(cycle+1) // exact in float32
		}
		return v
	}

	// A fixed serialized schedule with a staleness gap: client 0 submits
	// twice in a row, then client 1 (one version behind by then).
	schedule := []int{0, 1, 0, 0, 1, 1, 0, 1}
	var lastWire, lastRef []float64
	for cycle, id := range schedule {
		v := vec(id, cycle)
		wire, err := clients[id].AggregateModel(clients[id].ClientID(), 0, v)
		if err != nil {
			t.Fatal(err)
		}
		inproc, err := ref.AggregateModel(id, 0, quantizeVec(v))
		if err != nil {
			t.Fatal(err)
		}
		lastWire, lastRef = wire, quantizeVec(inproc)
		if (wire == nil) != (lastRef == nil) {
			t.Fatalf("cycle %d: wire nil=%v, in-process nil=%v", cycle, wire == nil, inproc == nil)
		}
	}
	if lastWire == nil {
		t.Fatal("schedule produced no apply")
	}
	for i := range lastWire {
		if lastWire[i] != lastRef[i] {
			t.Fatalf("wire global deviates from quantized in-process fold at %d: %v vs %v",
				i, lastWire[i], lastRef[i])
		}
	}
	if coord.AsyncVersion() != ref.AsyncVersion() {
		t.Fatalf("version mismatch: wire %d, in-process %d", coord.AsyncVersion(), ref.AsyncVersion())
	}
	if coord.StaleDropCount() != ref.StaleDropCount() {
		t.Fatalf("stale drops: wire %d, in-process %d", coord.StaleDropCount(), ref.StaleDropCount())
	}
}
