package fl

import (
	"context"
	"fmt"
	"math"
	"sync"

	"fedsu/internal/par"
)

// AsyncConfig parameterizes buffered-async aggregation (NewAsync). Instead
// of a per-round barrier, the aggregator folds model submissions into a
// weighted accumulator as they arrive and applies a new global every K
// contributions — FedBuff-style buffered asynchrony.
//
// Staleness is measured in *versions* (global applications), never
// wall-clock: a submission's staleness is the number of globals applied
// since the submitting client last pulled one. Version counting keeps the
// fold seed-deterministic — the same arrival sequence produces the same
// weights regardless of real elapsed time.
type AsyncConfig struct {
	// K is the buffer size: the global applies after every K buffered
	// contributions. K <= 0 means no async mode (Enabled is false); K == 1
	// is fully asynchronous (every contribution applies immediately).
	K int

	// MaxStaleness drops contributions more than this many versions
	// behind the current global (they count toward StaleDropCount and
	// return the current global without folding). Negative means
	// unlimited; zero means only perfectly fresh contributions fold.
	MaxStaleness int

	// StalenessWeight is the per-version decay base: a contribution s
	// versions behind folds with weight StalenessWeight^s and the apply
	// step divides by the sum of folded weights. Must be in (0, 1]; zero
	// selects the default 0.5. 1.0 disables decay (plain buffered mean).
	StalenessWeight float64
}

// Enabled reports whether the config describes an active async mode.
func (c AsyncConfig) Enabled() bool { return c.K > 0 }

func (c AsyncConfig) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("fl: async K must be >= 1, got %d", c.K)
	}
	if c.StalenessWeight < 0 || c.StalenessWeight > 1 {
		return fmt.Errorf("fl: async staleness weight must be in (0, 1], got %g", c.StalenessWeight)
	}
	return nil
}

// withDefaults resolves zero values to their documented defaults.
func (c AsyncConfig) withDefaults() AsyncConfig {
	if c.StalenessWeight == 0 {
		c.StalenessWeight = 0.5
	}
	return c
}

// asyncChan is one async accumulation channel (one per collective kind:
// "model" and "error"), guarded by AsyncAggregator.mu: a running weighted
// sum that applies every K contributions.
type asyncChan struct {
	// ver counts applied globals; it is the staleness clock.
	ver int

	// base[id] is the version the client last synchronized against (the
	// global it was handed on its previous submission). A client's
	// staleness is ver - base[id]. First contact seeds base at the current
	// version: a brand-new client trained against the freshest state it
	// could have pulled.
	base map[int]int

	// Accumulator state. sumLen is -1 until the first contribution fixes
	// the element count; sum/wsum/buf reset after every apply.
	sumLen int
	sum    []float64
	wsum   float64
	buf    int

	// global is the last applied result; nil until the first apply.
	// Apply allocates a fresh slice every time so a slice handed to an
	// earlier caller is never mutated behind its back.
	global []float64

	// Persistent parallel kernels over the current fold parameters, like
	// foldNode.planFn/scaleFn: created once so steady-state folds allocate
	// nothing but the apply-step global. Inputs are published before the
	// par dispatch (channel send / WaitGroup synchronize them).
	foldVals []float64
	foldW    float64
	applyDst []float64
	applyInv float64
	foldFn   func(lo, hi int)
	applyFn  func(lo, hi int)
}

func newAsyncChan() *asyncChan {
	c := &asyncChan{base: map[int]int{}, sumLen: -1}
	c.foldFn = func(lo, hi int) {
		dst := c.sum[lo:hi]
		src := c.foldVals[lo:hi]
		w := c.foldW
		for i := range dst {
			dst[i] += w * src[i]
		}
	}
	c.applyFn = func(lo, hi int) {
		dst := c.applyDst[lo:hi]
		src := c.sum[lo:hi]
		inv := c.applyInv
		for i := range dst {
			dst[i] = src[i] * inv
		}
	}
	return c
}

// AsyncAggregator is the buffered-async aggregation service. Aggregate*
// calls never block on a barrier: a submission folds into the per-kind
// accumulator immediately, weighted by StalenessWeight^staleness, and
// returns the current global (nil before the first apply — strategies
// treat a nil global as "keep local", exactly the bootstrap contract of the
// barrier path). There is no roster or participation quorum: any client
// that submits non-nil values contributes, and the round argument is
// ignored.
//
// Determinism contract: the fold is bit-identical across par worker counts
// (element-sharded, so per-element addition order never depends on
// chunking), but — unlike the barrier, which reorders a round's
// submissions into client-id order — the async fold is order-sensitive
// across *arrival order*. Seed-determinism therefore requires the caller
// to serialize submissions in a seeded order, which the netem-driven
// engine event loop does; see DESIGN.md §5i.
type AsyncAggregator struct {
	cfg   AsyncConfig
	mu    sync.Mutex
	chans map[string]*asyncChan
	stale int
}

// NewAsync builds a buffered-async aggregator; cfg.K must be at least 1.
func NewAsync(cfg AsyncConfig) (*AsyncAggregator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &AsyncAggregator{cfg: cfg.withDefaults(), chans: map[string]*asyncChan{}}, nil
}

// AggregateModel implements sparse.Aggregator. The returned global is
// shared with every caller handed the same version and must not be
// mutated.
func (a *AsyncAggregator) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return a.submit(context.Background(), clientID, "model", values)
}

// AggregateError implements sparse.Aggregator.
func (a *AsyncAggregator) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return a.submit(context.Background(), clientID, "error", values)
}

// AggregateModelCtx implements sparse.ContextAggregator. The fold never
// blocks, so ctx is only checked on entry.
func (a *AsyncAggregator) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return a.submit(ctx, clientID, "model", values)
}

// AggregateErrorCtx implements sparse.ContextAggregator.
func (a *AsyncAggregator) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return a.submit(ctx, clientID, "error", values)
}

// submit folds one submission into the kind's channel.
func (a *AsyncAggregator) submit(ctx context.Context, clientID int, kind string, values []float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	ch := a.chans[kind]
	if ch == nil {
		ch = newAsyncChan()
		a.chans[kind] = ch
	}

	stale := ch.ver - ch.base[clientID]
	if _, seen := ch.base[clientID]; !seen {
		// First contact: the client trained from the freshest pull it
		// could have made, so it folds at full weight.
		stale = 0
	}

	if values != nil {
		if a.cfg.MaxStaleness >= 0 && stale > a.cfg.MaxStaleness {
			// Too far behind: the contribution is discarded, not folded.
			// The client still resynchronizes to the current global below.
			a.stale++
		} else if err := ch.fold(values, math.Pow(a.cfg.StalenessWeight, float64(stale))); err != nil {
			return nil, err
		} else if ch.buf >= a.cfg.K {
			ch.apply()
		}
	}

	// Whether it contributed, abstained (nil values), or was dropped for
	// staleness, the client leaves synchronized to the version it is
	// being handed.
	ch.base[clientID] = ch.ver
	return ch.global, nil
}

// fold accumulates one weighted contribution.
func (c *asyncChan) fold(values []float64, w float64) error {
	if c.sumLen == -1 {
		c.sumLen = len(values)
		if cap(c.sum) >= c.sumLen {
			c.sum = c.sum[:c.sumLen]
			clear(c.sum)
		} else {
			c.sum = make([]float64, c.sumLen)
		}
	}
	if len(values) != c.sumLen {
		return fmt.Errorf("fl: async contribution has %d values, accumulator holds %d", len(values), c.sumLen)
	}
	c.foldVals, c.foldW = values, w
	par.ParallelizeGrain(c.sumLen, foldGrain, c.foldFn)
	c.foldVals = nil
	c.wsum += w
	c.buf++
	return nil
}

// apply produces a new global from the buffered weighted sum and resets
// the buffer. The result is a fresh allocation: globals already handed to
// callers stay immutable.
func (c *asyncChan) apply() {
	c.applyDst = make([]float64, c.sumLen)
	c.applyInv = 1 / c.wsum
	par.ParallelizeGrain(c.sumLen, foldGrain, c.applyFn)
	c.global = c.applyDst
	c.applyDst = nil
	c.ver++
	clear(c.sum)
	c.wsum = 0
	c.buf = 0
}

// AsyncVersion returns the number of globals applied on the model channel.
func (a *AsyncAggregator) AsyncVersion() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ch := a.chans["model"]; ch != nil {
		return ch.ver
	}
	return 0
}

// AsyncGlobal returns the current async global model (nil before the first
// apply). The returned slice is immutable by contract — apply always
// allocates fresh.
func (a *AsyncAggregator) AsyncGlobal() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if ch := a.chans["model"]; ch != nil {
		return ch.global
	}
	return nil
}

// StaleDropCount reports contributions discarded for exceeding
// MaxStaleness, across all channels.
func (a *AsyncAggregator) StaleDropCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stale
}
