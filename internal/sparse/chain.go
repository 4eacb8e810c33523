package sparse

import (
	"context"

	"fedsu/internal/sparse/codec"
)

// Wire binds a strategy's traffic accounting to the compression chain the
// transport actually ships. The zero value (nil Chain) is the legacy
// default wire — the PR 4 bitmap/index codec — so existing constructions
// keep their historical byte counts untouched. A chain from
// codec.ParseWire is never the base-only chain: nil is the one
// representation of the default wire.
type Wire struct {
	Chain *codec.Chain
}

// MessageBytes is the actual wire cost of one collective message carrying
// vec: HeaderBytes of framing plus the base codec's exact encoded size.
// A nil vec (abstention, or a collective that produced no result) costs the
// header alone. This is the number the strategies charge their Traffic
// accounting with — actual encoded bytes, not a per-parameter estimate.
// Chain-aware strategies charge Wire.Bytes instead, which reduces to this
// under the default wire.
func MessageBytes(vec []float64) int {
	if vec == nil {
		return HeaderBytes
	}
	return HeaderBytes + codec.BaseSize(vec)
}

// DenseMessageBytes is MessageBytes for a fully-dense vector of n
// parameters, computed without materializing it (codec.DenseBaseSize).
// Used as the full-model reference cost (sparsification ratios, first-round
// load estimates).
func DenseMessageBytes(n int) int {
	return HeaderBytes + codec.DenseBaseSize(n)
}

// QuantizeWire maps v to the value a receiver observes after one trip
// through the base codec: zeros (including negative zero) collapse to +0,
// everything else rounds through float32. Tests comparing values across
// the default wire must compare against QuantizeWire(sent), not sent;
// under a chain the image is Chain.RoundTrip instead.
func QuantizeWire(v float64) float64 {
	if v == 0 {
		return 0
	}
	return float64(float32(v))
}

// Enabled reports whether a chain is attached: the cue for strategies
// that otherwise use analytic size models (QSGD) to charge measured chain
// bytes instead.
func (w Wire) Enabled() bool {
	return w.Chain != nil
}

// Bytes is the wire cost of one collective message carrying vec under
// this wire's chain: HeaderBytes of framing plus the chain's exact
// encoded payload size. A nil vec (abstention) is framing only. With a
// nil chain this is exactly MessageBytes.
func (w Wire) Bytes(vec []float64) int {
	if vec == nil {
		return HeaderBytes
	}
	if w.Chain == nil {
		return MessageBytes(vec)
	}
	return HeaderBytes + w.Chain.PayloadSize(vec)
}

// ReplyBytes is the wire cost of one downlink message carrying vec: the
// collective reply ships under the chain's Reply variant (quantizers
// widened to 8 bits — see codec.Chain.Reply). With a nil chain this is
// exactly MessageBytes, like Bytes.
func (w Wire) ReplyBytes(vec []float64) int {
	if vec == nil {
		return HeaderBytes
	}
	if w.Chain == nil {
		return MessageBytes(vec)
	}
	return HeaderBytes + w.Chain.Reply().PayloadSize(vec)
}

// DenseBytes is the wire's reference cost for a fully-dense n-parameter
// message (see codec.Chain.DensePayloadSize for why entropy and low-rank
// stages are excluded from the reference).
func (w Wire) DenseBytes(n int) int {
	if w.Chain == nil {
		return DenseMessageBytes(n)
	}
	return HeaderBytes + w.Chain.DensePayloadSize(n)
}

// FullRef is the full-model exchange reference — one dense uplink plus
// one dense downlink (at the reply chain's cost) — that
// SparsificationRatio charges savings against.
func (w Wire) FullRef(n int) int {
	if w.Chain == nil {
		return 2 * DenseMessageBytes(n)
	}
	return w.DenseBytes(n) + HeaderBytes + w.Chain.Reply().DensePayloadSize(n)
}

// RoundTrip is the wire image of values under this wire's chain: what a
// receiver observes after one encode→decode trip. With a nil chain the
// image is the identity here — the legacy float32 rounding is applied by
// the transport itself (QuantizeWire), not by the strategy layer.
func (w Wire) RoundTrip(values []float64) []float64 {
	if w.Chain == nil {
		return values
	}
	return w.Chain.RoundTrip(values)
}

// Image is RoundTrip without charging the chain's per-stage counters:
// strategies probe the wire image of a pending submission (to carry its
// loss forward as an error-feedback residual) without it registering as
// wire traffic.
func (w Wire) Image(values []float64) []float64 {
	if w.Chain == nil {
		return values
	}
	return w.Chain.WireImage(values)
}

// WireSetter is implemented by strategies whose byte accounting can be
// rebound to a chain. The engine calls SetWire right after the Factory
// builds the strategy, before the first Sync.
type WireSetter interface {
	SetWire(Wire)
}

// SetSyncerWire rebinds s's accounting to w when the strategy supports
// it; strategies without chain-aware accounting are left untouched.
func SetSyncerWire(s Syncer, w Wire) {
	if ws, ok := s.(WireSetter); ok {
		ws.SetWire(w)
	}
}

// ChainAggregator applies a chain's wire image to an in-process
// aggregator: every submission and every aggregated result is passed
// through Chain.RoundTrip, exactly what a TCP transport's encode→decode
// does on each leg. Wrapping the aggregator — rather than having
// strategies pre-image their sends — means values are encoded exactly
// once on either transport, so in-process and TCP runs stay bit-identical
// even for stages whose re-encoding is not a fixed point (low-rank).
type ChainAggregator struct {
	agg   Aggregator
	chain *codec.Chain
}

var _ ContextAggregator = (*ChainAggregator)(nil)

// WrapAggregator returns agg with chain's wire image applied to both
// collective legs. A nil chain (the default wire) returns agg unchanged:
// the legacy float32 wire rounding stays where it always was (the
// transport).
func WrapAggregator(agg Aggregator, chain *codec.Chain) Aggregator {
	if agg == nil || chain == nil {
		return agg
	}
	return &ChainAggregator{agg: agg, chain: chain}
}

// AggregateModel implements Aggregator.
func (c *ChainAggregator) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return c.AggregateModelCtx(context.Background(), clientID, round, values)
}

// AggregateError implements Aggregator.
func (c *ChainAggregator) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return c.AggregateErrorCtx(context.Background(), clientID, round, values)
}

// AggregateModelCtx implements ContextAggregator. The submission leg
// runs the session chain; the result leg runs its Reply variant, exactly
// what the TCP coordinator's reply encoder ships.
func (c *ChainAggregator) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	out, err := AggModel(ctx, c.agg, clientID, round, c.chain.RoundTrip(values))
	if err != nil {
		return nil, err
	}
	return c.chain.Reply().RoundTrip(out), nil
}

// AggregateErrorCtx implements ContextAggregator.
func (c *ChainAggregator) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	out, err := AggError(ctx, c.agg, clientID, round, c.chain.RoundTrip(values))
	if err != nil {
		return nil, err
	}
	return c.chain.Reply().RoundTrip(out), nil
}
