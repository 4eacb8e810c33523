package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedsu/internal/sparse"
)

// Span names recorded at the layer boundaries the benchmark can reach from
// outside the program: around its own calls into fl.Engine, and inside the
// Syncer and Aggregator decorators it hands the engine through the
// strategy factory.
const (
	spanRound      = "fl.round"          // fl.Engine.RunRound, or one client's round over flrpc
	spanEval       = "fl.eval"           // fl.Engine.EvaluateGlobal, or the rpc-fedsu fidelity score
	spanSync       = "sparse.sync"       // Syncer.SyncCtx (core.Manager for fedsu)
	spanCollective = "sparse.collective" // Aggregator.Aggregate*Ctx: wire image, fold and barrier wait
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is 0 for a root span.
type span struct {
	Episode int    `json:"episode"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Round   int    `json:"round"`
	Client  int    `json:"client"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends.
// A nil *tracer records nothing, so untraced runs share the same code path.
type tracer struct {
	epoch   time.Time
	episode int
	next    atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(episode int) *tracer { return &tracer{epoch: time.Now(), episode: episode} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span id before the call, so children started during the
// call can name their parent.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	s.Episode = t.episode
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals (children
// may overlap one another, as concurrent clients do under a round span).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of parent's interval covered by the union of the
// children's intervals, each clipped to the parent.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// clientProbe is the per-client state shared by the Syncer and Aggregator
// decorators of one client: the open sync span (the parent of the
// collective spans it issues), and counters for the collective calls.
type clientProbe struct {
	t      *tracer
	client int
	// round holds the id of the enclosing round span; the episode loop
	// stores it before the round's client goroutines start.
	round *atomic.Int64

	syncID atomic.Int64

	calls, contributed, replies atomic.Int64
	// syncMs holds the wall time of every Sync call, in milliseconds.
	// Written only by the client's own goroutine; read after the episode.
	syncMs []float64
	// lastUp references the client's most recent non-nil model submission,
	// made in round lastRound: the payload the codec and transport probes
	// replay. The strategy owns the slice and reuses it only on its next
	// Sync, so after the episode it still holds that upload. Written only by
	// the client's own goroutine; read after the episode.
	lastUp    []float64
	lastRound int
}

// timedSyncer times Syncer.SyncCtx, and records a span when the probe has
// a tracer. It forwards every optional interface the engine looks for
// (WireSetter, Unwrapper), so wrapping changes no result bit.
type timedSyncer struct {
	inner sparse.Syncer
	p     *clientProbe
}

var (
	_ sparse.ContextSyncer = (*timedSyncer)(nil)
	_ sparse.Unwrapper     = (*timedSyncer)(nil)
	_ sparse.WireSetter    = (*timedSyncer)(nil)
)

func (s *timedSyncer) Name() string          { return s.inner.Name() }
func (s *timedSyncer) Unwrap() sparse.Syncer { return s.inner }
func (s *timedSyncer) SetWire(w sparse.Wire) { sparse.SetSyncerWire(s.inner, w) }
func (s *timedSyncer) Sync(round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	return s.SyncCtx(context.Background(), round, local, contributor)
}

func (s *timedSyncer) SyncCtx(ctx context.Context, round int, local []float64, contributor bool) ([]float64, sparse.Traffic, error) {
	t := s.p.t
	id := t.newID()
	s.p.syncID.Store(id)
	start, wall := t.now(), time.Now()
	out, tr, err := sparse.SyncContext(ctx, s.inner, round, local, contributor)
	s.p.syncMs = append(s.p.syncMs, ms(time.Since(wall)))
	t.add(span{ID: id, Parent: s.p.round.Load(), Name: spanSync, Round: round, Client: s.p.client, Start: start, End: t.now()})
	return out, tr, err
}

// timedAggregator counts the client's collective calls, and records a span
// for each when the probe has a tracer (the chain wire image, the fold and
// the barrier wait, or the flrpc round trip).
type timedAggregator struct {
	inner sparse.Aggregator
	p     *clientProbe
}

var _ sparse.ContextAggregator = (*timedAggregator)(nil)

func (a *timedAggregator) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return a.AggregateModelCtx(context.Background(), clientID, round, values)
}

func (a *timedAggregator) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return a.AggregateErrorCtx(context.Background(), clientID, round, values)
}

func (a *timedAggregator) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	if values != nil {
		a.p.lastUp, a.p.lastRound = values, round
	}
	return a.timed(round, values, func() ([]float64, error) {
		return sparse.AggModel(ctx, a.inner, clientID, round, values)
	})
}

func (a *timedAggregator) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return a.timed(round, values, func() ([]float64, error) {
		return sparse.AggError(ctx, a.inner, clientID, round, values)
	})
}

func (a *timedAggregator) timed(round int, values []float64, call func() ([]float64, error)) ([]float64, error) {
	t := a.p.t
	id := t.newID()
	start := t.now()
	out, err := call()
	t.add(span{ID: id, Parent: a.p.syncID.Load(), Name: spanCollective, Round: round, Client: a.p.client, Start: start, End: t.now()})
	a.p.calls.Add(1)
	if values != nil {
		a.p.contributed.Add(1)
	}
	if out != nil {
		a.p.replies.Add(1)
	}
	return out, err
}

// probes collects the decorators' per-client state for one episode; its
// tracer is nil in an untraced episode.
type probes struct {
	t       *tracer
	round   atomic.Int64
	mu      sync.Mutex
	clients []*clientProbe
}

func newProbes(t *tracer) *probes { return &probes{t: t} }

func (p *probes) client(id int) *clientProbe {
	cp := &clientProbe{t: p.t, client: id, round: &p.round}
	p.mu.Lock()
	p.clients = append(p.clients, cp)
	p.mu.Unlock()
	return cp
}

// wrap decorates a strategy factory: each client's aggregator and syncer
// are timed, and nothing else about them changes.
func (p *probes) wrap(f sparse.Factory) sparse.Factory {
	return func(clientID, size int, agg sparse.Aggregator) sparse.Syncer {
		cp := p.client(clientID)
		return &timedSyncer{inner: f(clientID, size, &timedAggregator{inner: agg, p: cp}), p: cp}
	}
}

// counts sums the collective counters over every client.
func (p *probes) counts() (calls, contributed, replies int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.clients {
		calls += c.calls.Load()
		contributed += c.contributed.Load()
		replies += c.replies.Load()
	}
	return
}

// syncLatencies pools every client's Sync wall times, in milliseconds.
func (p *probes) syncLatencies() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for _, c := range p.clients {
		out = append(out, c.syncMs...)
	}
	return out
}

// lastUploads returns the model submissions of the last round anyone
// contributed to, in client order. Clients that abstained from that round
// are skipped: their latest upload belongs to an earlier round, whose
// FedSU mask may select a different number of parameters.
func (p *probes) lastUploads() [][]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	cs := append([]*clientProbe(nil), p.clients...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].client < cs[j].client })
	last := -1
	for _, c := range cs {
		if c.lastUp != nil {
			last = max(last, c.lastRound)
		}
	}
	var out [][]float64
	for _, c := range cs {
		if c.lastUp != nil && c.lastRound == last {
			out = append(out, c.lastUp)
		}
	}
	return out
}
