// Package fl implements the federated-learning engine: the aggregation
// collective (Algorithm 1's Central_Server), the client local-training
// loop, and the round driver that couples them with the netem timing model
// and a synchronization strategy (FedAvg, CMFL, APF, or FedSU).
//
// One barrier collective, Tree, serves every synchronous round: the flat
// server is its one-leaf case (NewServer), and a fanout turns it into a
// multi-tier aggregation tree with bit-identical results. Buffered-async
// rounds have no barrier and use their own accumulator, AsyncAggregator.
package fl

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrEvicted reports that a client was evicted from the session after
// missing a collective deadline; its late submissions are rejected rather
// than corrupting a later round. Match with errors.Is.
var ErrEvicted = errors.New("evicted from session")

// EvictedError carries the evicted client's id; it unwraps to ErrEvicted.
type EvictedError struct {
	ClientID int
}

// Error implements error. The "evicted from session" marker is part of the
// wire contract: net/rpc flattens errors to strings, and flrpc recovers
// the typed error by matching it.
func (e *EvictedError) Error() string {
	return fmt.Sprintf("fl: client %d evicted from session (missed collective deadline)", e.ClientID)
}

// Unwrap makes errors.Is(err, ErrEvicted) hold.
func (e *EvictedError) Unwrap() error { return ErrEvicted }

// Tree is the barrier aggregation service. Each collective (model-average
// or error-average, per round) is a barrier: every roster member must
// submit before any receives the element-wise mean over the contributing
// participants.
//
// The fold is distributed over tiers of fold nodes (fold.go). Each leaf
// folds the submissions of its fanout-sized slice of the roster and
// forwards ONE partial — (canonical sum, contributor weight) — to its
// parent; tiers repeat until the root, which scales the total by the total
// weight. Root work is O(fanout), not O(participants), which is what lets
// a cohort sampled from a 10^5–10^6 population aggregate without one node
// folding every submission. A tree built with fanout below 2 has a single
// leaf over the whole roster: that is the flat server (NewServer).
//
// # Determinism and bit-identity
//
// Submission order across clients is arbitrary (clients run in
// goroutines), but results are deterministic: every fold node combines its
// inputs in the canonical rank-aligned pairwise order (fold.go), and
// leaves cover ALIGNED power-of-two blocks of roster ranks (fanout is
// rounded up to a power of two), so any fanout evaluates exactly the same
// balanced binary addition tree over roster ranks as the single leaf — the
// global vector is identical to the last bit at any fanout and any par
// worker count (TestTreeFlatBitIdentity).
//
// # Streaming aggregation
//
// The tree never holds its mutex across O(model) work. A submission is
// staged by reference into its leaf outside the lock and folded as soon as
// every lower rank has resolved (submitted, abstained, or been evicted),
// so ingest overlaps with stragglers' uploads and closing a node only
// drains what is still staged.
//
// # Fault tolerance
//
// With a deadline set (SetDeadline), a collective that does not fill within
// the deadline of its first submission closes with the submissions it
// has: the missing clients are evicted from the roster and from every
// in-flight collective, each eviction is counted once, the mean is over
// the actual contributors, and later submissions from evicted clients fail
// with ErrEvicted. An alive probe (SetAliveProbe) grants one deadline
// extension when a missing client still heartbeats — distinguishing slow
// from dead — so the worst-case barrier span is two deadlines. With no
// deadline (the default) barriers block until they fill.
//
// # Collective lifetime
//
// Every collective is allocated fresh on its first submission and dropped
// by the next BeginRound. Nothing is recycled, so a waiter that wakes
// after the next round began still reads its own collective's result, and
// a deadline timer that fires late is recognised as stale by pointer
// identity alone.
type Tree struct {
	mu     sync.Mutex
	fanout int // 0: one leaf over the whole roster

	// roster is the ascending, evicted-filtered id list expected at every
	// barrier. It is never mutated in place: collectives keep the slice
	// they were built from.
	roster       []int
	participants map[int]bool
	cols         map[opKey]*treeCol

	deadline   time.Duration
	aliveProbe func(clientID int) bool
	idempotent bool
	evicted    map[int]bool

	evictions int
	timeouts  int

	// Subtree (relay) mode: when upstream is non-nil this tree is one
	// aligned block of a larger roster — the root node forwards its raw
	// partial through upstream instead of scaling a mean, and publishes
	// whatever the upstream returns. upstreamBase is the block's first
	// rank in the enclosing roster.
	upstream     UpstreamFunc
	upstreamBase int

	// Cumulative per-tier telemetry (tier 0 = leaves). tierEvictions[0]
	// counts client evictions; higher tiers count child aggregators that
	// contributed nothing to their parent.
	tierEvictions []int
	leafFolds     int
	partials      int
}

type opKey struct {
	round int
	kind  string
}

// treeCol is one collective (round, kind): the tier topology plus the
// barrier bookkeeping, all guarded by Tree.mu except the fold nodes.
type treeCol struct {
	key    opKey
	roster []int // the tree's roster when the collective was built
	fanout int   // leaf width and tier branching factor
	tiers  [][]*treeTierNode

	pending  map[int]bool // roster members that have not resolved
	submit   map[int]bool // ids that submitted (roster members and strays)
	finished bool
	timer    *time.Timer
	extended bool

	// Published before done closes; read by waiters after.
	result  []float64
	failure error
	done    chan struct{}
}

// treeTierNode is one aggregator of the tree. done flips under Tree.mu
// when the last expected input resolves; the flagged goroutine runs the
// node's fold completion outside the lock and forwards the partial.
type treeTierNode struct {
	fold    *foldNode
	tier    int
	index   int // position within its tier == child rank at the parent
	need    int
	subs    int
	done    bool
	remote  bool // resolved by a remote partial (AggregatePartial)
	failure error
}

// NewTree builds a barrier collective with the given fanout. A fanout
// below 2 builds the one-leaf (flat) collective over whatever roster is
// declared; larger values round up to a power of two, preserving rank
// alignment. The roster is declared by SetRoster before the first
// collective of a round.
func NewTree(fanout int) *Tree {
	f := 0
	if fanout >= 2 {
		f = 2
		for f < fanout {
			f <<= 1
		}
	}
	return &Tree{
		fanout:       f,
		participants: map[int]bool{},
		cols:         map[opKey]*treeCol{},
		evicted:      map[int]bool{},
	}
}

// NewServer builds the flat collective: a one-leaf tree over the roster
// {0..numClients-1}. SetRoster replaces that roster.
func NewServer(numClients int) *Tree {
	t := NewTree(0)
	ids := make([]int, numClients)
	for i := range ids {
		ids[i] = i
	}
	t.roster = ids
	return t
}

// Fanout returns the effective (power-of-two) fanout, or 0 for a one-leaf
// collective.
func (t *Tree) Fanout() int { return t.fanout }

// SetDeadline bounds every collective barrier: d after the first submission
// arrives, the barrier closes with whoever has submitted and evicts the
// rest. Zero (the default) disables the bound and restores blocking
// barriers. It must not be called while collectives are in flight.
func (t *Tree) SetDeadline(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deadline = d
}

// SetAliveProbe installs a liveness oracle consulted when a deadline
// expires: a missing-but-alive client (a slow straggler, per its
// heartbeats) buys the barrier one extension of the same deadline before
// eviction proceeds. A nil probe (the default) treats every missing client
// as dead. The probe runs with no Tree lock held.
func (t *Tree) SetAliveProbe(probe func(clientID int) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.aliveProbe = probe
}

// SetIdempotent makes duplicate submissions benign: a client resubmitting
// to a collective it already joined (a retry after a dropped connection)
// waits for and receives the collective result instead of an error. The
// first submission's values win. The default (false) keeps strict
// double-submit errors, which catch strategy bugs in-process.
func (t *Tree) SetIdempotent(v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.idempotent = v
}

// SetRoster declares the client ids expected at every barrier of later
// collectives, in any order; ranks are assigned by ascending id.
// Already-evicted ids are ignored until readmitted. It must not be called
// while collectives are in flight.
func (t *Tree) SetRoster(ids []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	roster := make([]int, 0, len(ids))
	for _, id := range ids {
		if !t.evicted[id] {
			roster = append(roster, id)
		}
	}
	sortInts(roster)
	t.roster = slices.Compact(roster)
}

// BeginRound declares the active round's participation quorum: only listed
// clients' submissions contribute to averages (everyone still synchronizes
// and receives results). It also drops every collective of earlier rounds
// and stops their deadline timers; waiters still inside one keep their own
// pointer to it. A checkpoint restore may legitimately replay an earlier
// round index, so every collective is dropped, not just older rounds.
func (t *Tree) BeginRound(round int, participants []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.participants)
	for _, id := range participants {
		t.participants[id] = true
	}
	for k, c := range t.cols {
		if c.timer != nil {
			c.timer.Stop()
		}
		delete(t.cols, k)
	}
}

// Readmit clears a client's evicted status (a rejoin after reconnecting).
// It does NOT edit the current roster: the readmitted id re-enters at the
// next SetRoster that lists it. Until then, its submissions to a one-leaf
// collective count as stray contributions, and a multi-leaf tree rejects
// them. Injecting the id straight into the active roster would make later
// barriers wait for a client the caller's roster never listed.
func (t *Tree) Readmit(clientID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.evicted, clientID)
}

// Evicted returns the currently evicted client ids in ascending order.
func (t *Tree) Evicted() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.evicted))
	for id := range t.evicted {
		out = append(out, id)
	}
	sortInts(out)
	return out
}

// EvictionCount returns the cumulative number of client evictions.
func (t *Tree) EvictionCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evictions
}

// TimeoutCount returns the cumulative number of collectives closed by
// deadline expiry.
func (t *Tree) TimeoutCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.timeouts
}

// TierStats is the per-tree telemetry snapshot surfaced in RoundStats.
type TierStats struct {
	// Tiers is the number of aggregation tiers (leaves included, root
	// included) of the most recent topology.
	Tiers int
	// LeafFolds counts completed leaf fold batches (one per leaf per
	// collective; a one-leaf collective's leaf is its root, which is not
	// counted).
	LeafFolds int
	// ForwardedPartials counts partial messages sent upward (leaf and mid
	// tiers; the root consumes, never forwards).
	ForwardedPartials int
	// TierEvictions[i] counts, cumulatively, inputs tier i closed without:
	// index 0 is evicted clients, index i>0 is child aggregators that
	// forwarded nothing.
	TierEvictions []int
}

// Stats returns cumulative tree telemetry.
func (t *Tree) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	tiers := 0
	if n := len(t.roster); n > 0 {
		tiers = 1
		if t.fanout > 0 {
			for w := (n + t.fanout - 1) / t.fanout; w > 1; w = (w + t.fanout - 1) / t.fanout {
				tiers++
			}
		}
	}
	return TierStats{
		Tiers:             tiers,
		LeafFolds:         t.leafFolds,
		ForwardedPartials: t.partials,
		TierEvictions:     append([]int(nil), t.tierEvictions...),
	}
}

// AggregateModel implements sparse.Aggregator. values is only read for the
// duration of the call, so callers may reuse the slice immediately after
// return. The returned slice is shared by every waiter of the collective
// and must not be mutated.
func (t *Tree) AggregateModel(clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(context.Background(), clientID, round, "model", values)
}

// AggregateError implements sparse.Aggregator, with the same ownership
// contract as AggregateModel.
func (t *Tree) AggregateError(clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(context.Background(), clientID, round, "error", values)
}

// AggregateModelCtx implements sparse.ContextAggregator: the barrier wait
// aborts with ctx.Err() on cancellation. The submission itself stays
// registered (detached into a pooled copy, so the caller's slice is safe
// to reuse), and the collective still completes for the other clients.
func (t *Tree) AggregateModelCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(ctx, clientID, round, "model", values)
}

// AggregateErrorCtx implements sparse.ContextAggregator.
func (t *Tree) AggregateErrorCtx(ctx context.Context, clientID, round int, values []float64) ([]float64, error) {
	return t.aggregate(ctx, clientID, round, "error", values)
}

// newColLocked builds the tier topology over the current roster. Leaves
// cover aligned fanout-sized rank blocks; each tier above folds fanout
// children until one root remains. Caller holds t.mu.
func (t *Tree) newColLocked(key opKey) *treeCol {
	n := len(t.roster)
	fan := t.fanout
	if fan == 0 {
		fan = max(n, 1)
	}
	c := &treeCol{
		key:     key,
		roster:  t.roster,
		fanout:  fan,
		pending: make(map[int]bool, n),
		submit:  make(map[int]bool, n),
		done:    make(chan struct{}),
	}
	for _, id := range t.roster {
		c.pending[id] = true
	}

	// Tier 0: leaves over rank blocks, each folding the member ids of its
	// block (a subslice of the immutable roster).
	width := max((n+fan-1)/fan, 1)
	leaves := make([]*treeTierNode, width)
	for l := range leaves {
		lo := min(l*fan, n)
		hi := min(lo+fan, n)
		leaves[l] = &treeTierNode{fold: newFoldNode(t.roster[lo:hi], false), index: l, need: hi - lo}
	}
	c.tiers = [][]*treeTierNode{leaves}

	// Tiers above: weighted rank folds over child indexes, until width 1.
	var ranks []int
	if width > 1 {
		ranks = make([]int, fan)
		for i := range ranks {
			ranks[i] = i
		}
	}
	for tier := 1; width > 1; tier++ {
		parentWidth := (width + fan - 1) / fan
		nodes := make([]*treeTierNode, parentWidth)
		for i := range nodes {
			lo := i * fan
			hi := min(lo+fan, width)
			nodes[i] = &treeTierNode{fold: newFoldNode(ranks[:hi-lo], true), tier: tier, index: i, need: hi - lo}
		}
		c.tiers = append(c.tiers, nodes)
		width = parentWidth
	}
	for len(t.tierEvictions) < len(c.tiers) {
		t.tierEvictions = append(t.tierEvictions, 0)
	}
	return c
}

// leafAt maps a roster rank to its leaf node.
func (c *treeCol) leafAt(rank int) *treeTierNode {
	return c.tiers[0][rank/c.fanout]
}

// colLocked returns the collective for key, building it (and arming its
// deadline timer) on first touch. Caller holds t.mu.
func (t *Tree) colLocked(key opKey) *treeCol {
	c, ok := t.cols[key]
	if !ok {
		c = t.newColLocked(key)
		if t.deadline > 0 {
			c.timer = time.AfterFunc(t.deadline, func() { t.expire(c) })
		}
		t.cols[key] = c
	}
	return c
}

func (t *Tree) aggregate(ctx context.Context, clientID, round int, kind string, values []float64) ([]float64, error) {
	t.mu.Lock()
	if t.evicted[clientID] {
		t.mu.Unlock()
		return nil, &EvictedError{ClientID: clientID}
	}
	c := t.colLocked(opKey{round: round, kind: kind})
	rank, inRoster := rankIn(c.roster, clientID)
	if !inRoster && len(c.tiers[0]) > 1 {
		// A stray cannot be ranked into a multi-leaf tree without
		// refolding every tier; only a one-leaf collective folds strays.
		t.mu.Unlock()
		return nil, fmt.Errorf("fl: client %d is outside the roster of a %d-leaf tree (only a one-leaf collective folds stray contributions)", clientID, len(c.tiers[0]))
	}
	if c.submit[clientID] {
		if !t.idempotent {
			t.mu.Unlock()
			return nil, fmt.Errorf("fl: client %d double-submitted %s collective of round %d", clientID, kind, round)
		}
		// Retry after a dropped connection: the first submission is already
		// in the barrier; just wait for (or return) the result.
		t.mu.Unlock()
		return t.wait(ctx, c, nil, -1)
	}
	c.submit[clientID] = true
	delete(c.pending, clientID)
	contributing := values != nil && t.participants[clientID]
	leaf := c.tiers[0][0]
	if inRoster {
		leaf = c.leafAt(rank)
	}
	closed := leaf.done
	t.mu.Unlock()

	detach := -1
	var detachLeaf *treeTierNode
	if !closed {
		// O(model) staging and opportunistic leaf folding, outside t.mu.
		// Roster contributions are staged by reference — the caller stays
		// blocked until the barrier closes, so its slice is stable; an
		// abandoned wait detaches a copy first (see wait).
		if inRoster {
			if p, _ := leaf.fold.stage(clientID, values, contributing); p >= 0 {
				detach, detachLeaf = p, leaf
			}
		} else if contributing {
			// A contributor outside the roster snapshot (readmitted
			// mid-round, or a participant excluded from SetRoster). It
			// counts toward the quorum and the mean, but its id can
			// interleave anywhere in the fold order, so its presence forces
			// completion to refold everything from the retained
			// contributions.
			leaf.fold.addStray(clientID, values, 1)
		}
		t.mu.Lock()
		leaf.subs++
		ready := t.nodeReadyLocked(leaf)
		t.mu.Unlock()
		if ready {
			t.cascade(c, leaf)
		}
	}
	return t.wait(ctx, c, detachLeaf, detach)
}

// nodeReadyLocked marks a node done when its last input resolved,
// returning whether the caller should run its completion. Caller holds
// t.mu.
func (t *Tree) nodeReadyLocked(n *treeTierNode) bool {
	if !n.done && n.subs >= n.need {
		n.done = true
		return true
	}
	return false
}

// cascade completes a finished node outside t.mu and forwards its partial
// upward, continuing as long as completions ripple toward the root.
func (t *Tree) cascade(c *treeCol, node *treeTierNode) {
	for node != nil {
		if node.tier == len(c.tiers)-1 {
			t.mu.Lock()
			up, base := t.upstream, t.upstreamBase
			t.mu.Unlock()
			if up != nil {
				// Subtree mode: the "root" is one aligned block of a larger
				// roster. Forward the raw (sum, weight) partial upward and
				// publish whatever global the upstream hands back.
				sum, weight, err := node.fold.complete(false)
				var global []float64
				if err == nil {
					global, err = up(c.key.round, c.key.kind, base, sum, weight)
				}
				t.finishRoot(c, node, global, err)
				return
			}
			res, _, err := node.fold.complete(true)
			t.finishRoot(c, node, res, err)
			return
		}
		res, weight, err := node.fold.complete(false)
		parent := c.tiers[node.tier+1][node.index/c.fanout]
		childRank := node.index % c.fanout
		forwarded := false
		if err != nil {
			node.failure = err
			parent.fold.stageWeighted(childRank, nil, 0)
		} else if res == nil || weight == 0 {
			parent.fold.stageWeighted(childRank, nil, 0)
		} else {
			parent.fold.stageWeighted(childRank, res, weight)
			forwarded = true
		}

		t.mu.Lock()
		if node.tier == 0 {
			t.leafFolds++
		}
		if forwarded {
			t.partials++
		} else {
			// This input to the parent tier resolved empty.
			t.tierEvictions[node.tier+1]++
		}
		parent.subs++
		ready := t.nodeReadyLocked(parent)
		t.mu.Unlock()
		if !ready {
			return
		}
		node = parent
	}
}

// finishRoot publishes the collective result and wakes every waiter. A
// failure recorded anywhere in the tree wins over the (partial) result;
// the lowest tier, lowest index failure is chosen so the reported error
// does not depend on completion timing.
func (t *Tree) finishRoot(c *treeCol, root *treeTierNode, res []float64, err error) {
	if err != nil {
		root.failure = err
	}
	t.mu.Lock()
	var failure error
	for _, tier := range c.tiers {
		for _, node := range tier {
			if node.failure != nil {
				failure = node.failure
				break
			}
		}
		if failure != nil {
			break
		}
	}
	if failure != nil {
		if root.failure == failure && root.tier > 0 {
			c.failure = fmt.Errorf("fl: tier %d aggregator: %w", root.tier, failure)
		} else {
			c.failure = failure
		}
	} else {
		c.result = res
	}
	c.finished = true
	if c.timer != nil {
		c.timer.Stop()
	}
	t.mu.Unlock()
	close(c.done)
}

// wait blocks until the collective completes or ctx cancels. leaf and
// detach name the caller's reference-staged position (nil, -1 if none):
// on an abandoned wait the contribution is snapshotted into a pooled
// buffer first, because the caller may legally reuse its slice the moment
// this returns while the barrier is still open.
func (t *Tree) wait(ctx context.Context, c *treeCol, leaf *treeTierNode, detach int) ([]float64, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		if leaf != nil && detach >= 0 {
			leaf.fold.detach(detach)
		}
		return nil, ctx.Err()
	}
	if c.failure != nil {
		return nil, c.failure
	}
	return c.result, nil
}

// expire closes a deadline-expired collective: one alive-probe extension,
// then the missing clients are evicted and every affected tier completes
// with what it has. armed is the collective the timer was armed for; a
// firing that outlives it (completed, or dropped by BeginRound — possibly
// replaced by a new collective at the same key) does nothing.
func (t *Tree) expire(armed *treeCol) {
	t.mu.Lock()
	if t.cols[armed.key] != armed || armed.finished || len(armed.pending) == 0 {
		t.mu.Unlock()
		return
	}
	probe := t.aliveProbe
	var missing []int
	if probe != nil && !armed.extended {
		for id := range armed.pending {
			missing = append(missing, id)
		}
	}
	t.mu.Unlock()

	// The probe runs unlocked: flrpc's probe takes the coordinator's lock,
	// which is ordered before t.mu.
	for _, id := range missing {
		if probe(id) {
			t.mu.Lock()
			if t.cols[armed.key] == armed && !armed.finished {
				armed.extended = true
				armed.timer.Reset(t.deadline)
			}
			t.mu.Unlock()
			return
		}
	}

	t.mu.Lock()
	if t.cols[armed.key] != armed || armed.finished || len(armed.pending) == 0 {
		t.mu.Unlock()
		return
	}
	t.timeouts++
	var ready []readyNode
	for id := range armed.pending {
		t.evictLocked(id, &ready)
	}
	t.mu.Unlock()
	// The heavy close-out (drain, scale, waking waiters) runs unlocked.
	for _, r := range ready {
		t.cascade(r.col, r.leaf)
	}
}

// readyNode is a leaf an eviction resolved, for the caller to cascade
// after releasing t.mu.
type readyNode struct {
	col  *treeCol
	leaf *treeTierNode
}

// evictLocked evicts a client once: it leaves the roster of later
// collectives and is resolved without a contribution in every in-flight
// collective still waiting for it, so a dead client cannot stall the
// round's remaining barriers for another deadline. Leaves this completes
// are appended to ready. Caller holds t.mu.
func (t *Tree) evictLocked(clientID int, ready *[]readyNode) {
	if t.evicted[clientID] {
		return
	}
	t.evicted[clientID] = true
	t.evictions++
	t.tierEvictions[0]++
	roster := make([]int, 0, len(t.roster))
	for _, id := range t.roster {
		if id != clientID {
			roster = append(roster, id)
		}
	}
	t.roster = roster
	delete(t.participants, clientID)
	for _, c := range t.cols {
		if c.finished || !c.pending[clientID] {
			continue
		}
		delete(c.pending, clientID)
		rank, _ := rankIn(c.roster, clientID)
		leaf := c.leafAt(rank)
		leaf.fold.skip(clientID)
		leaf.subs++
		if t.nodeReadyLocked(leaf) {
			*ready = append(*ready, readyNode{col: c, leaf: leaf})
		}
	}
}

func sortInts(a []int) {
	// Insertion sort: contributor counts are small (≤ clients per round)
	// and usually nearly sorted.
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
