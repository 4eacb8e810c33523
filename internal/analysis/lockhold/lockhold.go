// Package lockhold checks that no blocking operation happens while a
// sync.Mutex or sync.RWMutex is held, inside the concurrency-critical
// packages internal/fl, internal/flrpc, internal/exp, and internal/par.
// It machine-checks the PR 4 aggregation contract — contributions are
// staged under fl.Tree.mu but folded OUTSIDE it (and outside the node fold
// lock wherever possible), so a slow fold can never serialize unrelated
// collectives — and the transport rule that RPC I/O never runs under a
// client or coordinator mutex.
//
// Blocking operations are: channel sends and receives, select statements
// without a default clause, ranging over a channel, sync.WaitGroup.Wait,
// the par compute rendezvous (par.AcquireToken, par.Parallelize,
// par.ParallelizeGrain), and network I/O (net dials/listens/accepts and
// net/rpc calls). sync.Cond.Wait is exempt: it releases the associated
// lock while parked, which is its whole design.
//
// The analysis is an intra-procedural may-analysis over the cfg package's
// control-flow graph: a lock counts as held on a path if some branch into
// it locked without unlocking, `defer mu.Unlock()` holds the lock to
// function exit (so everything after the defer is "under the lock"), and
// TryLock is treated as acquired. Locks held by a CALLER are invisible —
// the *Locked-suffix helpers (drainLocked, foldBatchLocked, ...) document
// that convention and are checked at their locking call sites instead.
//
// Sanctioned violations carry `//lint:allow lockhold -- <reason>`. The
// canonical one is the leaf-level fold lock: par dispatch under foldMu is
// safe because Parallelize falls back to inline execution when the pool is
// saturated and its workers never take project locks, so the rendezvous
// cannot wait on another foldMu holder.
package lockhold

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"fedsu/internal/analysis"
	"fedsu/internal/analysis/cfg"
)

// Analyzer is the lockhold check.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "forbid blocking operations (channel ops, par rendezvous, net/rpc I/O, Wait) while a mutex is held\n\n" +
		"Scoped to internal/fl, internal/flrpc, internal/exp, internal/par. " +
		"Encodes the fold-outside-the-server-mutex aggregation contract and " +
		"the no-RPC-under-lock transport rule; annotate a sanctioned site " +
		"with //lint:allow lockhold -- <reason>.",
	Run: run,
}

// scope is the set of packages the contract governs.
var scope = map[string]bool{
	"fedsu/internal/fl":    true,
	"fedsu/internal/flrpc": true,
	"fedsu/internal/exp":   true,
	"fedsu/internal/par":   true,
}

// parBlocking is the set of fedsu/internal/par functions that rendezvous
// with the worker pool or the token budget.
var parBlocking = map[string]bool{
	"AcquireToken":     true,
	"Parallelize":      true,
	"ParallelizeGrain": true,
}

// netBlocking is the set of network I/O names (functions and methods of
// the net and net/rpc packages) treated as blocking.
var netBlocking = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true, "Listen": true,
	"Accept": true, "Call": true, "Serve": true, "ServeConn": true,
	"Read": true, "Write": true,
}

func run(pass *analysis.Pass) error {
	if !scope[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				check(pass, body)
			}
			return true
		})
	}
	return nil
}

// held is one acquired lock: where, and the source text naming it.
type held struct {
	pos  token.Pos
	text string
}

// lockset maps lock identities (root object pointer + field path) to
// their acquisition.
type lockset map[string]held

func (ls lockset) clone() lockset {
	c := make(lockset, len(ls))
	for k, v := range ls {
		c[k] = v
	}
	return c
}

func check(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass}
	g := cfg.Build(body)
	lat := cfg.Lattice[lockset]{
		Transfer: func(b *cfg.Block, in lockset) lockset { return c.scan(g, b, in, false) },
		Join: func(a, b lockset) lockset {
			// May-held union, keeping the earliest acquisition for messages.
			m := a.clone()
			for k, v := range b {
				if cur, ok := m[k]; !ok || v.pos < cur.pos {
					m[k] = v
				}
			}
			return m
		},
		Equal: func(a, b lockset) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if _, ok := b[k]; !ok {
					return false
				}
			}
			return true
		},
	}
	entries := cfg.Forward(g, lockset{}, lat)
	// Reporting pass: one diagnostic per offending node, from the fixpoint
	// entry states (the silent fixpoint may visit a block many times).
	for _, b := range g.Blocks {
		if in, ok := entries[b]; ok {
			c.scan(g, b, in, true)
		}
	}
}

type checker struct {
	pass *analysis.Pass
}

// scan interprets one block: lock operations update the set, blocking
// operations are (optionally) reported against it.
func (c *checker) scan(g *cfg.Graph, b *cfg.Block, in lockset, report bool) lockset {
	ls := in.clone()
	for _, n := range b.Nodes {
		// A comm statement's channel operation is performed by its select's
		// marker node, which already accounts for blocking (per default
		// clause); do not double-count it here.
		comm := false
		if st, ok := n.(ast.Stmt); ok && g.SelectComm[st] {
			comm = true
		}
		cfg.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				// Deferred calls run at exit. A deferred Unlock keeps the
				// lock held for the rest of the function — the desired
				// semantics — and a deferred blocking call runs after the
				// body, out of scope for this pass.
				return false
			case *ast.GoStmt:
				// Launching a goroutine does not block the launcher; the
				// goroutine's body is its own function, checked separately.
				return false
			case *ast.SelectStmt:
				if !cfg.HasDefault(m) {
					c.blocking(m.Pos(), "select with no default clause", ls, report)
				}
			case *ast.RangeStmt:
				if isChan(c.pass.TypesInfo.TypeOf(m.X)) {
					c.blocking(m.Pos(), "range over a channel", ls, report)
				}
			case *ast.SendStmt:
				if !comm {
					c.blocking(m.Arrow, "channel send", ls, report)
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !comm {
					c.blocking(m.Pos(), "channel receive", ls, report)
				}
			case *ast.CallExpr:
				c.call(m, ls, report)
			}
			return true
		})
	}
	return ls
}

// call classifies one call: a lock/unlock updates the set, a blocking
// callee is reported.
func (c *checker) call(call *ast.CallExpr, ls lockset, report bool) {
	fn := analysis.CalledFunc(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	name := fn.Name()
	switch {
	case isMutexMethod(fn):
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		key, text, ok := lockKey(c.pass.TypesInfo, sel.X)
		if !ok {
			return
		}
		switch name {
		case "Lock", "RLock", "TryLock", "TryRLock":
			ls[key] = held{pos: call.Pos(), text: text}
		case "Unlock", "RUnlock":
			delete(ls, key)
		}
	case fn.Pkg().Path() == "sync" && recvNamed(fn) == "WaitGroup" && name == "Wait":
		c.blocking(call.Pos(), "WaitGroup.Wait", ls, report)
	case fn.Pkg().Path() == "fedsu/internal/par" && parBlocking[name]:
		c.blocking(call.Pos(), "par."+name, ls, report)
	case (fn.Pkg().Path() == "net" || fn.Pkg().Path() == "net/rpc") && netBlocking[name]:
		c.blocking(call.Pos(), fn.Pkg().Name()+" "+name+" I/O", ls, report)
	}
}

func (c *checker) blocking(pos token.Pos, what string, ls lockset, report bool) {
	if !report || len(ls) == 0 {
		return
	}
	// Deterministic order when several locks are held.
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return ls[keys[i]].pos < ls[keys[j]].pos })
	for _, k := range keys {
		h := ls[k]
		c.pass.Reportf(pos, "blocking %s while %q is held (locked at line %d); release the lock first or annotate the sanctioned rendezvous",
			what, h.text, c.pass.Fset.Position(h.pos).Line)
	}
}

// isMutexMethod reports whether fn is a method of sync.Mutex or
// sync.RWMutex (sync.Cond is deliberately not matched).
func isMutexMethod(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	n := recvNamed(fn)
	return n == "Mutex" || n == "RWMutex"
}

// recvNamed returns the name of fn's receiver's (pointer-stripped) named
// type, or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// lockKey computes a function-local identity for the lock named by the
// receiver expression (an identifier or a selector chain rooted at one):
// the root variable's object plus the field path. Receivers too dynamic to
// name (map/slice elements, call results) are not tracked.
func lockKey(info *types.Info, e ast.Expr) (key, text string, ok bool) {
	var path []string
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			path = append(path, x.Sel.Name)
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if obj == nil {
				return "", "", false
			}
			// Reverse the path (collected inner-out).
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			suffix := strings.Join(path, ".")
			key = fmt.Sprintf("%p", obj)
			text = x.Name
			if suffix != "" {
				key += "." + suffix
				text += "." + suffix
			}
			return key, text, true
		default:
			return "", "", false
		}
	}
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
