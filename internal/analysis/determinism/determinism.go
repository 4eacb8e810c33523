// Package determinism guards the bit-reproducibility contract of the
// numeric kernel packages (internal/tensor, internal/nn, internal/sparse)
// and of the experiment harness (internal/exp): the same inputs must
// produce bit-identical outputs regardless of GOMAXPROCS, wall-clock, or
// scheduling — the property tensor/determinism_test.go asserts for
// serial-vs-parallel kernels, exp/sched_test.go asserts for the parallel
// experiment grid, and the property that makes federated experiments
// replayable from a seed. In internal/exp, wall-clock belongs in the
// injected Config.Clock (wired by cmd/fedsu-bench) — direct time.Now in a
// result computation would make runs unreproducible; the deliberate
// exception is Table II's self-timing overhead measurement, suppressed
// in place.
//
// Two classes of nondeterminism are flagged:
//
//   - Environmental inputs in result computation: time.Now/Since/Until,
//     the global math/rand source (rand.New with an explicit seed is
//     deterministic and allowed), runtime.GOMAXPROCS, and runtime.NumCPU.
//
//   - Iteration over a map that feeds a floating-point (or complex)
//     accumulation declared outside the loop: float addition is not
//     associative, so summing in map order produces run-to-run bit drift.
//     Integer accumulation commutes exactly and is not flagged; collecting
//     keys and sorting first is the deterministic idiom for floats (and is
//     not flagged either, since an append into a slice is
//     order-recoverable).
//
// Suppress a deliberate exception with `//lint:allow determinism -- <reason>`.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"fedsu/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag nondeterministic inputs and map-order-dependent accumulation in kernel packages\n\n" +
		"internal/tensor, internal/nn, internal/sparse, internal/sparse/codec, " +
		"internal/fl, and internal/exp must stay bit-deterministic: no wall-clock, no global " +
		"rand, no GOMAXPROCS dependence, and no numeric reduction in map " +
		"iteration order. Experiment wall-clock reporting goes through the " +
		"injected Config.Clock; async staleness is measured in global " +
		"versions, never time.Now.",
	Run: run,
}

// scope is the set of packages under the bit-identity contract.
// internal/fl joined with the buffered-async mode: staleness must be
// measured in global versions (rounds), never wall-clock — a time.Now
// staleness clock would weight contributions by scheduler timing and break
// seed-replay. The engine's legitimate time uses (barrier deadline timers
// via time.AfterFunc, time.Duration config) are not banned names. The
// scope matches exact import paths, so internal/sparse/codec (the seeded
// quant rounding, every wire format) is listed on its own.
var scope = map[string]bool{
	"fedsu/internal/tensor":       true,
	"fedsu/internal/nn":           true,
	"fedsu/internal/sparse":       true,
	"fedsu/internal/sparse/codec": true,
	"fedsu/internal/exp":          true,
	"fedsu/internal/fl":           true,
}

// banned maps package path -> function name -> true for environmental
// inputs that have no place in a deterministic kernel.
var banned = map[string]map[string]bool{
	"time":    {"Now": true, "Since": true, "Until": true},
	"runtime": {"GOMAXPROCS": true, "NumCPU": true},
}

// randConstructors are the math/rand functions that merely build a seeded
// generator and are therefore deterministic.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *analysis.Pass) error {
	if !scope[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, node)
			case *ast.RangeStmt:
				checkMapRange(pass, node)
			}
			return true
		})
	}
	return nil
}

// checkCall flags calls to environmental inputs and to the global
// math/rand source.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Methods (e.g. (*rand.Rand).Float64 on an injected, seeded generator)
	// are fine; only package-level functions read ambient state.
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return
	}
	path := fn.Pkg().Path()
	if names, ok := banned[path]; ok && names[fn.Name()] {
		pass.Reportf(call.Pos(), "call to %s.%s in deterministic kernel package %s breaks bit-reproducibility",
			path, fn.Name(), pass.Pkg.Name())
		return
	}
	if path == "math/rand" && !randConstructors[fn.Name()] {
		pass.Reportf(call.Pos(), "call to the global math/rand source (rand.%s) in deterministic kernel package %s; inject a seeded *rand.Rand",
			fn.Name(), pass.Pkg.Name())
	}
}

// checkMapRange flags inexact-numeric accumulation into loop-external
// state inside a range over a map.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
					// Plain writes are only order-dependent when they fold the
					// previous value back in (sum = sum + v); require the LHS
					// to be numeric AND read on the RHS.
					if !isNumeric(pass, lhs) || !readsLHS(pass, st, lhs) {
						continue
					}
				} else if !isNumeric(pass, lhs) {
					// Compound assignment (+=, *=, ...): numeric only — string
					// concatenation etc. is caught by review, not this check.
					continue
				}
				if obj := rootObj(pass, lhs); obj != nil && obj.Pos() < rng.Pos() {
					pass.Reportf(st.Pos(), "numeric accumulation into %q inside map iteration is order-dependent; iterate sorted keys",
						obj.Name())
				}
			}
		case *ast.IncDecStmt:
			if obj := rootObj(pass, st.X); obj != nil && obj.Pos() < rng.Pos() && isNumeric(pass, st.X) {
				pass.Reportf(st.Pos(), "numeric accumulation into %q inside map iteration is order-dependent; iterate sorted keys",
					obj.Name())
			}
		}
		return true
	})
}

// isNumeric reports whether expr has an order-sensitive numeric basic type
// (floats and complex; integer accumulation commutes bit-exactly).
func isNumeric(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&(types.IsFloat|types.IsComplex) != 0
}

// readsLHS reports whether the assignment's RHS mentions the LHS
// expression's root variable.
func readsLHS(pass *analysis.Pass, st *ast.AssignStmt, lhs ast.Expr) bool {
	obj := rootObj(pass, lhs)
	if obj == nil {
		return false
	}
	for _, rhs := range st.Rhs {
		found := false
		ast.Inspect(rhs, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// rootObj resolves the base variable of an lvalue expression
// (x, x.f, x[i], *x → x).
func rootObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(e)
			if _, ok := obj.(*types.Var); ok {
				return obj
			}
			return nil
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
