package tensor

import (
	"fmt"

	"fedsu/internal/par"
)

// The matmul kernels are register-blocked (tileRows output rows share each
// streamed row of B), parallelized over the par pool, and instantiated per
// element width via the Elem type parameter: the public entry points
// dispatch once on the operands' dtype and the compiler stencils a separate
// loop body for float32 and float64, so both widths keep their accumulators
// in registers. Three properties are load-bearing for the rest of the stack:
//
//   - Bit-determinism: every output element is accumulated in a fixed order
//     (p = 0..k-1) and the tileRows block decomposition is anchored at
//     absolute row indices (par.ParallelizeGrain keeps chunk boundaries
//     tile-aligned), so results are bitwise identical at every worker count,
//     including the serial fallback — at both precisions.
//   - No hidden allocation: the *Into and *Acc variants write caller-owned
//     storage, which the nn layers draw from the scratch arena.
//   - Accumulator width = storage width: each dot product sums k terms into
//     an E-typed register (standard practice for f32 GEMM — per-element
//     error is O(√k)·ulp on random data, dominated by the f32 storage
//     rounding itself, while widening the eight-way register tile to f64
//     would double its register pressure and halve the bandwidth win).
//     O(n)-term statistics reductions elsewhere (loss, norms, batchnorm
//     moments) do widen to float64; see tensor.Sum and the nn layer notes.
//
// Small products fall back to the serial kernel so eval-scale tensors do
// not pay goroutine handoff; the cutoff is tunable for tests via
// SetParallelCutoff.

// tileRows is the register-block height: that many output rows accumulate
// against each streamed row of B, quartering B's memory traffic.
const tileRows = 4

// tileK and tileJ bound the B panel (tileK×tileJ elements = 512 KiB at
// float64, 256 KiB at float32) that the cache-blocked kernels keep hot in
// L2 while all row tiles accumulate against it. Tiling only reorders *which
// element* is updated next, never the p-order of updates to a single
// element, so it preserves bit-identical results.
const (
	tileK = 128
	tileJ = 512
)

// parallelCutoff is the minimum work size (multiply-adds for matmul,
// elements moved for im2col/col2im) that engages the worker pool.
var parallelCutoff int64 = 1 << 18

// SetParallelCutoff overrides the serial-fallback threshold and returns the
// previous value. It exists so tests can force tiny tensors through the
// parallel path; production code should leave the default.
func SetParallelCutoff(v int64) (prev int64) {
	prev = parallelCutoff
	parallelCutoff = v
	return prev
}

func parallelWorthwhile(work int64) bool {
	return par.Workers() > 1 && work >= parallelCutoff
}

// MatMul computes C = A × B for 2-D tensors A (m×k) and B (k×n), returning a
// new m×n tensor of the operands' dtype.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	checkSameDType("MatMul", a, b)
	c := NewOf(a.dt, m, n)
	if a.dt == Float32 {
		matmul(c.data32, a.data32, b.data32, m, k, n, false)
	} else {
		matmul(c.data, a.data, b.data, m, k, n, false)
	}
	return c
}

// MatMulInto computes dst = A × B, fully overwriting dst's storage (prior
// contents, including NaNs from the scratch arena, are ignored). dst must be
// m×n.
func MatMulInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulInto", dst, a, b)
	if dst.dt == Float32 {
		matmul(dst.data32, a.data32, b.data32, m, k, n, false)
	} else {
		matmul(dst.data, a.data, b.data, m, k, n, false)
	}
}

// MatMulAcc computes dst += A × B without materializing the product,
// accumulating each element's contributions in the fixed p = 0..k-1 order
// (serial and parallel paths agree bitwise, like every kernel here).
func MatMulAcc(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulAcc shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulAcc", dst, a, b)
	if dst.dt == Float32 {
		matmul(dst.data32, a.data32, b.data32, m, k, n, true)
	} else {
		matmul(dst.data, a.data, b.data, m, k, n, true)
	}
}

// packCutoff is the work size (multiply-adds) above which MatMul packs Bᵀ
// into an arena buffer and runs the store-free dot kernel; the O(k·n) pack
// cost is noise there. Below it the in-place accumulate kernel wins.
const packCutoff = 1 << 15

func matmul[E Elem](c, a, b []E, m, k, n int, acc bool) {
	if !packs(m, k, n) {
		matmulBlock(c, a, b, 0, m, 0, n, k, n, acc)
		return
	}
	// Pack Bᵀ so every output element is a contiguous dot product: the
	// inner loop carries its sum in registers (no store per element), which
	// on scalar Go code roughly doubles throughput over the accumulate
	// kernel. Element values are unchanged bit-for-bit: both forms apply
	// the identical sequence of rounded multiply-adds in p order.
	bts := GetScratchOf(dtypeOf[E](), n*k)
	bt := DataOf[E](bts)
	transposeInto(bt, b, k, n)
	matmulPacked(c, a, bt, m, k, n, acc)
	PutScratch(bts)
}

// packs reports whether matmul runs an m×k by k×n product on the packed
// dot kernel (rather than the in-place accumulate kernel).
func packs(m, k, n int) bool { return int64(m)*int64(k)*int64(n) >= packCutoff }

// matmulPacked runs the dot kernel over a packed (n×k) Bᵀ, over the worker
// pool when the product is large enough.
func matmulPacked[E Elem](c, a, bt []E, m, k, n int, acc bool) {
	if parallelWorthwhile(int64(m) * int64(k) * int64(n)) {
		par.ParallelizeGrain(m, tileRows, func(lo, hi int) {
			matmulPackedRows(c, a, bt, lo, hi, k, n, acc)
		})
		return
	}
	matmulPackedRows(c, a, bt, 0, m, k, n, acc)
}

// transposeInto writes the r×c matrix src into dst column-major (dst is
// c×r). Pure data movement — layout only.
func transposeInto[E Elem](dst, src []E, r, c int) {
	if parallelWorthwhile(int64(r) * int64(c) * 8) {
		par.ParallelizeGrain(c, transposeStrip, func(lo, hi int) {
			transposeStrips(dst, src, r, c, lo, hi)
		})
		return
	}
	transposeStrips(dst, src, r, c, 0, c)
}

// transposeStrip is the column-strip width of transposeStrips: one cache
// line of float64.
const transposeStrip = 8

// transposeStrips transposes source columns [jLo, jHi) a strip of eight
// at a time: it walks the r rows once, reading eight adjacent elements of
// each and dropping them into the strip's eight destination rows, a
// contiguous 8·r block. Every source line is read once, whole (a full line
// at float64, half of one at float32).
//
// A square-tiled transpose instead walks each tile column down r rows and
// reads every source line eight times, one column at a time. It needs the
// tile's rows resident between those reads, and when the row stride is a
// multiple of 4 KiB all of them map to one L1 set and evict each other,
// as in the paper CNN's im2col matrices at the train-cnn shape (25×9216
// and 100×1024). The strips measured about 2× faster at both shapes
// (DESIGN.md §5c).
func transposeStrips[E Elem](dst, src []E, r, c, jLo, jHi int) {
	j := jLo
	for ; j+transposeStrip <= jHi; j += transposeStrip {
		d := dst[j*r : (j+transposeStrip)*r]
		d0, d1, d2, d3 := d[0*r:1*r], d[1*r:2*r], d[2*r:3*r], d[3*r:4*r]
		d4, d5, d6, d7 := d[4*r:5*r], d[5*r:6*r], d[6*r:7*r], d[7*r:8*r]
		for i := 0; i < r; i++ {
			s := src[i*c+j : i*c+j+transposeStrip]
			d0[i], d1[i], d2[i], d3[i] = s[0], s[1], s[2], s[3]
			d4[i], d5[i], d6[i], d7[i] = s[4], s[5], s[6], s[7]
		}
	}
	for ; j < jHi; j++ {
		dj := dst[j*r : (j+1)*r]
		for i := range dj {
			dj[i] = src[i*c+j]
		}
	}
}

// matmulPackedRows computes output rows [lo, hi) against the packed (n×k)
// Bᵀ: each element is one contiguous dot product accumulated in registers,
// with a 4-column register tile sharing every streamed A row. Elements are
// independent ordered reductions, so any chunking yields identical bits.
// Accumulators are E-typed (storage width) — see the file comment.
func matmulPackedRows[E Elem](c, a, bt []E, lo, hi, k, n int, acc bool) {
	// 4×2 register tile: four A rows share every streamed Bᵀ row, so the
	// packed matrix is pulled through the cache hierarchy once per four
	// output rows instead of once per row. Each of the eight sums is still
	// an independent ordered dot product — tiling changes nothing bitwise.
	i := lo
	for ; i+tileRows <= hi; i += tileRows {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		j := 0
		for ; j+2 <= n; j += 2 {
			bA := bt[(j+0)*k:][:len(a0)]
			bB := bt[(j+1)*k:][:len(a0)]
			var s00, s01, s10, s11, s20, s21, s30, s31 E
			for p, bv0 := range bA {
				bv1 := bB[p]
				v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
				s00 += v0 * bv0
				s01 += v0 * bv1
				s10 += v1 * bv0
				s11 += v1 * bv1
				s20 += v2 * bv0
				s21 += v2 * bv1
				s30 += v3 * bv0
				s31 += v3 * bv1
			}
			if acc {
				c[(i+0)*n+j] += s00
				c[(i+0)*n+j+1] += s01
				c[(i+1)*n+j] += s10
				c[(i+1)*n+j+1] += s11
				c[(i+2)*n+j] += s20
				c[(i+2)*n+j+1] += s21
				c[(i+3)*n+j] += s30
				c[(i+3)*n+j+1] += s31
			} else {
				c[(i+0)*n+j], c[(i+0)*n+j+1] = s00, s01
				c[(i+1)*n+j], c[(i+1)*n+j+1] = s10, s11
				c[(i+2)*n+j], c[(i+2)*n+j+1] = s20, s21
				c[(i+3)*n+j], c[(i+3)*n+j+1] = s30, s31
			}
		}
		for ; j < n; j++ {
			bj := bt[j*k:][:len(a0)]
			var s0, s1, s2, s3 E
			for p, bv := range bj {
				s0 += a0[p] * bv
				s1 += a1[p] * bv
				s2 += a2[p] * bv
				s3 += a3[p] * bv
			}
			if acc {
				c[(i+0)*n+j] += s0
				c[(i+1)*n+j] += s1
				c[(i+2)*n+j] += s2
				c[(i+3)*n+j] += s3
			} else {
				c[(i+0)*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = s0, s1, s2, s3
			}
		}
	}
	for ; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		ci := c[i*n : (i+1)*n]
		j := 0
		for ; j+tileRows <= n; j += tileRows {
			// Re-slicing to len(ai) lets the compiler drop the four inner
			// bounds checks.
			b0 := bt[(j+0)*k:][:len(ai)]
			b1 := bt[(j+1)*k:][:len(ai)]
			b2 := bt[(j+2)*k:][:len(ai)]
			b3 := bt[(j+3)*k:][:len(ai)]
			var s0, s1, s2, s3 E
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if acc {
				ci[j] += s0
				ci[j+1] += s1
				ci[j+2] += s2
				ci[j+3] += s3
			} else {
				ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < n; j++ {
			bj := bt[j*k:][:len(ai)]
			var s E
			for p, av := range ai {
				s += av * bj[p]
			}
			if acc {
				ci[j] += s
			} else {
				ci[j] = s
			}
		}
	}
}

// matmulBlock computes the output block rows [iLo, iHi) × cols [jLo, jHi),
// overwriting it (or accumulating onto it when acc is set). The row range
// is processed in absolute tileRows register tiles (row chunks arrive
// tile-aligned from ParallelizeGrain except the final tail) and the k/j
// dimensions in tileK×tileJ cache panels, so every element accumulates its
// k products in exactly the order p = 0..k-1 regardless of chunking or
// panel boundaries.
func matmulBlock[E Elem](c, a, b []E, iLo, iHi, jLo, jHi, k, n int, acc bool) {
	if !acc {
		for i := iLo; i < iHi; i++ {
			row := c[i*n+jLo : i*n+jHi]
			for j := range row {
				row[j] = 0
			}
		}
	}
	for jc := jLo; jc < jHi; jc += tileJ {
		jcHi := jc + tileJ
		if jcHi > jHi {
			jcHi = jHi
		}
		for pc := 0; pc < k; pc += tileK {
			pcHi := pc + tileK
			if pcHi > k {
				pcHi = k
			}
			i := iLo
			for ; i+tileRows <= iHi; i += tileRows {
				c0 := c[(i+0)*n+jc : (i+0)*n+jcHi]
				c1 := c[(i+1)*n+jc : (i+1)*n+jcHi]
				c2 := c[(i+2)*n+jc : (i+2)*n+jcHi]
				c3 := c[(i+3)*n+jc : (i+3)*n+jcHi]
				a0 := a[(i+0)*k : (i+1)*k]
				a1 := a[(i+1)*k : (i+2)*k]
				a2 := a[(i+2)*k : (i+3)*k]
				a3 := a[(i+3)*k : (i+4)*k]
				for p := pc; p < pcHi; p++ {
					v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
					if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
						continue
					}
					bp := b[p*n+jc : p*n+jcHi]
					for j, bv := range bp {
						c0[j] += v0 * bv
						c1[j] += v1 * bv
						c2[j] += v2 * bv
						c3[j] += v3 * bv
					}
				}
			}
			for ; i < iHi; i++ {
				ci := c[i*n+jc : i*n+jcHi]
				ai := a[i*k : (i+1)*k]
				for p := pc; p < pcHi; p++ {
					av := ai[p]
					if av == 0 {
						continue
					}
					bp := b[p*n+jc : p*n+jcHi]
					for j, bv := range bp {
						ci[j] += av * bv
					}
				}
			}
		}
	}
}

func checkTransA(a, b *Tensor) (k, m, n int) {
	k, m = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	return k, m, n
}

// MatMulTransA computes C = Aᵀ × B where A is k×m and B is k×n, yielding
// m×n without materializing the transpose.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := checkTransA(a, b)
	checkSameDType("MatMulTransA", a, b)
	c := NewOf(a.dt, m, n)
	if a.dt == Float32 {
		matmulTransA(c.data32, a.data32, b.data32, k, m, n, false)
	} else {
		matmulTransA(c.data, a.data, b.data, k, m, n, false)
	}
	return c
}

// MatMulTransAInto computes dst = Aᵀ × B, fully overwriting dst (m×n).
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m, n := checkTransA(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransAInto", dst, a, b)
	if dst.dt == Float32 {
		matmulTransA(dst.data32, a.data32, b.data32, k, m, n, false)
	} else {
		matmulTransA(dst.data, a.data, b.data, k, m, n, false)
	}
}

// MatMulTransAAcc computes dst += Aᵀ × B, the gradient-accumulation
// primitive (dW += xᵀ·grad) that avoids a temporary plus an Add pass.
func MatMulTransAAcc(dst, a, b *Tensor) {
	k, m, n := checkTransA(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransAAcc", dst, a, b)
	if dst.dt == Float32 {
		matmulTransA(dst.data32, a.data32, b.data32, k, m, n, true)
	} else {
		matmulTransA(dst.data, a.data, b.data, k, m, n, true)
	}
}

func matmulTransA[E Elem](c, a, b []E, k, m, n int, acc bool) {
	if parallelWorthwhile(int64(m) * int64(k) * int64(n)) {
		// Split over output columns: every worker walks the full p loop, so
		// each element still accumulates in p order regardless of chunking.
		par.Parallelize(n, func(jlo, jhi int) {
			matmulTransACols(c, a, b, k, m, n, jlo, jhi, acc)
		})
		return
	}
	matmulTransACols(c, a, b, k, m, n, 0, n, acc)
}

// matmulTransACols computes output columns [jlo, jhi). The p loop streams
// rows of A and B while tileRows rows of C share each B row slab; the
// column range is processed in panels sized so the touched C panel
// (m × panel) stays cache-resident across all k passes. The i-tile
// decomposition covers the full row range in every worker and panels only
// reorder whole-element groups, so results are chunk-invariant. This kernel
// accumulates directly into C at storage width: each element receives its k
// contributions in p order, matching the dot-kernel rounding sequence
// exactly, so both code paths agree bitwise per precision.
func matmulTransACols[E Elem](c, a, b []E, k, m, n, jlo, jhi int, acc bool) {
	if !acc {
		for i := 0; i < m; i++ {
			row := c[i*n+jlo : i*n+jhi]
			for j := range row {
				row[j] = 0
			}
		}
	}
	// C panel budget: tileK*tileJ elements (512 KiB at float64), spread over
	// m rows.
	panel := tileK * tileJ / m
	if panel < 32 {
		panel = 32
	}
	if panel > tileJ {
		panel = tileJ
	}
	for jc := jlo; jc < jhi; jc += panel {
		jcHi := jc + panel
		if jcHi > jhi {
			jcHi = jhi
		}
		w := jcHi - jc
		for p := 0; p < k; p++ {
			ap := a[p*m : (p+1)*m]
			bp := b[p*n+jc : p*n+jcHi]
			i := 0
			for ; i+tileRows <= m; i += tileRows {
				v0, v1, v2, v3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
				if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
					continue
				}
				c0 := c[(i+0)*n+jc : (i+0)*n+jc+w]
				c1 := c[(i+1)*n+jc : (i+1)*n+jc+w]
				c2 := c[(i+2)*n+jc : (i+2)*n+jc+w]
				c3 := c[(i+3)*n+jc : (i+3)*n+jc+w]
				for j, bv := range bp {
					c0[j] += v0 * bv
					c1[j] += v1 * bv
					c2[j] += v2 * bv
					c3[j] += v3 * bv
				}
			}
			for ; i < m; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				ci := c[i*n+jc : i*n+jc+w]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}

func checkTransB(a, b *Tensor) (m, k, n int) {
	m, k = a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	return m, k, n
}

// MatMulTransB computes C = A × Bᵀ where A is m×k and B is n×k, yielding m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := checkTransB(a, b)
	checkSameDType("MatMulTransB", a, b)
	c := NewOf(a.dt, m, n)
	if a.dt == Float32 {
		matmulTransB(c.data32, a.data32, b.data32, m, k, n, false)
	} else {
		matmulTransB(c.data, a.data, b.data, m, k, n, false)
	}
	return c
}

// MatMulTransBInto computes dst = A × Bᵀ, fully overwriting dst (m×n).
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := checkTransB(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransBInto", dst, a, b)
	if dst.dt == Float32 {
		matmulTransB(dst.data32, a.data32, b.data32, m, k, n, false)
	} else {
		matmulTransB(dst.data, a.data, b.data, m, k, n, false)
	}
}

// MatMulTransBAcc computes dst += A × Bᵀ. Each element's dot product is
// formed in a private accumulator and added to dst once, matching the
// compute-then-Add semantics of the unfused path bit-for-bit.
func MatMulTransBAcc(dst, a, b *Tensor) {
	m, k, n := checkTransB(a, b)
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBAcc shape mismatch dst=%v a=%v b=%v", dst.shape, a.shape, b.shape))
	}
	checkSameDType("MatMulTransBAcc", dst, a, b)
	if dst.dt == Float32 {
		matmulTransB(dst.data32, a.data32, b.data32, m, k, n, true)
	} else {
		matmulTransB(dst.data, a.data, b.data, m, k, n, true)
	}
}

// matmulTransB runs the shared dot kernel directly: B stored n×k is already
// the packed-Bᵀ layout matmulPackedRows wants.
func matmulTransB[E Elem](c, a, b []E, m, k, n int, acc bool) {
	if parallelWorthwhile(int64(m) * int64(k) * int64(n)) {
		par.Parallelize(m, func(lo, hi int) {
			matmulPackedRows(c, a, b, lo, hi, k, n, acc)
		})
		return
	}
	matmulPackedRows(c, a, b, 0, m, k, n, acc)
}
