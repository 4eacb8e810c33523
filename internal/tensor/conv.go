package tensor

import (
	"fmt"

	"fedsu/internal/par"
)

// ConvParams describes a 2-D convolution or pooling geometry over NCHW
// tensors.
type ConvParams struct {
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
}

// OutSize returns the output spatial size for an input of h×w.
func (p ConvParams) OutSize(h, w int) (oh, ow int) {
	oh = (h+2*p.PadH-p.KernelH)/p.StrideH + 1
	ow = (w+2*p.PadW-p.KernelW)/p.StrideW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields non-positive output for input %dx%d", p, h, w))
	}
	return oh, ow
}

// validRange returns the [lo, hi] output-coordinate range (inclusive) for
// which o*stride + k - pad lands inside [0, n), clamped to [0, out-1].
// hi < lo means the range is empty.
func validRange(k, pad, stride, n, out int) (lo, hi int) {
	// o*stride + k - pad >= 0  →  o >= ceil((pad-k)/stride)
	lo = divCeil(pad-k, stride)
	if lo < 0 {
		lo = 0
	}
	// o*stride + k - pad <= n-1  →  o <= floor((n-1+pad-k)/stride)
	hi = divFloor(n-1+pad-k, stride)
	if hi > out-1 {
		hi = out - 1
	}
	return lo, hi
}

func divFloor(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func divCeil(a, b int) int { return -divFloor(-a, b) }

// Im2Col unrolls an NCHW input tensor into a matrix of shape
// (C*KH*KW) × (N*OH*OW) so convolution becomes a single MatMul. This is the
// standard lowering used by CPU deep-learning stacks.
func Im2Col(x *Tensor, p ConvParams) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	out := NewOf(x.dt, c*p.KernelH*p.KernelW, n*oh*ow)
	Im2ColInto(out, x, p)
	return out
}

// Im2ColInto is Im2Col writing into caller-owned storage; dst must be
// (C*KH*KW) × (N*OH*OW) and is fully overwritten (scratch-arena tensors need
// no pre-zeroing). Output rows are independent, so the row loop parallelizes
// over the worker pool with results identical to the serial path. Each
// kernel tap's valid output range is precomputed so the hot loop is a
// contiguous copy (stride 1) or a branch-free strided gather.
func Im2ColInto(dst, x *Tensor, p ConvParams) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, w)
	rows := c * p.KernelH * p.KernelW
	cols := n * oh * ow
	if dst.shape[0] != rows || dst.shape[1] != cols {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want %dx%d", dst.shape, rows, cols))
	}
	checkSameDType("Im2ColInto", dst, x)
	if dst.dt == Float32 {
		im2colDispatch(dst.data32, x.data32, p, n, c, h, w, oh, ow, rows, cols)
	} else {
		im2colDispatch(dst.data, x.data, p, n, c, h, w, oh, ow, rows, cols)
	}
}

// im2colDispatch engages the worker pool when the unroll is large enough;
// rows write disjoint slabs, so chunking is bit-deterministic at both
// element widths.
func im2colDispatch[E Elem](od, xd []E, p ConvParams, n, c, h, w, oh, ow, rows, cols int) {
	if parallelWorthwhile(int64(rows) * int64(cols)) {
		par.Parallelize(rows, func(lo, hi int) {
			im2colRows(od, xd, p, n, c, h, w, oh, ow, lo, hi)
		})
		return
	}
	im2colRows(od, xd, p, n, c, h, w, oh, ow, 0, rows)
}

// im2colRows fills output rows [rLo, rHi); row index r decodes to the
// (channel, kernel-tap) pair r = (ci*KH + kh)*KW + kw. Rows write disjoint
// slabs, so any chunking is race-free and bit-deterministic.
func im2colRows[E Elem](od, xd []E, p ConvParams, n, c, h, w, oh, ow, rLo, rHi int) {
	cols := n * oh * ow
	for row := rLo; row < rHi; row++ {
		kw := row % p.KernelW
		kh := (row / p.KernelW) % p.KernelH
		ci := row / (p.KernelW * p.KernelH)
		oyLo, oyHi := validRange(kh, p.PadH, p.StrideH, h, oh)
		oxLo, oxHi := validRange(kw, p.PadW, p.StrideW, w, ow)
		dst := od[row*cols : (row+1)*cols]
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				dstRow := dst[(ni*oh+oy)*ow : (ni*oh+oy+1)*ow]
				if oy < oyLo || oy > oyHi || oxLo > oxHi {
					for j := range dstRow {
						dstRow[j] = 0
					}
					continue
				}
				iy := oy*p.StrideH + kh - p.PadH
				src := xd[base+iy*w : base+(iy+1)*w]
				for j := 0; j < oxLo; j++ {
					dstRow[j] = 0
				}
				ix := oxLo*p.StrideW + kw - p.PadW
				if p.StrideW == 1 {
					copy(dstRow[oxLo:oxHi+1], src[ix:ix+oxHi-oxLo+1])
				} else {
					for ox := oxLo; ox <= oxHi; ox++ {
						dstRow[ox] = src[ix]
						ix += p.StrideW
					}
				}
				for j := oxHi + 1; j < ow; j++ {
					dstRow[j] = 0
				}
			}
		}
	}
}

// ConvInto computes the convolution product dst = W × Im2Col(x), W being
// (outC × C·KH·KW) and dst (outC × N·OH·OW), bit-identical to Im2ColInto
// followed by MatMulInto. Where MatMul would pack Bᵀ for its dot kernel it
// writes the im2col matrix straight into that patch-major (N·OH·OW ×
// C·KH·KW) layout, skipping the unroll-then-transpose round trip; smaller
// products take the plain path. The kernel choice follows matmul's own
// size rule, so every element sees the same multiply-adds in the same
// p = 0..k-1 order either way. The weight gradient's dot kernel reads the
// (K × N·OH·OW) layout instead, so a training convolution unrolls its
// input again with Im2ColInto in the backward pass.
func ConvInto(dst, w, x *Tensor, p ConvParams) {
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := p.OutSize(h, wd)
	m, k := w.shape[0], w.shape[1]
	s := n * oh * ow
	if k != c*p.KernelH*p.KernelW || dst.shape[0] != m || dst.shape[1] != s {
		panic(fmt.Sprintf("tensor: ConvInto shape mismatch dst=%v w=%v x=%v", dst.shape, w.shape, x.shape))
	}
	checkSameDType("ConvInto", dst, w, x)
	if !packs(m, k, s) {
		cols := GetScratchOf(x.dt, k, s)
		Im2ColInto(cols, x, p)
		MatMulInto(dst, w, cols)
		PutScratch(cols)
		return
	}
	bt := GetScratchOf(x.dt, s, k)
	if x.dt == Float32 {
		convPacked(dst.data32, w.data32, bt.data32, x.data32, p, n, c, h, wd, oh, ow)
	} else {
		convPacked(dst.data, w.data, bt.data, x.data, p, n, c, h, wd, oh, ow)
	}
	PutScratch(bt)
}

// convPacked fills the patch-major im2col bt, over the worker pool when
// the unroll is large enough (patch rows are disjoint), then runs the dot
// kernel on it.
func convPacked[E Elem](y, w, bt, xd []E, p ConvParams, n, c, h, wd, oh, ow int) {
	k := c * p.KernelH * p.KernelW
	s := n * oh * ow
	if parallelWorthwhile(int64(k) * int64(s)) {
		par.Parallelize(n*oh, func(lo, hi int) {
			im2colPatches(bt, xd, p, c, h, wd, oh, ow, lo, hi)
		})
	} else {
		im2colPatches(bt, xd, p, c, h, wd, oh, ow, 0, n*oh)
	}
	matmulPacked(y, w, bt, len(w)/k, k, s, false)
}

// im2colPatches writes the patches of output rows [rLo, rHi) of the
// (N·OH) × OW output grid, row r = ni·OH + oy, in patch-major order: patch
// (ni, oy, ox) is one contiguous run of C·KH·KW taps in the (channel, kh,
// kw) order of Im2Col's rows, so the result is Im2Col's matrix transposed.
// Each (channel, kh) pair reads one input row and drops a KW-tap run into
// every patch of the output row.
func im2colPatches[E Elem](od, xd []E, p ConvParams, c, h, w, oh, ow, rLo, rHi int) {
	k := c * p.KernelH * p.KernelW
	kw := p.KernelW
	for r := rLo; r < rHi; r++ {
		ni, oy := r/oh, r%oh
		blk := od[r*ow*k : (r+1)*ow*k]
		for ci := 0; ci < c; ci++ {
			plane := xd[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			for kh := 0; kh < p.KernelH; kh++ {
				tap0 := (ci*p.KernelH + kh) * kw
				iy := oy*p.StrideH + kh - p.PadH
				if iy < 0 || iy >= h {
					for ox := 0; ox < ow; ox++ {
						clear(blk[ox*k+tap0 : ox*k+tap0+kw])
					}
					continue
				}
				row := plane[iy*w : (iy+1)*w]
				for ox := 0; ox < ow; ox++ {
					dst := blk[ox*k+tap0 : ox*k+tap0+kw]
					ix0 := ox*p.StrideW - p.PadW
					if ix0 >= 0 && ix0+kw <= w {
						src := row[ix0 : ix0+len(dst)]
						for j, v := range src {
							dst[j] = v
						}
						continue
					}
					for j := range dst {
						if ix := ix0 + j; ix >= 0 && ix < w {
							dst[j] = row[ix]
						} else {
							dst[j] = 0
						}
					}
				}
			}
		}
	}
}

// Col2Im accumulates a column matrix (as produced by Im2Col) back into an
// NCHW tensor of the given spatial geometry; overlapping contributions are
// summed. It is the adjoint of Im2Col and implements the convolution input
// gradient.
func Col2Im(cols *Tensor, n, c, h, w int, p ConvParams) *Tensor {
	x := NewOf(cols.dt, n, c, h, w)
	Col2ImInto(x, cols, p)
	return x
}

// Col2ImInto is Col2Im writing into caller-owned storage; dst must be an
// NCHW tensor and is fully overwritten (each channel slab is zeroed before
// accumulation, so scratch-arena tensors need no pre-zeroing). Channels own
// disjoint output slabs and each channel's kernel taps are visited in a
// fixed order, so the channel loop parallelizes with bit-identical results
// at every worker count.
func Col2ImInto(dst, cols *Tensor, p ConvParams) {
	n, c, h, w := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	oh, ow := p.OutSize(h, w)
	colN := n * oh * ow
	rows := c * p.KernelH * p.KernelW
	if cols.shape[0] != rows || cols.shape[1] != colN {
		panic(fmt.Sprintf("tensor: Col2ImInto cols shape %v, want %dx%d", cols.shape, rows, colN))
	}
	checkSameDType("Col2ImInto", dst, cols)
	if dst.dt == Float32 {
		col2imDispatch(dst.data32, cols.data32, p, n, c, h, w, oh, ow, rows, colN)
	} else {
		col2imDispatch(dst.data, cols.data, p, n, c, h, w, oh, ow, rows, colN)
	}
}

// col2imDispatch engages the worker pool over channels; channels own
// disjoint output slabs and taps are visited in a fixed order, so chunking
// is bit-deterministic at both element widths.
func col2imDispatch[E Elem](xd, cd []E, p ConvParams, n, c, h, w, oh, ow, rows, colN int) {
	if parallelWorthwhile(int64(rows) * int64(colN)) {
		par.Parallelize(c, func(lo, hi int) {
			col2imChannels(xd, cd, p, n, c, h, w, oh, ow, lo, hi)
		})
		return
	}
	col2imChannels(xd, cd, p, n, c, h, w, oh, ow, 0, c)
}

// col2imChannels accumulates channels [cLo, cHi) of the output.
func col2imChannels[E Elem](xd, cd []E, p ConvParams, n, c, h, w, oh, ow, cLo, cHi int) {
	colN := n * oh * ow
	for ci := cLo; ci < cHi; ci++ {
		for ni := 0; ni < n; ni++ {
			slab := xd[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			for j := range slab {
				slab[j] = 0
			}
		}
		for kh := 0; kh < p.KernelH; kh++ {
			oyLo, oyHi := validRange(kh, p.PadH, p.StrideH, h, oh)
			for kw := 0; kw < p.KernelW; kw++ {
				oxLo, oxHi := validRange(kw, p.PadW, p.StrideW, w, ow)
				if oxLo > oxHi {
					continue
				}
				row := (ci*p.KernelH+kh)*p.KernelW + kw
				src := cd[row*colN : (row+1)*colN]
				for ni := 0; ni < n; ni++ {
					base := (ni*c + ci) * h * w
					for oy := oyLo; oy <= oyHi; oy++ {
						iy := oy*p.StrideH + kh - p.PadH
						srcRow := src[(ni*oh+oy)*ow : (ni*oh+oy+1)*ow]
						dst := xd[base+iy*w : base+(iy+1)*w]
						ix := oxLo*p.StrideW + kw - p.PadW
						if p.StrideW == 1 {
							d := dst[ix : ix+oxHi-oxLo+1]
							s := srcRow[oxLo : oxHi+1]
							for j := range d {
								d[j] += s[j]
							}
						} else {
							for ox := oxLo; ox <= oxHi; ox++ {
								dst[ix] += srcRow[ox]
								ix += p.StrideW
							}
						}
					}
				}
			}
		}
	}
}
