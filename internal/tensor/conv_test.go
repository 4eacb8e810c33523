package tensor

import (
	"fmt"
	"math/rand"
	"testing"

	"fedsu/internal/par"
)

// TestConvIntoMatchesUnrolledProduct pins ConvInto to Im2ColInto followed
// by MatMulInto bit for bit, at both widths, serial and parallel, on
// geometries with padding, strides and non-square kernels, and on products
// both above and below the size at which MatMul packs Bᵀ.
func TestConvIntoMatchesUnrolledProduct(t *testing.T) {
	cases := []struct {
		n, c, h, w, outC int
		p                ConvParams
	}{
		{16, 1, 28, 28, 4, ConvParams{KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}},
		{16, 4, 12, 12, 8, ConvParams{KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}},
		{2, 3, 9, 9, 5, ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}},
		{3, 4, 8, 8, 6, ConvParams{KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}},
		{1, 2, 5, 7, 3, ConvParams{KernelH: 2, KernelW: 4, StrideH: 2, StrideW: 1, PadH: 0, PadW: 2}},
		{1, 1, 3, 3, 1, ConvParams{KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}},
	}
	for _, dt := range dtypes {
		for ci, tc := range cases {
			rng := rand.New(rand.NewSource(int64(ci)))
			x := NewOf(dt, tc.n, tc.c, tc.h, tc.w)
			fillRand(x, rng)
			k := tc.c * tc.p.KernelH * tc.p.KernelW
			wt := NewOf(dt, tc.outC, k)
			fillRand(wt, rng)
			oh, ow := tc.p.OutSize(tc.h, tc.w)
			s := tc.n * oh * ow

			cols := NewOf(dt, k, s)
			Im2ColInto(cols, x, tc.p)
			want := NewOf(dt, tc.outC, s)
			MatMulInto(want, wt, cols)

			for _, workers := range []int{1, 3} {
				prev := par.SetWorkers(workers)
				prevCut := SetParallelCutoff(0)
				got := NewOf(dt, tc.outC, s)
				got.Fill(7) // ConvInto must overwrite every element
				ConvInto(got, wt, x, tc.p)
				SetParallelCutoff(prevCut)
				par.SetWorkers(prev)
				sameBits(t, fmt.Sprintf("%s case=%d packs=%v workers=%d", dt, ci, packs(tc.outC, k, s), workers),
					f64Of(want), f64Of(got))
			}
		}
	}
}

// TestTransposeStripsTails transposes shapes whose column counts are not
// multiples of the strip width, serially and split across workers.
func TestTransposeStripsTails(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 7}, {25, 9216}, {5, 19}, {64, 47}, {9, 8}} {
		r, c := dims[0], dims[1]
		src := make([]float64, r*c)
		for i := range src {
			src[i] = float64(i)
		}
		for _, workers := range []int{1, 3} {
			prev := par.SetWorkers(workers)
			prevCut := SetParallelCutoff(0)
			dst := make([]float64, r*c)
			transposeInto(dst, src, r, c)
			SetParallelCutoff(prevCut)
			par.SetWorkers(prev)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					if dst[j*r+i] != src[i*c+j] {
						t.Fatalf("%dx%d workers=%d: dst[%d][%d] = %v, want %v", r, c, workers, j, i, dst[j*r+i], src[i*c+j])
					}
				}
			}
		}
	}
}
