package tensor

import (
	"math/rand"
	"testing"
)

// benchMatMul times C = A × B for square n×n operands at the given storage
// width. Run with -benchmem: the kernel itself must not allocate beyond the
// output tensor. The F32 variants are the float32 compute path's headline
// numbers (BENCH_kernels.json tracks both widths): same FLOP count, half
// the bytes moved per operand.
func benchMatMul(b *testing.B, dt DType, n int) {
	rng := rand.New(rand.NewSource(1))
	a := NewOf(dt, n, n)
	a.RandNormal(rng, 0, 1)
	bb := NewOf(dt, n, n)
	bb.RandNormal(rng, 0, 1)
	c := NewOf(dt, n, n)
	b.SetBytes(int64(dt.Bytes() * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(c, a, bb)
	}
}

func BenchmarkMatMul64(b *testing.B)     { benchMatMul(b, Float64, 64) }
func BenchmarkMatMul256(b *testing.B)    { benchMatMul(b, Float64, 256) }
func BenchmarkMatMul512(b *testing.B)    { benchMatMul(b, Float64, 512) }
func BenchmarkMatMul64F32(b *testing.B)  { benchMatMul(b, Float32, 64) }
func BenchmarkMatMul256F32(b *testing.B) { benchMatMul(b, Float32, 256) }
func BenchmarkMatMul512F32(b *testing.B) { benchMatMul(b, Float32, 512) }

func benchMatMulTrans(b *testing.B, dt DType, n int, f func(a, b *Tensor) *Tensor) {
	rng := rand.New(rand.NewSource(1))
	a := NewOf(dt, n, n)
	a.RandNormal(rng, 0, 1)
	bb := NewOf(dt, n, n)
	bb.RandNormal(rng, 0, 1)
	b.SetBytes(int64(dt.Bytes() * n * n * 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, bb)
	}
}

func BenchmarkMatMulTransA256(b *testing.B)    { benchMatMulTrans(b, Float64, 256, MatMulTransA) }
func BenchmarkMatMulTransB256(b *testing.B)    { benchMatMulTrans(b, Float64, 256, MatMulTransB) }
func BenchmarkMatMulTransA256F32(b *testing.B) { benchMatMulTrans(b, Float32, 256, MatMulTransA) }
func BenchmarkMatMulTransB256F32(b *testing.B) { benchMatMulTrans(b, Float32, 256, MatMulTransB) }

// benchIm2Col unrolls a CIFAR-like batch: 8×16×16×16 NCHW input with a
// 3×3/pad-1 kernel, the geometry the conv layers hit hardest.
func benchIm2Col(b *testing.B, dt DType) {
	rng := rand.New(rand.NewSource(1))
	x := NewOf(dt, 8, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols := Im2Col(x, p)
		_ = cols
	}
}

func BenchmarkIm2Col(b *testing.B)    { benchIm2Col(b, Float64) }
func BenchmarkIm2ColF32(b *testing.B) { benchIm2Col(b, Float32) }

// benchCol2Im times the adjoint on the same geometry.
func benchCol2Im(b *testing.B, dt DType) {
	rng := rand.New(rand.NewSource(1))
	x := NewOf(dt, 8, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	p := ConvParams{KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := Im2Col(x, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Col2Im(cols, 8, 16, 16, 16, p)
		_ = out
	}
}

func BenchmarkCol2Im(b *testing.B)    { benchCol2Im(b, Float64) }
func BenchmarkCol2ImF32(b *testing.B) { benchCol2Im(b, Float32) }

// BenchmarkConvForward times a convolution's forward product at the paper
// CNN's two conv shapes (scale 8, batch 16: 1→4 channels on 28×28 and 4→8
// on 12×12, 5×5 kernels), both ways: "unroll" builds the (K × N·OH·OW)
// im2col matrix and lets MatMul transpose it into its packed layout;
// "packed" is ConvInto, which writes the packed layout directly. The
// unrolled matrices have 9216- and 1024-element rows, multiples of 4 KiB at
// float64 (see transposeStrips).
func BenchmarkConvForward(b *testing.B) {
	p := ConvParams{KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1}
	for _, s := range []struct {
		name         string
		n, c, hw, oc int
	}{{"conv1", 16, 1, 28, 4}, {"conv2", 16, 4, 12, 8}} {
		rng := rand.New(rand.NewSource(1))
		x := NewOf(Float64, s.n, s.c, s.hw, s.hw)
		x.RandNormal(rng, 0, 1)
		w := NewOf(Float64, s.oc, s.c*25)
		w.RandNormal(rng, 0, 1)
		oh, ow := p.OutSize(s.hw, s.hw)
		y := NewOf(Float64, s.oc, s.n*oh*ow)
		cols := NewOf(Float64, s.c*25, s.n*oh*ow)
		b.Run("unroll/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Im2ColInto(cols, x, p)
				MatMulInto(y, w, cols)
			}
		})
		b.Run("packed/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ConvInto(y, w, x, p)
			}
		})
	}
}
