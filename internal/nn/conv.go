package nn

import (
	"math/rand"

	"fedsu/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW tensors, lowered to matrix
// multiplication via im2col, parameterized over the storage width E.
type Conv2D[E tensor.Elem] struct {
	weight *Param // (outC, inC*KH*KW)
	bias   *Param // (outC)

	inC, outC int
	p         tensor.ConvParams
	useBias   bool

	lastX          *tensor.Tensor // training input, unrolled again by Backward
	lastN, lastH   int
	lastW          int
	lastOH, lastOW int

	arena *stepArena
}

var (
	_ Layer = (*Conv2D[float64])(nil)
	_ Layer = (*Conv2D[float32])(nil)
)

// convConfig collects the option-settable construction knobs. Options mutate
// this dtype-independent struct rather than the generic layer, so one ConvOpt
// value works for every instantiation width.
type convConfig struct {
	p       tensor.ConvParams
	useBias bool
}

// ConvOpt customizes a Conv2D at construction time.
type ConvOpt func(*convConfig)

// WithStride sets both spatial strides.
func WithStride(s int) ConvOpt {
	return func(c *convConfig) { c.p.StrideH, c.p.StrideW = s, s }
}

// WithPadding sets both spatial paddings.
func WithPadding(p int) ConvOpt {
	return func(c *convConfig) { c.p.PadH, c.p.PadW = p, p }
}

// WithoutBias disables the additive bias, the norm for conv layers followed
// by batch normalization.
func WithoutBias() ConvOpt {
	return func(c *convConfig) { c.useBias = false }
}

// NewConv2D constructs a float64 convolution with a square kernel and
// He-normal weight initialization. Stride defaults to 1 and padding to 0.
func NewConv2D(rng *rand.Rand, inC, outC, kernel int, opts ...ConvOpt) *Conv2D[float64] {
	return newConv2DOf[float64](rng, inC, outC, kernel, opts...)
}

func newConv2DOf[E tensor.Elem](rng *rand.Rand, inC, outC, kernel int, opts ...ConvOpt) *Conv2D[E] {
	cfg := convConfig{
		useBias: true,
		p: tensor.ConvParams{
			KernelH: kernel, KernelW: kernel,
			StrideH: 1, StrideW: 1,
		},
	}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Conv2D[E]{
		inC:     inC,
		outC:    outC,
		useBias: cfg.useBias,
		p:       cfg.p,
	}
	k := inC * kernel * kernel
	c.weight = newParamOf[E]("weight", outC, k)
	c.weight.Value.KaimingNormal(rng, k)
	if c.useBias {
		c.bias = newParamOf[E]("bias", outC)
	}
	return c
}

func (c *Conv2D[E]) bindArena(a *stepArena) { c.arena = a }

// Forward implements Layer. The product is tensor.ConvInto, which writes
// the im2col matrix straight into the patch-major layout the matmul dot
// kernel reads instead of unrolling it and transposing the unroll. The
// pre-reorder product comes from the scratch arena, the NCHW output from
// the step arena.
//
// In training the layer keeps a reference to x, not an im2col matrix:
// Backward unrolls x again into the (C·KH·KW × N·OH·OW) layout the weight
// gradient's dot kernel reads as is. A second unroll from the small input
// costs less than transposing the large unrolled matrix, and nothing of
// size K × N·OH·OW is held between the passes. Callers must not modify x
// between Forward and Backward.
func (c *Conv2D[E]) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	dt := tensor.DTypeOf[E]()
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.p.OutSize(h, w)
	spatial := n * oh * ow
	c.lastX = nil
	if train {
		c.lastX = x
	}
	c.lastN, c.lastH, c.lastW, c.lastOH, c.lastOW = n, h, w, oh, ow

	y := tensor.GetScratchOf(dt, c.outC, spatial) // (outC, N*OH*OW)
	tensor.ConvInto(y, c.weight.Value, x, c.p)
	if c.useBias {
		bd := tensor.DataOf[E](c.bias.Value)
		yd := tensor.DataOf[E](y)
		for oc := 0; oc < c.outC; oc++ {
			row := yd[oc*spatial : (oc+1)*spatial]
			b := bd[oc]
			for i := range row {
				row[i] += b
			}
		}
	}
	// Reorder (outC, N, OH, OW) → (N, outC, OH, OW).
	out := c.arena.get(dt, n, c.outC, oh, ow)
	od, yd := tensor.DataOf[E](out), tensor.DataOf[E](y)
	plane := oh * ow
	for oc := 0; oc < c.outC; oc++ {
		for ni := 0; ni < n; ni++ {
			src := yd[(oc*n+ni)*plane : (oc*n+ni+1)*plane]
			dst := od[(ni*c.outC+oc)*plane : (ni*c.outC+oc+1)*plane]
			copy(dst, src)
		}
	}
	tensor.PutScratch(y)
	return out
}

// Backward implements Layer. All intermediates (the reordered gradient, the
// im2col matrix and the column gradient) live in the scratch arena; the
// returned input gradient comes from the step arena.
func (c *Conv2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, true)
}

// backwardParams accumulates the weight and bias gradients only, skipping
// the column-gradient product and col2im: the first layer's input gradient
// is never consumed.
func (c *Conv2D[E]) backwardParams(grad *tensor.Tensor) { c.backward(grad, false) }

func (c *Conv2D[E]) backward(grad *tensor.Tensor, wantDx bool) *tensor.Tensor {
	if c.lastX == nil {
		panic("nn: Conv2D.Backward without a preceding training-mode Forward")
	}
	dt := tensor.DTypeOf[E]()
	n, oh, ow := c.lastN, c.lastOH, c.lastOW
	plane := oh * ow
	spatial := n * plane
	// Reorder grad (N, outC, OH, OW) → (outC, N*OH*OW).
	g := tensor.GetScratchOf(dt, c.outC, spatial)
	gd, srcd := tensor.DataOf[E](g), tensor.DataOf[E](grad)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.outC; oc++ {
			src := srcd[(ni*c.outC+oc)*plane : (ni*c.outC+oc+1)*plane]
			dst := gd[(oc*n+ni)*plane : (oc*n+ni+1)*plane]
			copy(dst, src)
		}
	}
	// dW += g × colsᵀ; cols is (K, spatial) so use the TransB accumulator.
	cols := tensor.GetScratchOf(dt, c.inC*c.p.KernelH*c.p.KernelW, spatial)
	tensor.Im2ColInto(cols, c.lastX, c.p)
	tensor.MatMulTransBAcc(c.weight.Grad, g, cols)
	tensor.PutScratch(cols)
	c.lastX = nil
	if c.useBias {
		// The bias gradient sums N*OH*OW terms per channel: widen to a
		// float64 accumulator and round once into the stored gradient.
		bd := tensor.DataOf[E](c.bias.Grad)
		for oc := 0; oc < c.outC; oc++ {
			row := gd[oc*spatial : (oc+1)*spatial]
			s := 0.0
			for _, v := range row {
				s += toF64(v)
			}
			bd[oc] += roundE[E](s)
		}
	}
	if !wantDx {
		tensor.PutScratch(g)
		return nil
	}
	// dCols = Wᵀ × g, W stored (outC, K): MatMulTransA.
	dCols := tensor.GetScratchOf(dt, c.inC*c.p.KernelH*c.p.KernelW, spatial)
	tensor.MatMulTransAInto(dCols, c.weight.Value, g)
	tensor.PutScratch(g)
	dx := c.arena.get(dt, n, c.inC, c.lastH, c.lastW)
	tensor.Col2ImInto(dx, dCols, c.p)
	tensor.PutScratch(dCols)
	return dx
}

// Params implements Layer.
func (c *Conv2D[E]) Params() []*Param {
	if c.useBias {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}
