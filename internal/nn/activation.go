package nn

import "fedsu/internal/tensor"

// ReLU is the rectified-linear activation, applied element-wise at the
// storage width E.
type ReLU[E tensor.Elem] struct {
	mask  []bool
	arena *stepArena
}

var (
	_ Layer = (*ReLU[float64])(nil)
	_ Layer = (*ReLU[float32])(nil)
)

// NewReLU constructs a float64 ReLU activation layer.
func NewReLU() *ReLU[float64] { return newReLUOf[float64]() }

func newReLUOf[E tensor.Elem]() *ReLU[E] { return &ReLU[E]{} }

func (r *ReLU[E]) bindArena(a *stepArena) { r.arena = a }

// Forward implements Layer in one pass: every output element is written
// once, so the output may come from the step arena.
func (r *ReLU[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	y := r.arena.get(tensor.DTypeOf[E](), x.Shape()...)
	if cap(r.mask) < y.Len() {
		r.mask = make([]bool, y.Len())
	}
	r.mask = r.mask[:y.Len()]
	xd, yd := tensor.DataOf[E](x), tensor.DataOf[E](y)
	mask := r.mask[:len(xd)]
	yd = yd[:len(xd)]
	for i, v := range xd {
		if v > 0 {
			mask[i] = true
			yd[i] = v
		} else {
			mask[i] = false
			yd[i] = 0
		}
	}
	return y
}

// Backward implements Layer.
func (r *ReLU[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	g := r.arena.get(tensor.DTypeOf[E](), grad.Shape()...)
	gd, dd := tensor.DataOf[E](grad), tensor.DataOf[E](g)
	mask := r.mask[:len(gd)]
	dd = dd[:len(gd)]
	for i, v := range gd {
		if mask[i] {
			dd[i] = v
		} else {
			dd[i] = 0
		}
	}
	return g
}

// Params implements Layer.
func (r *ReLU[E]) Params() []*Param { return nil }

// Flatten reshapes (N, C, H, W) activations to (N, C*H*W) row vectors on the
// way into fully-connected layers. It moves no data, so it needs no type
// parameter: Reshape preserves the dtype of its input.
type Flatten struct {
	lastShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.lastShape = x.Shape()
	n := x.Dim(0)
	return x.Reshape(n, x.Len()/n)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.lastShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }
