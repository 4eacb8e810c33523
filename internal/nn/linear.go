package nn

import (
	"math/rand"

	"fedsu/internal/tensor"
)

// Linear is a fully-connected layer computing y = xW + b over batched row
// vectors: x is (N, in), W is (in, out), b is (out). The type parameter
// selects the storage and compute width of its parameters and activations.
type Linear[E tensor.Elem] struct {
	weight *Param
	bias   *Param

	in, out int
	lastX   *tensor.Tensor // training input, read by Backward
	arena   *stepArena
}

var (
	_ Layer = (*Linear[float64])(nil)
	_ Layer = (*Linear[float32])(nil)
)

// NewLinear constructs a float64 fully-connected layer with Xavier-uniform
// weights, the historical default width.
func NewLinear(rng *rand.Rand, in, out int) *Linear[float64] {
	return newLinearOf[float64](rng, in, out)
}

func newLinearOf[E tensor.Elem](rng *rand.Rand, in, out int) *Linear[E] {
	l := &Linear[E]{
		weight: newParamOf[E]("weight", in, out),
		bias:   newParamOf[E]("bias", out),
		in:     in,
		out:    out,
	}
	l.weight.Value.XavierUniform(rng, in, out)
	return l
}

// In returns the input feature count.
func (l *Linear[E]) In() int { return l.in }

// Out returns the output feature count.
func (l *Linear[E]) Out() int { return l.out }

func (l *Linear[E]) bindArena(a *stepArena) { l.arena = a }

// Forward implements Layer; the output comes from the step arena.
func (l *Linear[E]) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Dim(0)
	x2 := x.Reshape(n, x.Len()/n)
	l.lastX = nil
	if train {
		l.lastX = x2
	}
	y := l.arena.get(tensor.DTypeOf[E](), n, l.out)
	tensor.MatMulInto(y, x2, l.weight.Value)
	bd := tensor.DataOf[E](l.bias.Value)
	yd := tensor.DataOf[E](y)
	for i := 0; i < n; i++ {
		row := yd[i*l.out : (i+1)*l.out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	return y
}

// Backward implements Layer; the input gradient comes from the step arena.
func (l *Linear[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(grad)
	// dx = grad × Wᵀ, with W stored (in, out): use MatMulTransB.
	dx := l.arena.get(tensor.DTypeOf[E](), grad.Dim(0), l.in)
	tensor.MatMulTransBInto(dx, grad, l.weight.Value)
	return dx
}

// backwardParams accumulates the weight and bias gradients only.
func (l *Linear[E]) backwardParams(grad *tensor.Tensor) {
	if l.lastX == nil {
		panic("nn: Linear.Backward without a preceding training-mode Forward")
	}
	n := grad.Dim(0)
	// dW += xᵀ × grad, accumulated in place (no temporary + Add pass).
	tensor.MatMulTransAAcc(l.weight.Grad, l.lastX, grad)
	l.lastX = nil
	// db = column sums of grad, accumulated at storage width — the same
	// accumulator policy as dW, whose matmul accumulates in E.
	gd := tensor.DataOf[E](grad)
	bd := tensor.DataOf[E](l.bias.Grad)
	for i := 0; i < n; i++ {
		row := gd[i*l.out : (i+1)*l.out]
		for j := range row {
			bd[j] += row[j]
		}
	}
}

// Params implements Layer.
func (l *Linear[E]) Params() []*Param { return []*Param{l.weight, l.bias} }
