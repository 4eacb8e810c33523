package nn

import (
	"math"

	"fedsu/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW tensors. Window comparisons
// run at the storage width E; widening to float64 is exact and
// order-preserving, so the selected element (and its argmax index) is the
// one a float64 comparison would pick.
type MaxPool2D[E tensor.Elem] struct {
	p tensor.ConvParams

	argmax    []int // flat input index chosen for each output element
	lastShape []int
	arena     *stepArena
}

var (
	_ Layer = (*MaxPool2D[float64])(nil)
	_ Layer = (*MaxPool2D[float32])(nil)
)

// NewMaxPool2D constructs a square float64 max-pool with the given window
// and stride. The common "pool 2" is NewMaxPool2D(2, 2).
func NewMaxPool2D(window, stride int) *MaxPool2D[float64] {
	return newMaxPool2DOf[float64](window, stride)
}

func newMaxPool2DOf[E tensor.Elem](window, stride int) *MaxPool2D[E] {
	return &MaxPool2D[E]{p: tensor.ConvParams{
		KernelH: window, KernelW: window,
		StrideH: stride, StrideW: stride,
	}}
}

func (m *MaxPool2D[E]) bindArena(a *stepArena) { m.arena = a }

// Forward implements Layer; the output comes from the step arena.
func (m *MaxPool2D[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := m.p.OutSize(h, w)
	m.lastShape = append(m.lastShape[:0], n, c, h, w)
	out := m.arena.get(tensor.DTypeOf[E](), n, c, oh, ow)
	if cap(m.argmax) < out.Len() {
		m.argmax = make([]int, out.Len())
	}
	m.argmax = m.argmax[:out.Len()]
	xd, od := tensor.DataOf[E](x), tensor.DataOf[E](out)
	negInf := roundE[E](math.Inf(-1))
	argmax := m.argmax
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				y0 := oy * m.p.StrideH
				y1 := min(y0+m.p.KernelH, h)
				for ox := 0; ox < ow; ox++ {
					x0 := ox * m.p.StrideW
					x1 := min(x0+m.p.KernelW, w)
					// First strict maximum in window scan order; NaN never
					// wins, as in the widened float64 comparison.
					best, bidx := negInf, -1
					for iy := y0; iy < y1; iy++ {
						row := base + iy*w
						for ix, v := range xd[row+x0 : row+x1] {
							if v > best {
								best, bidx = v, row+x0+ix
							}
						}
					}
					od[oi] = best
					argmax[oi] = bidx
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer; the input gradient comes from the step arena.
func (m *MaxPool2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx := m.arena.get(tensor.DTypeOf[E](), m.lastShape...)
	dx.Zero()
	dd, gd := tensor.DataOf[E](dx), tensor.DataOf[E](grad)
	for oi, idx := range m.argmax {
		dd[idx] += gd[oi]
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2D[E]) Params() []*Param { return nil }

// AvgPool2D is an average-pooling layer over NCHW tensors; window sums
// accumulate in float64 and round once per output element.
type AvgPool2D[E tensor.Elem] struct {
	p         tensor.ConvParams
	lastShape []int
}

var (
	_ Layer = (*AvgPool2D[float64])(nil)
	_ Layer = (*AvgPool2D[float32])(nil)
)

// NewAvgPool2D constructs a square float64 average pool with the given
// window and stride.
func NewAvgPool2D(window, stride int) *AvgPool2D[float64] {
	return newAvgPool2DOf[float64](window, stride)
}

func newAvgPool2DOf[E tensor.Elem](window, stride int) *AvgPool2D[E] {
	return &AvgPool2D[E]{p: tensor.ConvParams{
		KernelH: window, KernelW: window,
		StrideH: stride, StrideW: stride,
	}}
}

// Forward implements Layer.
func (a *AvgPool2D[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := a.p.OutSize(h, w)
	a.lastShape = x.Shape()
	out := tensor.NewOf(tensor.DTypeOf[E](), n, c, oh, ow)
	inv := 1.0 / float64(a.p.KernelH*a.p.KernelW)
	xd, od := tensor.DataOf[E](x), tensor.DataOf[E](out)
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					s := 0.0
					for ky := 0; ky < a.p.KernelH; ky++ {
						iy := oy*a.p.StrideH + ky
						for kx := 0; kx < a.p.KernelW; kx++ {
							ix := ox*a.p.StrideW + kx
							s += toF64(xd[base+iy*w+ix])
						}
					}
					od[oi] = roundE[E](s * inv)
					oi++
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (a *AvgPool2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := a.lastShape[0], a.lastShape[1], a.lastShape[2], a.lastShape[3]
	oh, ow := a.p.OutSize(h, w)
	dx := tensor.NewOf(tensor.DTypeOf[E](), a.lastShape...)
	inv := 1.0 / float64(a.p.KernelH*a.p.KernelW)
	dd, gd := tensor.DataOf[E](dx), tensor.DataOf[E](grad)
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := roundE[E](toF64(gd[oi]) * inv)
					for ky := 0; ky < a.p.KernelH; ky++ {
						iy := oy*a.p.StrideH + ky
						for kx := 0; kx < a.p.KernelW; kx++ {
							ix := ox*a.p.StrideW + kx
							dd[base+iy*w+ix] += g
						}
					}
					oi++
				}
			}
		}
	}
	return dx
}

// Params implements Layer.
func (a *AvgPool2D[E]) Params() []*Param { return nil }

// GlobalAvgPool2D reduces each (H, W) plane to its mean, producing (N, C)
// feature vectors; it is the classifier head pooling in ResNet and DenseNet.
// Plane sums accumulate in float64 like AvgPool2D.
type GlobalAvgPool2D[E tensor.Elem] struct {
	lastShape []int
}

var (
	_ Layer = (*GlobalAvgPool2D[float64])(nil)
	_ Layer = (*GlobalAvgPool2D[float32])(nil)
)

// NewGlobalAvgPool2D constructs a float64 global average pool.
func NewGlobalAvgPool2D() *GlobalAvgPool2D[float64] {
	return newGlobalAvgPool2DOf[float64]()
}

func newGlobalAvgPool2DOf[E tensor.Elem]() *GlobalAvgPool2D[E] {
	return &GlobalAvgPool2D[E]{}
}

// Forward implements Layer.
func (g *GlobalAvgPool2D[E]) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	g.lastShape = x.Shape()
	out := tensor.NewOf(tensor.DTypeOf[E](), n, c)
	inv := 1.0 / float64(h*w)
	xd, od := tensor.DataOf[E](x), tensor.DataOf[E](out)
	for i := 0; i < n*c; i++ {
		s := 0.0
		for _, v := range xd[i*h*w : (i+1)*h*w] {
			s += toF64(v)
		}
		od[i] = roundE[E](s * inv)
	}
	return out
}

// Backward implements Layer.
func (g *GlobalAvgPool2D[E]) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := g.lastShape[0], g.lastShape[1], g.lastShape[2], g.lastShape[3]
	dx := tensor.NewOf(tensor.DTypeOf[E](), g.lastShape...)
	inv := 1.0 / float64(h*w)
	dd, gd := tensor.DataOf[E](dx), tensor.DataOf[E](grad)
	for i := 0; i < n*c; i++ {
		v := roundE[E](toF64(gd[i]) * inv)
		row := dd[i*h*w : (i+1)*h*w]
		for j := range row {
			row[j] = v
		}
	}
	return dx
}

// Params implements Layer.
func (g *GlobalAvgPool2D[E]) Params() []*Param { return nil }
