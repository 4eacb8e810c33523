package nn

import "fedsu/internal/tensor"

// stepArena scopes layer activations and gradients to one model step.
// While a step is open (Model.TrainStep, Loss, Evaluate — the entry points
// that return only scalars), the bound layers draw their outputs and input
// gradients from the shared tensor scratch arena and record them here; the
// step's end hands every one of them back. Outside a step (the public
// Model.Forward, a layer driven directly) get allocates, so a tensor a
// caller receives is never recycled under it.
//
// Lifetime rule: a tensor is drawn and released within one step, and
// nothing is held per replica between steps. Population-mode engines keep
// many model replicas alive at once; a per-layer buffer would multiply by
// the replica count, while the shared arena's footprint scales only with
// the steps running concurrently.
//
// A stepArena belongs to one Model and is not safe for concurrent use,
// like the layers that draw from it; the underlying tensor arena is.
type stepArena struct {
	open bool
	held []*tensor.Tensor
}

// arenaBinder is implemented by layers (and containers of layers) that
// draw step-scoped tensors; NewModel binds every one in its network to the
// model's arena.
type arenaBinder interface {
	bindArena(a *stepArena)
}

// bindArena binds l, if it draws step-scoped tensors, to a.
func bindArena(l Layer, a *stepArena) {
	if b, ok := l.(arenaBinder); ok {
		b.bindArena(a)
	}
}

// begin opens a step; the caller defers end.
func (a *stepArena) begin() { a.open = true }

// end closes the step and returns every tensor drawn during it to the
// scratch arena.
func (a *stepArena) end() {
	for i, t := range a.held {
		tensor.PutScratch(t)
		a.held[i] = nil
	}
	a.held = a.held[:0]
	a.open = false
}

// get returns a tensor of the given shape whose contents are UNSPECIFIED
// (the tensor arena's contract): callers overwrite every element. Inside an
// open step it is drawn from the scratch arena and released when the step
// ends; otherwise (including on a nil arena, i.e. an unbound layer) it is
// freshly allocated and belongs to the caller.
func (a *stepArena) get(dt tensor.DType, shape ...int) *tensor.Tensor {
	if a == nil || !a.open {
		return tensor.NewOf(dt, shape...)
	}
	t := tensor.GetScratchOf(dt, shape...)
	a.held = append(a.held, t)
	return t
}

// paramBackwarder is implemented by layers that can accumulate their
// parameter gradients without forming the gradient w.r.t. their input —
// the work Model.TrainStep would discard for the network's first layer.
type paramBackwarder interface {
	backwardParams(grad *tensor.Tensor)
}

// backwardParams accumulates l's parameter gradients from grad, skipping
// the input gradient where l can; any other layer runs its full Backward
// and the result is dropped. Either way every parameter gradient receives
// exactly the same sequence of updates.
func backwardParams(l Layer, grad *tensor.Tensor) {
	if pb, ok := l.(paramBackwarder); ok {
		pb.backwardParams(grad)
		return
	}
	l.Backward(grad)
}
