package nn

import (
	"math/rand"
	"testing"

	"fedsu/internal/tensor"
)

// benchConvForwardBackward times one training step of a mid-network
// convolution (16→32 channels, 3×3, batch 8 at 16×16) at the given storage
// width, the shape class that dominates per-client wall-clock in the
// emulated runs. allocs/op is the headline number: the im2col/col2im and
// gate scratch must come from the arena, not the GC. The F32 variant moves
// half the bytes through the same kernels (BENCH_kernels.json tracks both).
func benchConvForwardBackward[E tensor.Elem](b *testing.B) {
	dt := tensor.DTypeOf[E]()
	rng := rand.New(rand.NewSource(1))
	conv := newConv2DOf[E](rng, 16, 32, 3, WithPadding(1))
	x := tensor.NewOf(dt, 8, 16, 16, 16)
	x.RandNormal(rng, 0, 1)
	grad := tensor.NewOf(dt, 8, 32, 16, 16)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := conv.Forward(x, true)
		dx := conv.Backward(grad)
		_, _ = y, dx
	}
}

func BenchmarkConvForwardBackward(b *testing.B)    { benchConvForwardBackward[float64](b) }
func BenchmarkConvForwardBackwardF32(b *testing.B) { benchConvForwardBackward[float32](b) }

// benchLinearForwardBackward times the fully-connected head.
func benchLinearForwardBackward[E tensor.Elem](b *testing.B) {
	dt := tensor.DTypeOf[E]()
	rng := rand.New(rand.NewSource(1))
	lin := newLinearOf[E](rng, 512, 128)
	x := tensor.NewOf(dt, 32, 512)
	x.RandNormal(rng, 0, 1)
	grad := tensor.NewOf(dt, 32, 128)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := lin.Forward(x, true)
		dx := lin.Backward(grad)
		_, _ = y, dx
	}
}

func BenchmarkLinearForwardBackward(b *testing.B)    { benchLinearForwardBackward[float64](b) }
func BenchmarkLinearForwardBackwardF32(b *testing.B) { benchLinearForwardBackward[float32](b) }

// benchLSTMForwardBackward times a full BPTT step of the row-LSTM cell.
func benchLSTMForwardBackward[E tensor.Elem](b *testing.B) {
	dt := tensor.DTypeOf[E]()
	rng := rand.New(rand.NewSource(1))
	lstm := newLSTMOf[E](rng, 28, 64)
	x := tensor.NewOf(dt, 8, 1, 28, 28)
	x.RandNormal(rng, 0, 1)
	grad := tensor.NewOf(dt, 8, 64)
	grad.RandNormal(rng, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := lstm.Forward(x, true)
		dx := lstm.Backward(grad)
		_, _ = h, dx
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B)    { benchLSTMForwardBackward[float64](b) }
func BenchmarkLSTMForwardBackwardF32(b *testing.B) { benchLSTMForwardBackward[float32](b) }

// benchTrainStepPaperCNN times one Model.TrainStep of the paper CNN at the
// train-cnn end-to-end workload's shape (scale 8, batch 16, 1×28×28, 47
// classes). Unlike the per-layer benchmarks above it goes through the
// model, so it sees what only the model can skip or scope: the first
// layer's parameter-only backward and the step-scoped activations.
func benchTrainStepPaperCNN(b *testing.B, dt tensor.DType) {
	m := NewPaperCNN(ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: 8, Seed: 1, DType: dt})
	rng := rand.New(rand.NewSource(2))
	x := tensor.NewOf(dt, 16, 1, 28, 28)
	x.RandNormal(rng, 0, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = rng.Intn(47)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		m.TrainStep(x, labels)
	}
}

func BenchmarkTrainStepPaperCNN(b *testing.B)    { benchTrainStepPaperCNN(b, tensor.Float64) }
func BenchmarkTrainStepPaperCNNF32(b *testing.B) { benchTrainStepPaperCNN(b, tensor.Float32) }
