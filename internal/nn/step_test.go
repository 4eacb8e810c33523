package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fedsu/internal/tensor"
)

// referenceTrainStep is TrainStep without its two savings: it runs the full
// net.Backward, input gradient of the first layer included, and discards
// that gradient; and it opens no step, so every activation and gradient is
// freshly allocated.
func referenceTrainStep(m *Model, x *tensor.Tensor, labels []int) float64 {
	logits := m.net.Forward(x, true)
	loss := m.loss.Forward(logits, labels)
	_ = m.net.Backward(m.loss.Backward())
	return loss
}

// sgdStep applies plain SGD to the optimizer-visible parameters.
func sgdStep(m *Model, lr float64) {
	for _, p := range m.Params() {
		if !p.NoOpt {
			p.Value.AddScaled(-lr, p.Grad)
		}
	}
}

// stepBatch draws a deterministic batch for step i.
func stepBatch(dt tensor.DType, i int64, n, c, size, classes int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(100 + i))
	x := tensor.NewOf(dt, n, c, size, size)
	x.RandNormal(rng, 0, 1)
	labels := make([]int, n)
	for j := range labels {
		labels[j] = rng.Intn(classes)
	}
	return x, labels
}

func sameVectorBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bit-identical)", what, i, got[i], want[i])
		}
	}
}

// stepArchs are the architectures whose first layers take each path:
// PaperCNN and ResNet-18 open with a Conv2D (parameter-only backward), the
// row LSTM with a layer that falls back to its full Backward.
var stepArchs = []struct {
	name           string
	build          func(ModelConfig) *Model
	cfg            ModelConfig
	batch, classes int
}{
	{"cnn", NewPaperCNN, ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: 8}, 4, 47},
	{"resnet18", NewResNet18, ModelConfig{InChannels: 3, ImageSize: 8, NumClasses: 10, Scale: 16}, 4, 10},
	{"lstm", NewRowLSTM, ModelConfig{InChannels: 1, ImageSize: 8, NumClasses: 10, Scale: 16}, 4, 10},
}

// TestTrainStepMatchesFullBackward pins that TrainStep's parameter-only
// first-layer backward and step-scoped temporaries change no bit: N steps
// of TrainStep plus SGD end on the same parameter vector as N steps of the
// reference at both storage widths.
func TestTrainStepMatchesFullBackward(t *testing.T) {
	const steps = 4
	for _, arch := range stepArchs {
		for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
			t.Run(fmt.Sprintf("%s/%s", arch.name, dt), func(t *testing.T) {
				cfg := arch.cfg
				cfg.Seed, cfg.DType = 3, dt
				got, ref := arch.build(cfg), arch.build(cfg)
				for i := int64(0); i < steps; i++ {
					x, labels := stepBatch(dt, i, arch.batch, cfg.InChannels, cfg.ImageSize, arch.classes)
					got.ZeroGrad()
					lg := got.TrainStep(x, labels)
					sgdStep(got, 0.05)
					ref.ZeroGrad()
					lr := referenceTrainStep(ref, x, labels)
					sgdStep(ref, 0.05)
					if math.Float64bits(lg) != math.Float64bits(lr) {
						t.Fatalf("step %d: loss %v, reference %v", i, lg, lr)
					}
				}
				sameVectorBits(t, "parameters after training", ref.Vector(), got.Vector())
			})
		}
	}
}

// TestForwardOutputSurvivesTrainSteps pins the other side of the arena
// lifetime rule: a tensor the public Model.Forward returns is the caller's,
// so later steps on the same model (which recycle their activations) never
// write into it. The probe network ends in a Conv2D, ReLU and MaxPool2D
// behind a Flatten view, so the returned tensor is one of those layers'
// own outputs rather than a Linear's.
func TestForwardOutputSurvivesTrainSteps(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		t.Run(dt.String(), func(t *testing.T) {
			var m *Model
			if dt == tensor.Float32 {
				m = convProbeModel[float32]()
			} else {
				m = convProbeModel[float64]()
			}
			for _, train := range []bool{false, true} {
				x, _ := stepBatch(dt, 50, 3, 1, 6, 8)
				y := m.Forward(x, train)
				want := make([]float64, y.Len())
				y.CopyToF64(want)
				for i := int64(0); i < 3; i++ {
					bx, labels := stepBatch(dt, i, 3, 1, 6, 8)
					m.ZeroGrad()
					m.TrainStep(bx, labels)
					sgdStep(m, 0.1)
					m.Evaluate(bx, labels)
				}
				got := make([]float64, y.Len())
				y.CopyToF64(got)
				sameVectorBits(t, fmt.Sprintf("Forward(train=%v) output after later steps", train), want, got)
			}
		})
	}
}

// convProbeModel is conv(1→2, 3×3) → ReLU → 2×2 max-pool → flatten on 6×6
// inputs: 8 outputs, read as 8 class logits.
func convProbeModel[E tensor.Elem]() *Model {
	rng := rand.New(rand.NewSource(9))
	net := NewSequential(
		newConv2DOf[E](rng, 1, 2, 3),
		newReLUOf[E](),
		newMaxPool2DOf[E](2, 2),
		NewFlatten(),
	)
	return NewModel("probe", net, 8)
}

// TestConcurrentTrainStepsIndependent trains two replicas at once, the way
// the federated engine's client goroutines do, and checks each ends where
// the same training run alone ends: the shared tensor arena must not let
// one model's step see the other's tensors. Run under -race it also checks
// the step arenas for data races.
func TestConcurrentTrainStepsIndependent(t *testing.T) {
	cfg := ModelConfig{InChannels: 1, ImageSize: 28, NumClasses: 47, Scale: 8, Seed: 5}
	train := func(m *Model, seed int64) {
		for i := int64(0); i < 4; i++ {
			x, labels := stepBatch(tensor.Float64, seed*10+i, 4, 1, 28, 47)
			m.ZeroGrad()
			m.TrainStep(x, labels)
			sgdStep(m, 0.05)
			m.Evaluate(x, labels)
		}
	}
	want := make([][]float64, 2)
	for c := range want {
		m := NewPaperCNN(cfg)
		train(m, int64(c+1))
		want[c] = m.Vector()
	}
	got := make([]*Model, 2)
	var wg sync.WaitGroup
	for c := range got {
		got[c] = NewPaperCNN(cfg)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			train(got[c], int64(c+1))
		}(c)
	}
	wg.Wait()
	for c := range got {
		sameVectorBits(t, fmt.Sprintf("replica %d", c), want[c], got[c].Vector())
	}
}
