package fl

import (
	"context"
	"math"
	"testing"

	"fedsu/internal/core"
	"fedsu/internal/data"
	"fedsu/internal/nn"
	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
	"fedsu/internal/tensor"
)

// TestFloat32WireLossless is the float32 mode's wire-fidelity contract: a
// client model trained at float32 (with the strategy in Quantize mode, as
// the engines configure it) holds only values the wire codec represents
// exactly, so QuantizeWire is the identity on its state and a full
// encode→decode round trip through the vector codec reproduces every
// parameter bit for bit. At float64 neither property holds (the codec
// rounds); this is precisely the asymmetry that makes compute and wire
// precision agree in float32 mode.
func TestFloat32WireLossless(t *testing.T) {
	for _, strategy := range []string{"fedavg", "fedsu"} {
		strategy := strategy
		t.Run(strategy, func(t *testing.T) {
			t.Parallel()
			ds := data.Synthesize(data.SynthConfig{
				Name: "tiny", Channels: 1, Size: 8, Classes: 4,
				Samples: 512, Noise: 0.2, Jitter: 1, Seed: 11,
			})
			cfg := Config{
				NumClients:     4,
				LocalIters:     5,
				BatchSize:      8,
				LR:             0.05,
				WeightDecay:    0.0005,
				DirichletAlpha: 1.0,
				EvalSamples:    128,
				EvalBatch:      64,
				Seed:           3,
				DType:          tensor.Float32,
			}
			builder := func() *nn.Model {
				return nn.NewMLP(nn.ModelConfig{
					InChannels: 1, ImageSize: 8, NumClasses: 4, Seed: 5,
					DType: tensor.Float32,
				}, 24)
			}
			opts := core.DefaultOptions()
			opts.Quantize = true
			factory, err := StrategyFactoryWith(strategy, opts)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(cfg, builder, ds, factory)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(context.Background(), 6, 2); err != nil {
				t.Fatal(err)
			}

			for _, c := range e.Clients() {
				vec := c.Model().Vector()
				for i, v := range vec {
					if q := sparse.QuantizeWire(v); math.Float64bits(q) != math.Float64bits(v) {
						t.Fatalf("client %d param %d: QuantizeWire(%x) = %x, not identity — float32 state escaped the wire image",
							c.ID, i, math.Float64bits(v), math.Float64bits(q))
					}
				}
				dec, err := codec.DecodeInto(nil, codec.AppendBase(nil, vec), 0)
				if err != nil {
					t.Fatalf("client %d: decode: %v", c.ID, err)
				}
				if len(dec) != len(vec) {
					t.Fatalf("client %d: round trip length %d, want %d", c.ID, len(dec), len(vec))
				}
				for i := range vec {
					if math.Float64bits(dec[i]) != math.Float64bits(vec[i]) {
						t.Fatalf("client %d param %d: wire round trip %x → %x, want bit-exact",
							c.ID, i, math.Float64bits(vec[i]), math.Float64bits(dec[i]))
					}
				}
			}
		})
	}
}
