package codec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Chain-stage benchmarks: encode cost and output size per chain at the
// densities the strategies actually produce (FedSU uploads run ~0.1–10%
// dense; replies and bootstrap rounds are dense). `make bench-codec`
// runs these with -count 3; BENCH_codec.json tracks the medians.

const benchParams = 1 << 16

// benchVector synthesizes a vector with the given nonzero density whose
// values mimic concatenated layers at different scales (the case the
// per-block grids exist for).
func benchVector(density float64) []float64 {
	vec := make([]float64, benchParams)
	if density <= 0 {
		return vec
	}
	stride := int(1 / density)
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(vec); i += stride {
		layerScale := math.Pow(10, float64((i/8192)%4)-2) // 1e-2 .. 1e1
		vec[i] = math.Sin(float64(i)) * layerScale
	}
	return vec
}

var benchDensities = []struct {
	name    string
	density float64
}{
	{"d0.1%", 0.001},
	{"d1%", 0.01},
	{"d10%", 0.1},
	{"dense", 1},
}

var benchSpecs = []string{"topk", "topk,q4", "topk,q4,rans", "topk,q8", "lowrank", "rans"}

func BenchmarkChainEncode(b *testing.B) {
	for _, spec := range benchSpecs {
		ch, err := Parse(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range benchDensities {
			vec := benchVector(d.density)
			encoded := len(ch.AppendEncode(nil, vec))
			b.Run(fmt.Sprintf("%s/%s", spec, d.name), func(b *testing.B) {
				b.SetBytes(8 * benchParams)
				buf := GetBuf(encoded + 64)
				defer PutBuf(buf)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					*buf = ch.AppendEncode((*buf)[:0], vec)
				}
				// After ResetTimer (it deletes user metrics).
				b.ReportMetric(float64(encoded), "encodedB")
			})
		}
	}
}

func BenchmarkChainRoundTrip(b *testing.B) {
	for _, spec := range []string{"topk", "topk,q4,rans"} {
		ch, err := Parse(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		vec := benchVector(0.01)
		b.Run(spec, func(b *testing.B) {
			b.SetBytes(8 * benchParams)
			for i := 0; i < b.N; i++ {
				ch.RoundTrip(vec)
			}
		})
	}
}

// BenchmarkVectorPayload tracks the pooled encode/decode round trip flrpc
// runs per contribution: AppendBase into a pooled wire buffer, then
// DecodeInto over a pooled vector. density=1 is a FedAvg dense round
// (bitmap form); density=0.01 is a FedSU sparse round (index form).
// SetBytes reports the encoded payload size, so MB/s compares the two
// forms directly.
func BenchmarkVectorPayload(b *testing.B) {
	const n = 100_000
	for _, density := range []float64{1, 0.01} {
		b.Run(fmt.Sprintf("density=%g", density), func(b *testing.B) {
			vec := make([]float64, n)
			step := int(1 / density)
			for i := 0; i < n; i += step {
				vec[i] = 1 + float64(i)
			}
			buf := GetBuf(BaseSize(vec))
			defer PutBuf(buf)
			dst := GetVals(n)
			defer PutVals(dst)
			b.SetBytes(int64(BaseSize(vec)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*buf = AppendBase((*buf)[:0], vec)
				out, err := DecodeInto(*dst, *buf, n)
				if err != nil {
					b.Fatal(err)
				}
				*dst = out
			}
		})
	}
}

// BenchmarkAblationEncoding forces each of the base stage's two forms,
// bitmap and delta-varint index, across densities: the ablation behind
// the ~3% crossover AppendBase's exact-size selection implements.
func BenchmarkAblationEncoding(b *testing.B) {
	const total = 200_000
	for _, density := range []float64{0.001, 0.03, 0.3} {
		rng := rand.New(rand.NewSource(3))
		vec := make([]float64, total)
		for i := range vec {
			if rng.Float64() < density {
				vec[i] = rng.NormFloat64()
			}
		}
		nnz, varBytes := baseStats(vec)
		forms := []struct {
			name   string
			size   int
			encode func(out []byte, vec []float64, nnz int)
		}{
			{"bitmap", 1 + bitmapBodyBytes(total, nnz), encodeBaseBitmap},
			{"index", 1 + 8 + 8 + varBytes + 4*nnz, encodeBaseIndex},
		}
		for _, f := range forms {
			b.Run(fmt.Sprintf("%s/density=%v", f.name, density), func(b *testing.B) {
				out := make([]byte, f.size)
				for i := 0; i < b.N; i++ {
					f.encode(out, vec, nnz)
				}
				b.ReportMetric(float64(f.size), "bytes")
			})
		}
	}
}
