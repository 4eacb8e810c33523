package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fedsu/internal/sparse/codec"
)

func quantizeAll(vec []float64) []float64 {
	out := make([]float64, len(vec))
	for i, v := range vec {
		out[i] = QuantizeWire(v)
	}
	return out
}

func checkVectorRoundTrip(t *testing.T, name string, vec []float64) []byte {
	t.Helper()
	enc := codec.AppendBase(nil, vec)
	if got := codec.BaseSize(vec); got != len(enc) {
		t.Fatalf("%s: BaseSize=%d but encoded %d bytes", name, got, len(enc))
	}
	dec, err := codec.DecodeInto(nil, enc, len(vec))
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	want := quantizeAll(vec)
	if len(dec) != len(want) {
		t.Fatalf("%s: decoded length %d, want %d", name, len(dec), len(want))
	}
	for i := range want {
		if math.Float64bits(dec[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d: got %x want %x", name, i, math.Float64bits(dec[i]), math.Float64bits(want[i]))
		}
	}
	return enc
}

func TestVectorPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dense := make([]float64, 1000)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	sparse1pct := make([]float64, 1000)
	for i := 0; i < 10; i++ {
		sparse1pct[rng.Intn(1000)] = rng.NormFloat64()
	}
	cases := map[string][]float64{
		"dense":      dense,
		"sparse1pct": sparse1pct,
		"empty":      {},
		"allzero":    make([]float64, 257),
		"single":     {3.5},
		"lastonly":   append(make([]float64, 99), -2.25),
		"specials":   {0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 1e300, -1e-300},
	}
	for name, vec := range cases {
		checkVectorRoundTrip(t, name, vec)
	}
}

func TestVectorPayloadFormatSelection(t *testing.T) {
	// Dense vectors should take the bitmap form; very sparse ones the index
	// form — the ~3 % crossover documented in codec/base.go.
	dense := make([]float64, 10000)
	for i := range dense {
		dense[i] = 1
	}
	if enc := codec.AppendBase(nil, dense); enc[0] != codec.FormatBitmap {
		t.Fatalf("dense vector encoded with format 0x%02x, want bitmap", enc[0])
	}
	sparse := make([]float64, 10000)
	for i := 0; i < 100; i++ { // 1 % density
		sparse[i*100] = 1
	}
	if enc := codec.AppendBase(nil, sparse); enc[0] != codec.FormatIndex {
		t.Fatalf("1%% vector encoded with format 0x%02x, want index", enc[0])
	}
	// The index form must beat gob's per-zero cost by a wide margin.
	if size := codec.BaseSize(sparse); size > 8+100*10 {
		t.Fatalf("1%% of 10k encoded to %d bytes, want well under 1008", size)
	}
}

func TestVectorPayloadDecodeLimit(t *testing.T) {
	vec := make([]float64, 128)
	vec[0], vec[127] = 1, 2
	enc := codec.AppendBase(nil, vec)
	if _, err := codec.DecodeInto(nil, enc, 127); err == nil {
		t.Fatal("decode accepted a vector longer than maxParams")
	}
	if _, err := codec.DecodeInto(nil, enc, 128); err != nil {
		t.Fatalf("decode rejected a vector at exactly maxParams: %v", err)
	}
}

func TestVectorPayloadDecodeInto(t *testing.T) {
	vec := []float64{0, 1.5, 0, -2, 0}
	enc := codec.AppendBase(nil, vec)
	scratch := make([]float64, 8)
	for i := range scratch {
		scratch[i] = 99 // stale contents must be fully overwritten
	}
	dec, err := codec.DecodeInto(scratch, enc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &dec[0] != &scratch[0] {
		t.Fatal("DecodeInto did not reuse the provided storage")
	}
	want := []float64{0, 1.5, 0, -2, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("value %d: got %v want %v", i, dec[i], want[i])
		}
	}
}

func TestAppendPayloadsMatchEncode(t *testing.T) {
	for _, vec := range [][]float64{
		{1, 0, 0, -2, 3.5, 0, math.Pi, 0, -0.125}, // bitmap form
		append(make([]float64, 300), 1, 2),        // index form
	} {
		fresh := codec.AppendBase(nil, vec)
		// Appending after a prefix leaves the prefix intact and appends
		// exactly the fresh encoding, which decodes on its own.
		pre := []byte{0xde, 0xad}
		out := codec.AppendBase(append([]byte(nil), pre...), vec)
		if !bytes.Equal(out[:2], pre) {
			t.Fatal("AppendBase clobbered the prefix")
		}
		if !bytes.Equal(out[2:], fresh) {
			t.Fatalf("format 0x%02x: AppendBase after a prefix diverges from a fresh encoding", fresh[0])
		}
		got, err := codec.DecodeInto(nil, out[2:], 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vec {
			if got[i] != QuantizeWire(vec[i]) {
				t.Fatalf("format 0x%02x: value %d decoded %v, want %v", fresh[0], i, got[i], QuantizeWire(vec[i]))
			}
		}
	}
}

func TestWireBufPool(t *testing.T) {
	p := codec.GetBuf(100)
	if len(*p) != 0 || cap(*p) < 100 {
		t.Fatalf("GetBuf(100): len=%d cap=%d", len(*p), cap(*p))
	}
	*p = codec.AppendBase(*p, []float64{0, 1, 2})
	codec.PutBuf(p)
	codec.PutBuf(nil) // no-op

	q := codec.GetVals(64)
	if len(*q) != 64 {
		t.Fatalf("GetVals(64): len=%d", len(*q))
	}
	codec.PutVals(q)
	codec.PutVals(nil)

	// Steady state: a Get/encode/Put cycle should not allocate.
	vec := make([]float64, 4096)
	for i := range vec {
		vec[i] = float64(i)
	}
	need := codec.BaseSize(vec)
	allocs := testing.AllocsPerRun(100, func() {
		buf := codec.GetBuf(need)
		*buf = codec.AppendBase(*buf, vec)
		out := codec.GetVals(len(vec))
		var err error
		*out, err = codec.DecodeInto(*out, *buf, len(vec))
		if err != nil {
			t.Fatal(err)
		}
		codec.PutVals(out)
		codec.PutBuf(buf)
	})
	// Under the race detector sync.Pool drops a fraction of Puts on purpose,
	// so the zero-allocation property only holds in a normal build.
	if !raceEnabled && allocs > 0 {
		t.Fatalf("pooled encode/decode cycle allocates %.1f times per run", allocs)
	}
}
