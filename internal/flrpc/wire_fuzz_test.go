package flrpc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"testing"

	"fedsu/internal/sparse"
	"fedsu/internal/sparse/codec"
)

// FuzzAggWire fuzzes the binary collective wire. The rpc envelope is gob
// but the vectors travel as sparse vector-codec payloads, so two
// invariants are checked for every value pattern (NaNs, signed zeros,
// subnormals included):
//
//  1. the nil-vs-abstain distinction survives — gob flattens a non-nil
//     empty slice to nil in transit (the bug fixed in the fault-tolerance
//     PR), so Abstain (requests) and Nil (replies) are the wire truth and
//     a zero-length contribution must come back empty but non-nil;
//  2. every value survives as its QuantizeWire image — zeros elide to +0,
//     everything else rounds through float32, bit-for-bit reproducibly.
func FuzzAggWire(f *testing.F) {
	f.Add(0, 3, "model", []byte{}, true)  // abstention
	f.Add(1, 0, "error", []byte{}, false) // empty-but-contributing: the original bug
	f.Add(2, 7, "model", floatBytes(1.5, -0.25, 0), false)
	f.Add(3, 9, "error", floatBytes(math.NaN(), math.Inf(-1), math.Copysign(0, -1)), false)
	f.Fuzz(func(t *testing.T, clientID, round int, kind string, raw []byte, abstain bool) {
		var values []float64
		if !abstain {
			values = bytesToFloats(raw)
		}
		args := AggArgs{ClientID: clientID, Round: round, Kind: kind, Abstain: values == nil}
		if values != nil {
			args.Payload = codec.AppendBase(nil, values)
		}
		var gotArgs AggArgs
		gobRoundTrip(t, &args, &gotArgs)
		got, err := gotArgs.contribution(nil, len(values))
		if err != nil {
			t.Fatalf("request decode: %v", err)
		}
		checkContribution(t, "request", values, got)

		reply := AggReply{Nil: values == nil}
		if values != nil {
			reply.Payload = codec.AppendBase(nil, values)
		}
		var gotReply AggReply
		gobRoundTrip(t, &reply, &gotReply)
		got, err = gotReply.contribution(len(values))
		if err != nil {
			t.Fatalf("reply decode: %v", err)
		}
		checkContribution(t, "reply", values, got)
	})
}

// checkContribution asserts the decoded wire payload is semantically
// identical to what was sent: nil stays nil, empty stays empty (non-nil),
// and every value arrives as its QuantizeWire image, bit-for-bit.
func checkContribution(t *testing.T, dir string, sent, got []float64) {
	t.Helper()
	if sent == nil {
		if got != nil {
			t.Fatalf("%s: sent nil (abstain/no-contributors), received %v", dir, got)
		}
		return
	}
	if got == nil {
		t.Fatalf("%s: empty contribution collapsed to nil across the wire", dir)
	}
	if len(got) != len(sent) {
		t.Fatalf("%s: sent %d values, received %d", dir, len(sent), len(got))
	}
	for i := range sent {
		want := sparse.QuantizeWire(sent[i])
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: value %d: sent %x, want %x on arrival, received %x",
				dir, i, math.Float64bits(sent[i]), math.Float64bits(want), math.Float64bits(got[i]))
		}
	}
}

// gobRoundTrip encodes src and decodes into dst, the transform net/rpc's
// gob codec applies to every collective call.
func gobRoundTrip(t *testing.T, src, dst any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	if err := gob.NewDecoder(&buf).Decode(dst); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
}

// bytesToFloats reinterprets raw fuzz bytes as float64s (always non-nil:
// the fuzzer's empty input is the empty contribution, the regression
// case).
func bytesToFloats(raw []byte) []float64 {
	values := make([]float64, 0, len(raw)/8)
	for len(raw) >= 8 {
		values = append(values, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		raw = raw[8:]
	}
	return values
}

// floatBytes builds a seed payload from explicit float64s.
func floatBytes(vs ...float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}
