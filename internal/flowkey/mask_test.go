package flowkey

import (
	"math/rand/v2"
	"testing"
)

// referenceApply is the branchy per-field Apply that the byte-AND
// version replaced, kept verbatim as the bit-identity reference.
func referenceApply(m Mask, k FiveTuple) FiveTuple {
	var out FiveTuple
	out.SrcIP = maskBytes4(k.SrcIP, int(m.Bits[FieldSrcIP]))
	out.DstIP = maskBytes4(k.DstIP, int(m.Bits[FieldDstIP]))
	out.SrcPort = k.SrcPort & mask16(int(m.Bits[FieldSrcPort]))
	out.DstPort = k.DstPort & mask16(int(m.Bits[FieldDstPort]))
	out.Proto = k.Proto & mask8(int(m.Bits[FieldProto]))
	return out
}

func maskBytes4(b [4]byte, bits int) [4]byte {
	var out [4]byte
	if bits <= 0 {
		return out
	}
	if bits >= 32 {
		return b
	}
	m := ^uint32(0) << (32 - uint(bits))
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	v &= m
	out[0], out[1], out[2], out[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	return out
}

func mask16(bits int) uint16 {
	if bits <= 0 {
		return 0
	}
	if bits >= 16 {
		return ^uint16(0)
	}
	return ^uint16(0) << (16 - uint(bits))
}

func mask8(bits int) uint8 {
	if bits <= 0 {
		return 0
	}
	if bits >= 8 {
		return ^uint8(0)
	}
	return ^uint8(0) << (8 - uint(bits))
}

// TestMaskApplyMatchesReference sets every prefix length of every
// field, alone and on top of a random mask of the other fields, plus
// out-of-range lengths up to 255, and requires the byte-AND Apply to
// equal the reference on random keys and on all-ones.
func TestMaskApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	keys := []FiveTuple{randomTuple(^uint32(0), ^uint32(0), ^uint16(0), ^uint16(0), ^uint8(0))}
	for i := 0; i < 64; i++ {
		keys = append(keys, randomTuple(rng.Uint32(), rng.Uint32(), uint16(rng.Uint32()), uint16(rng.Uint32()), uint8(rng.Uint32())))
	}
	for f := Field(0); f < numFields; f++ {
		for bits := 0; bits < 256; bits++ {
			var base Mask
			for g := Field(0); g < numFields; g++ {
				base.Bits[g] = uint8(rng.IntN(fieldBits[g] + 1))
			}
			for _, m := range []Mask{{}, MaskAll(), base} {
				m.Bits[f] = uint8(bits)
				for _, k := range keys {
					if got, want := m.Apply(k), referenceApply(m, k); got != want {
						t.Fatalf("%s bits %d mask %v key %v: Apply %v, reference %v", f, bits, m.Bits, k, got, want)
					}
				}
			}
		}
	}
}

// applySink keeps BenchmarkMaskApply's calls from being optimized away.
var applySink FiveTuple

// BenchmarkMaskApply measures the per-row grouping cost under a prefix
// mask.
func BenchmarkMaskApply(b *testing.B) {
	m := MaskFields(FieldSrcIP, FieldDstIP).WithPrefix(FieldSrcIP, 24)
	k := randomTuple(0x0a0b0c0d, 0x01020304, 80, 443, 6)
	for i := 0; i < b.N; i++ {
		k.SrcPort = uint16(i)
		applySink = m.Apply(k)
	}
}
