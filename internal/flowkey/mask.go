package flowkey

import (
	"fmt"
	"strings"
)

// Field identifies one field of the 5-tuple.
type Field uint8

// Fields of the 5-tuple, in canonical encoding order.
const (
	FieldSrcIP Field = iota
	FieldDstIP
	FieldSrcPort
	FieldDstPort
	FieldProto
	numFields
)

// String names the field as it appears in mask expressions.
func (f Field) String() string {
	switch f {
	case FieldSrcIP:
		return "SrcIP"
	case FieldDstIP:
		return "DstIP"
	case FieldSrcPort:
		return "SrcPort"
	case FieldDstPort:
		return "DstPort"
	case FieldProto:
		return "Proto"
	}
	return fmt.Sprintf("Field(%d)", uint8(f))
}

// fieldBits is the width in bits of each field.
var fieldBits = [numFields]int{32, 32, 16, 16, 8}

// Mask selects a partial key of the 5-tuple: for every field it keeps a
// leading prefix of bits (the full width keeps the whole field, zero
// drops it). Mask implements the mapping g(·) of Definition 1, and the
// masked FiveTuple is the partial-key flow identifier.
//
// Mask is comparable, so it can be used as a map key when enumerating
// many partial keys (e.g. HHH hierarchies).
type Mask struct {
	// Bits[f] is the number of leading bits of field f retained.
	Bits [numFields]uint8
}

// MaskAll returns the identity mask (the full key itself).
func MaskAll() Mask {
	var m Mask
	for f := Field(0); f < numFields; f++ {
		m.Bits[f] = uint8(fieldBits[f])
	}
	return m
}

// MaskFields retains exactly the given whole fields.
func MaskFields(fields ...Field) Mask {
	var m Mask
	for _, f := range fields {
		if f >= numFields {
			panic("flowkey: unknown field")
		}
		m.Bits[f] = uint8(fieldBits[f])
	}
	return m
}

// WithPrefix returns a copy of m retaining only the leading bits of field f.
func (m Mask) WithPrefix(f Field, bits int) Mask {
	if f >= numFields {
		panic("flowkey: unknown field")
	}
	if bits < 0 || bits > fieldBits[f] {
		panic(fmt.Sprintf("flowkey: prefix %d out of range for %s", bits, f))
	}
	m.Bits[f] = uint8(bits)
	return m
}

// Apply maps a full key to its partial key under the mask by zeroing all
// dropped bits. Apply is the mapping g of Definition 1: distinct full
// keys with equal masked values belong to the same partial-key flow.
// Each field is ANDed with its leading-bits mask; a prefix longer than
// the field keeps the whole field.
func (m Mask) Apply(k FiveTuple) FiveTuple {
	src, dst := prefix32(m.Bits[FieldSrcIP]), prefix32(m.Bits[FieldDstIP])
	sp, dp := prefix32(m.Bits[FieldSrcPort]), prefix32(m.Bits[FieldDstPort])
	proto := prefix32(m.Bits[FieldProto])
	return FiveTuple{
		SrcIP:   [4]byte{k.SrcIP[0] & byte(src>>24), k.SrcIP[1] & byte(src>>16), k.SrcIP[2] & byte(src>>8), k.SrcIP[3] & byte(src)},
		DstIP:   [4]byte{k.DstIP[0] & byte(dst>>24), k.DstIP[1] & byte(dst>>16), k.DstIP[2] & byte(dst>>8), k.DstIP[3] & byte(dst)},
		SrcPort: k.SrcPort & uint16(sp>>16),
		DstPort: k.DstPort & uint16(dp>>16),
		Proto:   k.Proto & uint8(proto>>24),
	}
}

// prefix32 is the 32-bit mask keeping the leading bits bits; its top
// 16 or 8 bits are the mask of a prefix of a 16- or 8-bit field.
func prefix32(bits uint8) uint32 {
	return ^uint32(0) << (32 - min(uint32(bits), 32))
}

// IsFull reports whether the mask retains every bit of the full key.
func (m Mask) IsFull() bool { return m == MaskAll() }

// String renders the mask, e.g. "SrcIP/24+DstIP".
func (m Mask) String() string {
	var parts []string
	for f := Field(0); f < numFields; f++ {
		b := int(m.Bits[f])
		switch {
		case b == 0:
		case b == fieldBits[f]:
			parts = append(parts, f.String())
		default:
			parts = append(parts, fmt.Sprintf("%s/%d", f, b))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, "+")
}

// EvaluationMasks returns the six partial keys measured throughout §7 of
// the paper, in the order they are added as "number of keys" grows:
// 5-tuple, (SrcIP,DstIP), (SrcIP,SrcPort), (DstIP,DstPort), SrcIP, DstIP.
func EvaluationMasks() []Mask {
	return []Mask{
		MaskAll(),
		MaskFields(FieldSrcIP, FieldDstIP),
		MaskFields(FieldSrcIP, FieldSrcPort),
		MaskFields(FieldDstIP, FieldDstPort),
		MaskFields(FieldSrcIP),
		MaskFields(FieldDstIP),
	}
}
