package duplo

import (
	"encoding/binary"
	"fmt"

	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// ConvInfo is the compile-time convolution information the compiler emits
// for Duplo (§IV-A): data and filter dimensions, striding distance, batch
// size, and the starting address of the workspace. It is stored in global
// memory and loaded into the detection unit at kernel launch; Serialize
// shows it fits the paper's 32 bytes.
type ConvInfo struct {
	Batch    uint16 // N, number of images (paper: up to 1,024)
	InH      uint16 // input height
	InW      uint16 // input width
	Channels uint16 // C
	FilterH  uint8
	FilterW  uint8
	Stride   uint8
	Pad      uint8
	OutH     uint16
	OutW     uint16
	KPad     uint32 // padded workspace row pitch in elements
	ElemSize uint8  // bytes per workspace element (2 = half precision)
	// Workspace region start address.
	Base uint64
}

// NewConvInfo derives the detection-unit programming from convolution
// parameters and the workspace layout.
func NewConvInfo(p conv.Params, l lowering.Layout) (ConvInfo, error) {
	if err := p.Validate(); err != nil {
		return ConvInfo{}, err
	}
	if p.N > 1024 {
		return ConvInfo{}, fmt.Errorf("duplo: batch %d exceeds the 10-bit batch ID (§IV-B)", p.N)
	}
	// The 32-byte format's field widths are hard limits: silently
	// truncating a dimension would zero an ID-generator divider (or worse,
	// derive wrong IDs), so reject anything that does not round-trip.
	if p.H > 0xFFFF || p.W > 0xFFFF || p.C > 0xFFFF {
		return ConvInfo{}, fmt.Errorf("duplo: input dims %dx%dx%d exceed the 16-bit fields", p.H, p.W, p.C)
	}
	if p.FH > 0xFF || p.FW > 0xFF || p.Stride > 0xFF || p.Pad > 0xFF {
		return ConvInfo{}, fmt.Errorf("duplo: filter %dx%d stride %d pad %d exceed the 8-bit fields", p.FH, p.FW, p.Stride, p.Pad)
	}
	if oh, ow := p.OutH(), p.OutW(); oh > 0xFFFF || ow > 0xFFFF {
		return ConvInfo{}, fmt.Errorf("duplo: output %dx%d exceeds the 16-bit fields", oh, ow)
	}
	if l.KPad <= 0 || int64(l.KPad) > 0xFFFFFFFF {
		return ConvInfo{}, fmt.Errorf("duplo: workspace row pitch %d out of range (1..2^32-1)", l.KPad)
	}
	if l.ElemSize <= 0 || l.ElemSize > 0xFF {
		return ConvInfo{}, fmt.Errorf("duplo: element size %d out of range (1..255)", l.ElemSize)
	}
	ci := ConvInfo{
		Batch:    uint16(p.N),
		InH:      uint16(p.H),
		InW:      uint16(p.W),
		Channels: uint16(p.C),
		FilterH:  uint8(p.FH),
		FilterW:  uint8(p.FW),
		Stride:   uint8(p.Stride),
		Pad:      uint8(p.Pad),
		OutH:     uint16(p.OutH()),
		OutW:     uint16(p.OutW()),
		KPad:     uint32(l.KPad),
		ElemSize: uint8(l.ElemSize),
		Base:     l.Base,
	}
	// The element ID must fit 32 bits: the paper sizes the ID to cover a
	// 4GB workspace.
	wp := uint64(p.W + 2*p.Pad)
	hp := uint64(p.H + 2*p.Pad)
	if wp*hp*uint64(p.C) > 1<<32 {
		return ConvInfo{}, fmt.Errorf("duplo: per-image element space exceeds 32-bit element ID")
	}
	// The ID generator indexes workspace elements in 32 bits; a larger
	// workspace would wrap the index and alias IDs.
	if elems := uint64(p.GemmM()) * uint64(l.KPad); elems > 1<<32 {
		return ConvInfo{}, fmt.Errorf("duplo: workspace of %d elements (%d rows x %d) exceeds the 2^32-element index", elems, p.GemmM(), l.KPad)
	}
	return ci, nil
}

// Serialize packs the convolution information into its 32-byte in-memory
// form (§IV-A: "the size of convolution information generated by the
// compiler totals only 32 bytes per kernel").
func (c ConvInfo) Serialize() [32]byte {
	var b [32]byte
	binary.LittleEndian.PutUint16(b[0:], c.Batch)
	binary.LittleEndian.PutUint16(b[2:], c.InH)
	binary.LittleEndian.PutUint16(b[4:], c.InW)
	binary.LittleEndian.PutUint16(b[6:], c.Channels)
	b[8] = c.FilterH
	b[9] = c.FilterW
	b[10] = c.Stride
	b[11] = c.Pad
	binary.LittleEndian.PutUint16(b[12:], c.OutH)
	binary.LittleEndian.PutUint16(b[14:], c.OutW)
	binary.LittleEndian.PutUint32(b[16:], c.KPad)
	b[20] = c.ElemSize
	binary.LittleEndian.PutUint64(b[24:], c.Base)
	return b
}

// DeserializeConvInfo unpacks the 32-byte form.
func DeserializeConvInfo(b [32]byte) ConvInfo {
	return ConvInfo{
		Batch:    binary.LittleEndian.Uint16(b[0:]),
		InH:      binary.LittleEndian.Uint16(b[2:]),
		InW:      binary.LittleEndian.Uint16(b[4:]),
		Channels: binary.LittleEndian.Uint16(b[6:]),
		FilterH:  b[8],
		FilterW:  b[9],
		Stride:   b[10],
		Pad:      b[11],
		OutH:     binary.LittleEndian.Uint16(b[12:]),
		OutW:     binary.LittleEndian.Uint16(b[14:]),
		KPad:     binary.LittleEndian.Uint32(b[16:]),
		ElemSize: b[20],
		Base:     binary.LittleEndian.Uint64(b[24:]),
	}
}
