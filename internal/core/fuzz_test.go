package duplo

import (
	"testing"

	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// FuzzDetectionUnitProgram pins the hardening contract of the detection
// unit's programming interface: whatever convolution parameters and
// workspace layout it is handed, Program either rejects them with an error
// or the programmed unit survives an access/store hammer without
// panicking. The bug class this targets is field-width truncation zeroing
// an ID-generator divider (newDivider panics on zero), which NewConvInfo
// must reject up front. Seeds: a Table I layer, the Table II worked
// example, the unit-test layer, and a truncation probe at the 16-bit
// field boundary.
func FuzzDetectionUnitProgram(f *testing.F) {
	f.Add(8, 112, 112, 64, 3, 3, 1, 1, uint32(640), uint8(2), uint64(0x1000), 1024, 1)
	f.Add(1, 4, 4, 1, 3, 3, 0, 1, uint32(16), uint8(2), uint64(0x1000), 4, 1)
	f.Add(2, 16, 16, 16, 3, 3, 1, 1, uint32(144), uint8(2), uint64(0), 256, 2)
	f.Add(8, 65536, 4, 65536, 256, 3, 0, 1, uint32(0), uint8(0), uint64(1)<<40, 0, 0)
	f.Fuzz(func(t *testing.T, n, h, w, c, fh, fw, pad, stride int, kpad uint32, elem uint8, base uint64, entries, ways int) {
		cfg := DetectionUnitConfig{LHB: LHBConfig{Entries: entries, Ways: ways}, LatencyCycles: 2}
		du, err := NewDetectionUnit(cfg, 8, 32)
		if err != nil {
			// Invalid LHB shape: fall back to the default so the fuzz still
			// exercises Program with these convolution parameters.
			if du, err = NewDetectionUnit(DefaultDetectionUnitConfig(), 8, 32); err != nil {
				t.Fatal(err)
			}
		}
		p := conv.Params{N: n, H: h, W: w, C: c, K: 1, FH: fh, FW: fw, Pad: pad, Stride: stride}
		layout := lowering.Layout{Base: base, ElemSize: int(elem), KPad: int(kpad)}
		if err := du.Program(p, layout); err != nil {
			return // rejected programming is the defended outcome
		}
		// Programmed without error: the unit must be total over accesses
		// around (and below) the workspace base.
		for i := 0; i < 64; i++ {
			addr := base + uint64(i-8)*uint64(elem)
			_, seq := du.Access(i%8, i%32, addr, int64(i))
			du.Retire(addr, seq)
		}
		// Whole tiles at the workspace pitch, from below the base on.
		pitch := kpad * uint32(elem)
		for i := uint64(0); i < 4; i++ {
			addr := base - TileRows*uint64(pitch) + i*7*uint64(pitch)
			var res [TileRows]AccessResult
			seq := du.AccessTile(0, 0, addr, pitch, &res)
			du.RetireTile(addr, pitch, seq)
		}
		du.Store(base)
	})
}
