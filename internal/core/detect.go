package duplo

import (
	"math/bits"

	"duplo/internal/conv"
	"duplo/internal/lowering"
)

// AccessKind classifies the outcome of a detection-unit access.
type AccessKind uint8

const (
	// AccessBypass: the address is outside the workspace (or a padding
	// column); the load proceeds to L1 untouched (§IV-A).
	AccessBypass AccessKind = iota
	// AccessHit: a duplicate is present in the register file; the load is
	// eliminated and replaced by a rename.
	AccessHit
	// AccessMiss: a workspace load with no live duplicate; it goes to L1
	// and allocates an LHB entry.
	AccessMiss
)

// AccessResult is what the LDST unit learns from one detection-unit lookup.
type AccessResult struct {
	Kind AccessKind
	// Reg is the physical register group now mapped to the instruction's
	// destination (existing on hits, fresh on misses, InvalidReg on bypass).
	Reg PhysReg
	// ID is the generated pair (valid when Kind != AccessBypass).
	ID ID
	// Meta is the metadata stored with the hit entry (the register's
	// data-ready cycle in the simulator); zero on miss/bypass.
	Meta int64
}

// DetectionUnitConfig collects the microarchitectural knobs of §IV-A.
type DetectionUnitConfig struct {
	LHB LHBConfig
	// LatencyCycles is the ID-generator + LHB access latency, overlapped
	// with the L1 lookup (paper default 2; 3 costs ~0.9%, §IV-A).
	LatencyCycles int
	// PID is the process ID mixed into LHB tags.
	PID uint32
}

// DefaultDetectionUnitConfig returns the paper's design point.
func DefaultDetectionUnitConfig() DetectionUnitConfig {
	return DetectionUnitConfig{LHB: DefaultLHBConfig(), LatencyCycles: 2}
}

// DetectionUnit is the per-SM Duplo logic of Fig. 8: an ID generator and a
// load history buffer, programmed at kernel launch and consulted by the LDST
// unit on every tensor-core-load. It is power-gated between convolution
// kernels; Program models the wake-up.
type DetectionUnit struct {
	cfg     DetectionUnitConfig
	gen     *IDGen
	lhb     *LHB
	renames *RenameTable
	awake   bool
	seq     uint64 // global tensor-core-load sequence numbers
}

// NewDetectionUnit builds a powered-down unit; it must be Programmed with
// convolution information before use.
func NewDetectionUnit(cfg DetectionUnitConfig, warps, archRegs int) (*DetectionUnit, error) {
	lhb, err := NewLHB(cfg.LHB, cfg.PID)
	if err != nil {
		return nil, err
	}
	if cfg.LatencyCycles <= 0 {
		cfg.LatencyCycles = 2
	}
	return &DetectionUnit{
		cfg:     cfg,
		lhb:     lhb,
		renames: NewRenameTable(warps, archRegs),
	}, nil
}

// Program loads the compiler-generated convolution information at kernel
// launch, waking the unit (§IV-A).
func (d *DetectionUnit) Program(p conv.Params, layout lowering.Layout) error {
	ci, err := NewConvInfo(p, layout)
	if err != nil {
		return err
	}
	d.gen = NewIDGen(ci)
	d.awake = true
	return nil
}

// Awake reports whether the unit has been programmed (it is power-gated
// otherwise and every access bypasses).
func (d *DetectionUnit) Awake() bool { return d.awake }

// Latency returns the detection latency in cycles, overlapped with L1.
func (d *DetectionUnit) Latency() int { return d.cfg.LatencyCycles }

// TileRows is the number of row loads one tensor-core load expands into:
// a wmma.load fetches a 16x16 tile one 16-element row at a time (§II-B).
const TileRows = 16

// Access processes one tensor-core-load: warp and arch identify the
// destination register group, addr is the load address, and meta is stored
// with a newly allocated entry (the simulator passes the load's data-ready
// cycle; a later hit returns it so the renamed consumer waits on the
// original load's scoreboard entry). It returns how the load resolves and
// advances the load sequence number. The returned sequence number must be
// passed to Retire, with addr, when the instruction retires.
func (d *DetectionUnit) Access(warp, arch int, addr uint64, meta int64) (AccessResult, uint64) {
	seq := d.seq
	d.seq++
	if !d.awake {
		return AccessResult{Kind: AccessBypass, Reg: InvalidReg}, seq
	}
	id, st := d.gen.IDs(addr)
	return d.access(warp, arch, id, st == StatusOK, seq, meta), seq
}

// AccessTile is Access, with meta 0, for the TileRows row loads of one
// tensor-core load: row r reads addr + r*pitch, takes sequence number
// seq+r and resolves into res[r], in row order. The rows' IDs come from one
// IDGen.TileIDs call. The returned seq is what RetireTile takes when the
// load retires.
func (d *DetectionUnit) AccessTile(warp, arch int, addr uint64, pitch uint32, res *[TileRows]AccessResult) (seq uint64) {
	seq = d.seq
	d.seq += TileRows
	var ids [TileRows]ID
	ok := d.tileIDs(addr, pitch, &ids)
	for r := range res {
		res[r] = d.access(warp, arch, ids[r], ok>>r&1 != 0, seq+uint64(r), 0)
	}
	return seq
}

// access resolves one row load with sequence number seq whose ID is id; a
// row that is not tracked (outside the workspace, a padding column, or a
// powered-down unit) bypasses the buffer.
func (d *DetectionUnit) access(warp, arch int, id ID, tracked bool, seq uint64, meta int64) AccessResult {
	if !tracked {
		return AccessResult{Kind: AccessBypass, Reg: InvalidReg}
	}
	if reg, m, hit := d.lhb.Lookup(id, seq); hit {
		d.renames.RenameTo(warp, arch, reg)
		return AccessResult{Kind: AccessHit, Reg: reg, ID: id, Meta: m}
	}
	reg := d.renames.Alloc(warp, arch)
	d.lhb.Insert(id, reg, seq, meta)
	return AccessResult{Kind: AccessMiss, Reg: reg, ID: id}
}

// tileIDs is IDGen.TileIDs, with no row tracked while the unit is
// powered down.
func (d *DetectionUnit) tileIDs(addr uint64, pitch uint32, ids *[TileRows]ID) uint16 {
	if !d.awake {
		return 0
	}
	return d.gen.TileIDs(addr, pitch, ids)
}

// SetMeta updates the metadata of the entry currently mapping id, if live.
// The simulator calls it when a miss's completion time becomes known after
// the lookup was made.
func (d *DetectionUnit) SetMeta(id ID, meta int64) { d.lhb.SetMeta(id, meta) }

// Retire releases the LHB entry owned by the retiring load with sequence
// number seq, which accessed addr (§IV-B). The ID is regenerated from the
// address; a load that bypassed the buffer owns no entry.
func (d *DetectionUnit) Retire(addr, seq uint64) {
	if !d.awake {
		return
	}
	if id, st := d.gen.IDs(addr); st == StatusOK {
		d.lhb.Retire(id, seq)
	}
}

// RetireTile is Retire for the TileRows row loads of one tensor-core load
// that AccessTile resolved from addr and pitch under sequence numbers
// seq, seq+1, ...: it regenerates their IDs with one TileIDs call.
func (d *DetectionUnit) RetireTile(addr uint64, pitch uint32, seq uint64) {
	var ids [TileRows]ID
	for ok := d.tileIDs(addr, pitch, &ids); ok != 0; ok &= ok - 1 {
		r := bits.TrailingZeros16(ok)
		d.lhb.Retire(ids[r], seq+uint64(r))
	}
}

// Store models a store hitting the workspace region: matching LHB entries
// are invalidated for consistency (§IV-B).
func (d *DetectionUnit) Store(addr uint64) {
	if !d.awake {
		return
	}
	if id, st := d.gen.IDs(addr); st == StatusOK {
		d.lhb.StoreInvalidate(id)
	}
}

// LHBStats exposes the buffer counters.
func (d *DetectionUnit) LHBStats() LHBStats { return d.lhb.Stats }

// Renames exposes the rename table (for stats and tests).
func (d *DetectionUnit) Renames() *RenameTable { return d.renames }
