package duplo

import (
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
	if st != StatusOK {
		return AccessResult{Kind: AccessBypass, Reg: InvalidReg}, seq
	}
	if reg, m, hit := d.lhb.Lookup(id, seq); hit {
		d.renames.RenameTo(warp, arch, reg)
		return AccessResult{Kind: AccessHit, Reg: reg, ID: id, Meta: m}, seq
	}
	reg := d.renames.Alloc(warp, arch)
	d.lhb.Insert(id, reg, seq, meta)
	return AccessResult{Kind: AccessMiss, Reg: reg, ID: id}, seq
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
