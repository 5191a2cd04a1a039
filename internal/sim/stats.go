package sim

import (
	"fmt"

	duplo "duplo/internal/core"
)

// ServiceLevel identifies which component of the memory hierarchy supplied a
// load's data — the Fig. 11 breakdown.
type ServiceLevel int

const (
	ServiceLHB ServiceLevel = iota
	ServiceL1
	ServiceL2
	ServiceDRAM
	serviceLevels
)

// String names the level like the Fig. 11 legend.
func (s ServiceLevel) String() string {
	switch s {
	case ServiceLHB:
		return "LHB"
	case ServiceL1:
		return "L1$"
	case ServiceL2:
		return "L2$"
	case ServiceDRAM:
		return "DRAM"
	}
	return "?"
}

// Stats aggregates the counters one simulation produces.
type Stats struct {
	Cycles int64

	// Instruction counts (warp-level).
	Instructions    int64
	TensorLoads     int64 // wmma.load.a/b issued
	LoadsEliminated int64 // tensor-core-loads removed by Duplo renaming
	MMAs            int64
	Stores          int64

	// Issue-stall accounting (per scheduler-cycle with nothing issued).
	IssueStallCycles int64
	LDSTStallCycles  int64 // stalls caused by a full LDST queue (§V-B)

	// Memory-system event counts, in 128B-line units.
	L1Accesses int64 // line accesses presented to L1 (incl. parallel lookups)
	L1Hits     int64
	L2Accesses int64
	L2Hits     int64
	DRAMLines  int64 // lines transferred from DRAM
	StoreLines int64 // store line transactions (write-through)
	MSHRMerges int64

	// ServiceLines[level] counts line-equivalents supplied by each level
	// (LHB hits credit the lines the load would otherwise have fetched).
	ServiceLines [serviceLevels]int64

	// Duplo detection unit counters (aggregated over SMs).
	LHB duplo.LHBStats
	// Register sharing: renames vs fresh allocations.
	RenameCount int64
	AllocCount  int64
}

// Add accumulates other into s (used to merge per-SM stats in ascending id
// order). Every field is integer-summed (no floats).
func (s *Stats) Add(o Stats) {
	s.Instructions += o.Instructions
	s.TensorLoads += o.TensorLoads
	s.LoadsEliminated += o.LoadsEliminated
	s.MMAs += o.MMAs
	s.Stores += o.Stores
	s.IssueStallCycles += o.IssueStallCycles
	s.LDSTStallCycles += o.LDSTStallCycles
	s.L1Accesses += o.L1Accesses
	s.L1Hits += o.L1Hits
	s.L2Accesses += o.L2Accesses
	s.L2Hits += o.L2Hits
	s.DRAMLines += o.DRAMLines
	s.StoreLines += o.StoreLines
	s.MSHRMerges += o.MSHRMerges
	for i := range s.ServiceLines {
		s.ServiceLines[i] += o.ServiceLines[i]
	}
	s.LHB.Lookups += o.LHB.Lookups
	s.LHB.Hits += o.LHB.Hits
	s.LHB.Misses += o.LHB.Misses
	s.LHB.Allocs += o.LHB.Allocs
	s.LHB.Replacements += o.LHB.Replacements
	s.LHB.Releases += o.LHB.Releases
	s.LHB.StoreEvicts += o.LHB.StoreEvicts
	s.LHB.Relays += o.LHB.Relays
	s.RenameCount += o.RenameCount
	s.AllocCount += o.AllocCount
}

// DumpSummary renders the counters as one bounded key=value line for
// crash dumps (dump.go) — a per-SM progress snapshot, not an export
// format.
func (s Stats) DumpSummary() string {
	return fmt.Sprintf(
		"instr=%d tcloads=%d elim=%d mmas=%d stores=%d issueStall=%d ldstStall=%d l1=%d/%d l2=%d/%d dram=%d mshrMerge=%d lhb=%d/%d",
		s.Instructions, s.TensorLoads, s.LoadsEliminated, s.MMAs, s.Stores,
		s.IssueStallCycles, s.LDSTStallCycles,
		s.L1Hits, s.L1Accesses, s.L2Hits, s.L2Accesses,
		s.DRAMLines, s.MSHRMerges, s.LHB.Hits, s.LHB.Lookups)
}

// LHBHitRate is the aggregate LHB hit rate (Fig. 10).
func (s Stats) LHBHitRate() float64 { return s.LHB.HitRate() }

// EliminatedFraction is the fraction of tensor-core-loads removed (§V-B
// discusses the oracle eliminating ~76% of them).
func (s Stats) EliminatedFraction() float64 {
	if s.TensorLoads == 0 {
		return 0
	}
	return float64(s.LoadsEliminated) / float64(s.TensorLoads)
}

// ServiceBreakdown returns the fraction of load line-equivalents served by
// each level (Fig. 11).
func (s Stats) ServiceBreakdown() [serviceLevels]float64 {
	var total int64
	for _, v := range s.ServiceLines {
		total += v
	}
	var out [serviceLevels]float64
	if total == 0 {
		return out
	}
	for i, v := range s.ServiceLines {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// DRAMBytes returns the read traffic volume in bytes given the line size.
func (s Stats) DRAMBytes(lineBytes int) int64 { return s.DRAMLines * int64(lineBytes) }
