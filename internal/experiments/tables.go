package experiments

import (
	"fmt"

	"duplo/internal/conv"
	duplo "duplo/internal/core"
	"duplo/internal/lowering"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

// Table1 reproduces Table I: the configuration of the convolutional layers.
func Table1() *report.Table {
	t := report.NewTable("Table I: Configuration of Convolutional Layers in DNNs",
		"Network", "Layer", "Input(NHWC)", "Filter(KHWC)", "Pad", "Stride")
	for _, l := range workload.AllLayers() {
		p := l.Params
		t.AddRow(l.Network, l.Name,
			fmt.Sprintf("%dx%dx%dx%d", p.N, p.H, p.W, p.C),
			fmt.Sprintf("%dx%dx%dx%d", p.K, p.FH, p.FW, p.C),
			p.Pad, p.Stride)
	}
	return t
}

// Table2 reproduces Table II: the Duplo workflow example on the Fig. 6
// workspace, executed on a real detection unit.
func Table2() (*report.Table, error) {
	p := conv.Params{N: 1, H: 4, W: 4, C: 1, K: 1, FH: 3, FW: 3, Pad: 0, Stride: 1}
	layout := lowering.NewLayout(p, 0x1000, 2)
	du, err := duplo.NewDetectionUnit(duplo.DetectionUnitConfig{
		LHB:           duplo.LHBConfig{Entries: 4, Ways: 1, ModuloIndex: true},
		LatencyCycles: 2,
	}, 4, 16)
	if err != nil {
		return nil, err
	}
	if err := du.Program(p, layout); err != nil {
		return nil, err
	}
	t := report.NewTable("Table II: Duplo Workflow Using the LHB",
		"Inst", "Op", "array_idx", "element_ID", "LHB entry", "LHB status", "Renaming", "LHB operation")

	type step struct {
		op       string
		arrayIdx int // -1: non-workspace load
		dst      int
	}
	steps := []step{
		{"wmma.load.a %r4", 2, 4},
		{"wmma.load.b %r2", -1, 2},
		{"wmma.load.a %r3", 10, 3},
		{"wmma.load.a %r8", 28, 8},
	}
	for i, s := range steps {
		var addr uint64 = 0x9000_0000
		if s.arrayIdx >= 0 {
			addr = layout.Addr(s.arrayIdx/9, s.arrayIdx%9)
		}
		before := du.LHBStats()
		res, _ := du.Access(0, s.dst, addr, 0)
		after := du.LHBStats()
		idx, elem, status, rename, op := "-", "-", "N/A", "-", "N/A"
		if s.arrayIdx >= 0 {
			idx = fmt.Sprint(s.arrayIdx)
		}
		switch res.Kind {
		case duplo.AccessHit:
			elem = fmt.Sprint(res.ID.Elem)
			status = "Hit"
			rename = fmt.Sprintf("%%r%d -> %%p%d", s.dst, res.Reg)
			op = "Register reuse"
		case duplo.AccessMiss:
			elem = fmt.Sprint(res.ID.Elem)
			status = "Miss"
			rename = fmt.Sprintf("%%r%d -> %%p%d", s.dst, res.Reg)
			if after.Replacements > before.Replacements {
				op = "Entry replacement"
			} else {
				op = "Entry allocation"
			}
		}
		entry := "-"
		if res.Kind != duplo.AccessBypass {
			entry = fmt.Sprint(res.ID.Elem % 4)
		}
		t.AddRow(i+1, s.op, idx, elem, entry, status, rename, op)
	}
	return t, nil
}

// Table3 reproduces Table III: the baseline GPU configuration.
func Table3() *report.Table {
	cfg := sim.TitanVConfig()
	t := report.NewTable("Table III: Configuration of Baseline GPU Model", "Parameter", "Value")
	t.AddRow("# of SMs", sim.NumSMs)
	t.AddRow("Clock frequency", fmt.Sprintf("%dMHz", cfg.ClockMHz))
	t.AddRow("Max # of CTAs/SM", sim.MaxCTAsPerSM)
	t.AddRow("Max # of warps/SM", sim.MaxWarpsPerSM)
	t.AddRow("Warp schedulers/SM", sim.Schedulers)
	t.AddRow("Warp scheduling policy", "Greedy-then-oldest (GTO)")
	t.AddRow("Tensor cores/SM", sim.TensorCores)
	t.AddRow("Register file/SM", fmt.Sprintf("%dKB", sim.RegFileKB))
	t.AddRow("Unified L1 cache/SM", fmt.Sprintf("%dKB", cfg.L1KB))
	t.AddRow("L2 cache", fmt.Sprintf("%.1fMB, %d ways, %d cycles", float64(cfg.L2KB)/1024, sim.L2Ways, sim.L2LatencyCycles))
	t.AddRow("DRAM bandwidth", fmt.Sprintf("%.1fGB/s", sim.DRAMBandwidth))
	return t
}
