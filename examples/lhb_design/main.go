// LHB design-space exploration on a single layer: size x associativity x
// eviction policy, the trade-off space behind §V-B/C/E. Useful when porting
// Duplo to a different GPU configuration.
//
//	go run ./examples/lhb_design [-net YOLO -layer C3]
package main

import (
	"flag"
	"fmt"
	"log"

	duplo "duplo/internal/core"
	"duplo/internal/energy"
	"duplo/internal/report"
	"duplo/internal/sim"
	"duplo/internal/workload"
)

func main() {
	net := flag.String("net", "YOLO", "network")
	layer := flag.String("layer", "C3", "layer")
	flag.Parse()

	l, err := workload.Find(*net, *layer)
	if err != nil {
		log.Fatal(err)
	}
	k, err := sim.NewConvKernel(l.FullName(), l.GemmParams())
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.TitanVConfig()
	cfg.SimSMs = 2
	cfg.MaxCTAs = 48

	base, err := sim.Run(cfg, k)
	if err != nil {
		log.Fatal(err)
	}
	em := energy.Default12nm()

	t := report.NewTable(fmt.Sprintf("LHB design space on %s", l.FullName()),
		"Design", "Improvement", "Hit rate", "DRAM delta", "Energy saving", "Area vs RF")
	designs := []struct {
		name string
		lhb  duplo.LHBConfig
	}{
		{"256 direct", duplo.LHBConfig{Entries: 256, Ways: 1}},
		{"512 direct", duplo.LHBConfig{Entries: 512, Ways: 1}},
		{"1024 direct", duplo.LHBConfig{Entries: 1024, Ways: 1}},
		{"1024 4-way", duplo.LHBConfig{Entries: 1024, Ways: 4}},
		{"2048 direct", duplo.LHBConfig{Entries: 2048, Ways: 1}},
		{"1024 modulo-indexed", duplo.LHBConfig{Entries: 1024, Ways: 1, ModuloIndex: true}},
		{"oracle", duplo.LHBConfig{Oracle: true}},
		{"never-evict limit", duplo.LHBConfig{Oracle: true, NeverEvict: true}},
	}
	for _, d := range designs {
		dcfg := cfg
		dcfg.Duplo = true
		dcfg.DetectCfg.LHB = d.lhb
		dup, err := sim.Run(dcfg, k)
		if err != nil {
			log.Fatal(err)
		}
		area := "-"
		if !d.lhb.Oracle {
			area = report.PctU(energy.AreaOverhead(d.lhb.Entries))
		}
		t.AddRowCells([]string{
			d.name,
			report.Pct(sim.Speedup(base, dup)),
			report.PctU(dup.LHBHitRate()),
			report.Pct(float64(dup.DRAMLines)/float64(base.DRAMLines) - 1),
			report.Pct(energy.OnChipSaving(em, base, dup)),
			area,
		})
	}
	fmt.Print(t)
	fmt.Println("\nThe paper picks 1024-entry direct-mapped: ~4/5 of the oracle's gain")
	fmt.Println("for a buffer smaller than 1% of the register file (§V-B, §V-H).")
}
