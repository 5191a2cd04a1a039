// Quickstart: describe a small convolution's lowered GEMM and simulate it
// on the modeled GPU with and without the Duplo detection unit.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"duplo/internal/conv"
	"duplo/internal/sim"
)

func main() {
	// A small convolutional layer: 2 images of 32x32x16, 32 filters of
	// 3x3, stride 1, "same" padding — the shape class where lowering
	// creates ~9x data duplication.
	p := conv.Params{N: 2, H: 32, W: 32, C: 16, K: 32, FH: 3, FW: 3, Pad: 1, Stride: 1}
	fmt.Println("layer:", p)
	fmt.Printf("GEMM dims: M=%d N=%d K=%d, workspace duplication %.2fx\n\n",
		p.GemmM(), p.GemmN(), p.GemmK(), p.DuplicationFactor())

	// Timing: simulate the tensor-core GEMM kernel on the Table III GPU.
	k, err := sim.NewConvKernel("quickstart", p)
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
	cfg.Duplo = true
	dup, err := sim.Run(cfg, k)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("baseline: %d cycles, %d DRAM lines\n", base.Cycles, base.DRAMLines)
	fmt.Printf("duplo:    %d cycles, %d DRAM lines, %d loads eliminated (LHB hit rate %.1f%%)\n",
		dup.Cycles, dup.DRAMLines, dup.LoadsEliminated, 100*dup.LHBHitRate())
	fmt.Printf("performance improvement: %+.1f%%\n", 100*sim.Speedup(base, dup))
}
