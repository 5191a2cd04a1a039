// Package duplo is a from-scratch Go reproduction of "Duplo: Lifting
// Redundant Memory Accesses of Deep Neural Networks for GPU Tensor Cores"
// (MICRO 2020).
//
// The root package only anchors the module; the implementation lives under
// internal/:
//
//   - internal/core — the Duplo detection unit (ID generator, load history
//     buffer, warp register renaming);
//   - internal/sim — the cycle-level GPU tensor-core simulator;
//   - internal/conv, lowering, gemm, winograd, fftconv — the convolution
//     substrates;
//   - internal/workload, experiments — Table I and every figure/table of
//     the paper's evaluation;
//   - cmd/duplosim, cmd/duploexp, cmd/duploserved — the command-line
//     tools and the HTTP daemon;
//   - examples/ — runnable walk-throughs.
//
// See README.md, DESIGN.md and EXPERIMENTS.md.
package duplo
