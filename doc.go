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
//   - internal/conv, lowering, tensor — layer algebra, the im2col workspace
//     layout, and the direct/transposed convolutions the lowering is
//     tested against;
//   - internal/memmodel, costmodel, energy — the analytic memory, time and
//     energy models (Fig. 2/3, §V-H);
//   - internal/workload, experiments — Table I and every figure/table of
//     the paper's evaluation;
//   - internal/store, predictor, serving, server, fault — the result store,
//     the calibrated predictor, the cluster serving DES, the HTTP daemon and
//     its fault injection;
//   - internal/trace, flat, report, profiling — tracing, the simulator's
//     hash table, table rendering and pprof wiring;
//   - cmd/duplosim, cmd/duploexp, cmd/duploserved — the command-line
//     tools and the HTTP daemon;
//   - examples/ — runnable walk-throughs.
//
// See README.md, DESIGN.md and EXPERIMENTS.md.
package duplo
