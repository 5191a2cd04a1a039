// Package workload defines the DNN layer zoo of Table I (ResNet, GAN, YOLO)
// and the network-level pass compositions used by the experiments.
package workload

import (
	"fmt"

	"duplo/internal/conv"
)

// Layer is one row of Table I.
type Layer struct {
	Network string // "ResNet", "GAN", "YOLO"
	Name    string // "C1", "TC2", ...
	// Transposed marks GAN's TC layers (§II-A): they are executed by
	// lowering to the zero-dilated equivalent convolution.
	Transposed bool
	Params     conv.Params
}

// FullName returns e.g. "ResNet/C3".
func (l Layer) FullName() string { return l.Network + "/" + l.Name }

// GemmParams returns the convolution parameters the GPU actually lowers:
// the layer itself, or the dilated direct equivalent for transposed layers.
func (l Layer) GemmParams() conv.Params {
	if l.Transposed {
		return conv.TransposedEquivalentParams(l.Params)
	}
	return l.Params
}

// Table I of the paper, verbatim: Input is NHWC, Filter is KHWC (the paper
// prints filter shapes as NHWC with N = filter count).
var (
	// ResNet [6] layers C1-C8.
	ResNet = []Layer{
		{"ResNet", "C1", false, conv.Params{N: 8, H: 224, W: 224, C: 3, K: 64, FH: 7, FW: 7, Pad: 3, Stride: 2}},
		{"ResNet", "C2", false, conv.Params{N: 8, H: 56, W: 56, C: 64, K: 64, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"ResNet", "C3", false, conv.Params{N: 8, H: 56, W: 56, C: 64, K: 128, FH: 3, FW: 3, Pad: 0, Stride: 2}},
		{"ResNet", "C4", false, conv.Params{N: 8, H: 28, W: 28, C: 128, K: 128, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"ResNet", "C5", false, conv.Params{N: 8, H: 28, W: 28, C: 128, K: 256, FH: 3, FW: 3, Pad: 0, Stride: 2}},
		{"ResNet", "C6", false, conv.Params{N: 8, H: 14, W: 14, C: 256, K: 256, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"ResNet", "C7", false, conv.Params{N: 8, H: 14, W: 14, C: 256, K: 512, FH: 3, FW: 3, Pad: 0, Stride: 2}},
		{"ResNet", "C8", false, conv.Params{N: 8, H: 7, W: 7, C: 512, K: 512, FH: 3, FW: 3, Pad: 1, Stride: 1}},
	}

	// GAN [31] layers: four transposed convolutions (the generator) and
	// four convolutions (the discriminator).
	GAN = []Layer{
		{"GAN", "TC1", true, conv.Params{N: 8, H: 4, W: 4, C: 512, K: 256, FH: 5, FW: 5, Pad: 2, Stride: 2}},
		{"GAN", "TC2", true, conv.Params{N: 8, H: 8, W: 8, C: 256, K: 128, FH: 5, FW: 5, Pad: 2, Stride: 2}},
		{"GAN", "TC3", true, conv.Params{N: 8, H: 16, W: 16, C: 128, K: 64, FH: 5, FW: 5, Pad: 2, Stride: 2}},
		{"GAN", "TC4", true, conv.Params{N: 8, H: 32, W: 32, C: 64, K: 3, FH: 5, FW: 5, Pad: 2, Stride: 2}},
		{"GAN", "C1", false, conv.Params{N: 8, H: 64, W: 64, C: 3, K: 64, FH: 5, FW: 5, Pad: 2, Stride: 2}},
		{"GAN", "C2", false, conv.Params{N: 8, H: 32, W: 32, C: 64, K: 128, FH: 5, FW: 5, Pad: 2, Stride: 2}},
		{"GAN", "C3", false, conv.Params{N: 8, H: 16, W: 16, C: 128, K: 256, FH: 5, FW: 5, Pad: 2, Stride: 2}},
		{"GAN", "C4", false, conv.Params{N: 8, H: 8, W: 8, C: 256, K: 512, FH: 5, FW: 5, Pad: 2, Stride: 2}},
	}

	// YOLO [33] layers C1-C6.
	YOLO = []Layer{
		{"YOLO", "C1", false, conv.Params{N: 8, H: 224, W: 224, C: 3, K: 32, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"YOLO", "C2", false, conv.Params{N: 8, H: 112, W: 112, C: 32, K: 64, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"YOLO", "C3", false, conv.Params{N: 8, H: 56, W: 56, C: 64, K: 128, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"YOLO", "C4", false, conv.Params{N: 8, H: 28, W: 28, C: 128, K: 256, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"YOLO", "C5", false, conv.Params{N: 8, H: 14, W: 14, C: 256, K: 512, FH: 3, FW: 3, Pad: 1, Stride: 1}},
		{"YOLO", "C6", false, conv.Params{N: 8, H: 7, W: 7, C: 512, K: 1024, FH: 3, FW: 3, Pad: 1, Stride: 1}},
	}
)

// Networks maps network names to their layer lists.
func Networks() map[string][]Layer {
	return map[string][]Layer{"ResNet": ResNet, "GAN": GAN, "YOLO": YOLO}
}

// NetworkNames in the paper's presentation order.
func NetworkNames() []string { return []string{"ResNet", "GAN", "YOLO"} }

// AllLayers returns the 22 layers in Table I order.
func AllLayers() []Layer {
	out := make([]Layer, 0, len(ResNet)+len(GAN)+len(YOLO))
	out = append(out, ResNet...)
	out = append(out, GAN...)
	out = append(out, YOLO...)
	return out
}

// Find returns the layer with the given network and name. It runs on
// every duploserved submit, so it scans the three tables in place and
// allocates nothing when the layer exists.
func Find(network, name string) (Layer, error) {
	for _, layers := range [...][]Layer{ResNet, GAN, YOLO} {
		for _, l := range layers {
			if l.Network == network && l.Name == name {
				return l, nil
			}
		}
	}
	return Layer{}, fmt.Errorf("workload: no layer %s/%s", network, name)
}

// TrainingGemm describes one GEMM of a layer's backward pass (Fig. 14
// training runs). Each convolutional layer trains with three GEMMs: the
// forward pass (lowered workspace, Duplo-eligible), the data-gradient pass
// (also a lowered workspace: dgrad is a convolution of the output gradient
// with the transposed filter, so the dilated gradient workspace has the
// same duplication structure), and the weight-gradient pass (a plain
// reduction GEMM with no im2col workspace, which Duplo cannot help).
type TrainingGemm struct {
	// Name labels the GEMM: the layer's FullName for the forward GEMM,
	// which is the layer's own kernel, and "<layer>/dgrad" or
	// "<layer>/wgrad" for the two backward GEMMs.
	Name string
	// Conv is set when the GEMM has a lowered-workspace A operand.
	Conv *conv.Params
	// Plain GEMM dims when Conv is nil.
	M, N, K int
}

// TrainingGemms returns the three GEMMs of one layer's training step.
func TrainingGemms(l Layer) []TrainingGemm {
	fwd := l.GemmParams()
	// dgrad: convolve the (dilated, for stride>1) output gradient with the
	// 180-degree-rotated filter to produce the input gradient. As a lowered
	// GEMM: M = N*H*W (input positions), K = FH*FW*K_filters, N = C.
	g := conv.Params{
		N: fwd.N, H: fwd.OutH(), W: fwd.OutW(), C: fwd.K,
		K: fwd.C, FH: fwd.FH, FW: fwd.FW,
		Pad: fwd.FH - 1 - fwd.Pad, Stride: 1,
	}
	if g.Pad < 0 {
		g.Pad = 0
	}
	if fwd.Stride > 1 {
		// Zero-dilate the gradient back to input resolution.
		g.H = fwd.OutH() * fwd.Stride
		g.W = fwd.OutW() * fwd.Stride
	}
	// wgrad: dW[k, fy, fx, c] = sum over (n, oy, ox) dy * x — a plain GEMM
	// of M = K_filters, N = FH*FW*C, K = N*OutH*OutW with no workspace
	// duplication structure Duplo could use.
	return []TrainingGemm{
		{Name: l.FullName(), Conv: &fwd},
		{Name: l.FullName() + "/dgrad", Conv: &g},
		{Name: l.FullName() + "/wgrad", M: fwd.K, N: fwd.FH * fwd.FW * fwd.C, K: fwd.GemmM()},
	}
}
