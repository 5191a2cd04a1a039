package workload

import (
	"strings"
	"testing"
)

// TestFindTableDriven covers the lookup paths the parallel experiment
// fan-out depends on: every valid (network, layer) pair resolves, and the
// error paths name the missing pair.
func TestFindTableDriven(t *testing.T) {
	cases := []struct {
		network, layer string
		wantErr        bool
	}{
		{"ResNet", "C1", false},
		{"ResNet", "C8", false},
		{"GAN", "TC1", false},
		{"GAN", "C4", false},
		{"YOLO", "C6", false},
		{"VGG", "C1", true},     // unknown network
		{"ResNet", "C9", true},  // unknown layer in a known network
		{"ResNet", "TC1", true}, // layer name from the wrong network
		{"resnet", "C1", true},  // lookup is case-sensitive
		{"", "", true},          // empty pair
		{"YOLO", "", true},      // empty layer
		{"", "C1", true},        // empty network
	}
	for _, c := range cases {
		l, err := Find(c.network, c.layer)
		if c.wantErr {
			if err == nil {
				t.Errorf("Find(%q, %q): expected error, got %v", c.network, c.layer, l)
				continue
			}
			if !strings.Contains(err.Error(), c.network+"/"+c.layer) {
				t.Errorf("Find(%q, %q): error %q does not name the pair", c.network, c.layer, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Find(%q, %q): %v", c.network, c.layer, err)
			continue
		}
		if l.Network != c.network || l.Name != c.layer {
			t.Errorf("Find(%q, %q) = %s", c.network, c.layer, l.FullName())
		}
	}
}

// TestTrainingGemmsInvariants checks the shape invariants of every Table I
// layer's training decomposition — the kernels Fig. 14's fan-out builds.
func TestTrainingGemmsInvariants(t *testing.T) {
	for _, l := range AllLayers() {
		gs := TrainingGemms(l)
		if len(gs) != 3 {
			t.Fatalf("%s: %d training GEMMs, want 3", l.FullName(), len(gs))
		}
		fwd, dgrad, wgrad := gs[0], gs[1], gs[2]

		// fwd: the layer's own lowered GEMM under the layer's own name.
		if fwd.Conv == nil || *fwd.Conv != l.GemmParams() {
			t.Errorf("%s: fwd params %+v != GemmParams", l.FullName(), fwd.Conv)
		}
		if fwd.Name != l.FullName() {
			t.Errorf("%s: fwd name %q", l.FullName(), fwd.Name)
		}

		// dgrad: a valid lowered convolution whose output reconstructs the
		// forward input resolution, with C and K swapped.
		if dgrad.Conv == nil {
			t.Fatalf("%s: dgrad has no conv params", l.FullName())
		}
		if err := dgrad.Conv.Validate(); err != nil {
			t.Errorf("%s: dgrad invalid: %v", l.FullName(), err)
		}
		p := l.GemmParams()
		if dgrad.Conv.C != p.K || dgrad.Conv.K != p.C {
			t.Errorf("%s: dgrad channels %d->%d, want %d->%d",
				l.FullName(), dgrad.Conv.C, dgrad.Conv.K, p.K, p.C)
		}
		if dgrad.Conv.OutH() != p.H || dgrad.Conv.OutW() != p.W {
			t.Errorf("%s: dgrad output %dx%d, want input resolution %dx%d",
				l.FullName(), dgrad.Conv.OutH(), dgrad.Conv.OutW(), p.H, p.W)
		}
		if !strings.HasSuffix(dgrad.Name, "/dgrad") {
			t.Errorf("%s: dgrad name %q", l.FullName(), dgrad.Name)
		}

		// wgrad: a plain reduction GEMM (no workspace) with the filter
		// gradient's dimensions.
		if wgrad.Conv != nil {
			t.Errorf("%s: wgrad must be a plain GEMM", l.FullName())
		}
		if wgrad.M != p.K || wgrad.N != p.FH*p.FW*p.C || wgrad.K != p.GemmM() {
			t.Errorf("%s: wgrad dims %dx%dx%d, want %dx%dx%d",
				l.FullName(), wgrad.M, wgrad.N, wgrad.K, p.K, p.FH*p.FW*p.C, p.GemmM())
		}
		if wgrad.M <= 0 || wgrad.N <= 0 || wgrad.K <= 0 {
			t.Errorf("%s: wgrad dims must be positive", l.FullName())
		}
	}
}

// TestFindAllocatesNothing guards Find's place on the daemon's submit
// path: a successful lookup must not allocate.
func TestFindAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Find("YOLO", "C6"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Find allocated %.0f times per call, want 0", n)
	}
}
