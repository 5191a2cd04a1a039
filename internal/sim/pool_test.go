package sim

import (
	"context"
	"testing"

	duplo "duplo/internal/core"
	"duplo/internal/workload"
)

// poolCells builds the heterogeneous cell sequence the pooled differential
// tests push through one arena: alternating Duplo off / set-assoc / oracle
// and clock modes, so every reuse transition (detection unit cached across
// a Duplo-off cell, geometry changes forcing rebuilds) is exercised back to
// back.
func poolCells(t *testing.T) []struct {
	name string
	cfg  Config
	k    *Kernel
} {
	t.Helper()
	k1, err := NewConvKernel("pool-a", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	l, err := workload.Find("ResNet", "C2")
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewConvKernel(l.FullName(), l.GemmParams())
	if err != nil {
		t.Fatal(err)
	}
	base := func() Config {
		cfg := testConfig()
		cfg.MaxCTAs = 8
		return cfg
	}
	var cells []struct {
		name string
		cfg  Config
		k    *Kernel
	}
	add := func(name string, k *Kernel, mut func(*Config)) {
		cfg := base()
		mut(&cfg)
		cells = append(cells, struct {
			name string
			cfg  Config
			k    *Kernel
		}{name, cfg, k})
	}
	add("base", k1, func(c *Config) {})
	add("duplo", k1, func(c *Config) {
		c.Duplo = true
		c.DetectCfg.LHB = duplo.DefaultLHBConfig()
	})
	add("oracle/dense", k1, func(c *Config) {
		c.Duplo = true
		c.DetectCfg.LHB = duplo.LHBConfig{Oracle: true}
		c.DenseClock = true
	})
	// Different LHB geometry: the cached unit must fail Fits and rebuild.
	add("duplo256x2", k2, func(c *Config) {
		c.Duplo = true
		c.DetectCfg.LHB = duplo.LHBConfig{Entries: 256, Ways: 2}
	})
	// Different SM count and L1: memSystem and smState rebuild paths.
	add("duplo/wide", k2, func(c *Config) {
		c.Duplo = true
		c.DetectCfg.LHB = duplo.DefaultLHBConfig()
		c.SimSMs = 3
		c.L1KB = 64
	})
	add("base/narrow", k2, func(c *Config) { c.SimSMs = 1 })
	return cells
}

// TestPooledRunsByteIdentical drives the heterogeneous cell sequence twice
// through one arena (so every cell both inherits dirty-from-previous state
// and donates to the next) and requires each pooled Result to be
// byte-identical to a fresh-state RunContext of the same cell.
func TestPooledRunsByteIdentical(t *testing.T) {
	cells := poolCells(t)
	ar := NewArena()
	for pass := 0; pass < 2; pass++ {
		for _, cell := range cells {
			fresh, err := Run(cell.cfg, cell.k)
			if err != nil {
				t.Fatalf("pass %d %s fresh: %v", pass, cell.name, err)
			}
			pooled, err := RunPooledContext(context.Background(), cell.cfg, cell.k, ar)
			if err != nil {
				t.Fatalf("pass %d %s pooled: %v", pass, cell.name, err)
			}
			if fresh.Stats != pooled.Stats {
				t.Errorf("pass %d %s: pooled run diverged\nfresh:  %+v\npooled: %+v",
					pass, cell.name, fresh.Stats, pooled.Stats)
			}
			if fresh.SimulatedCTAs != pooled.SimulatedCTAs || fresh.TotalCTAs != pooled.TotalCTAs {
				t.Errorf("pass %d %s: CTA counts diverged: %d/%d vs %d/%d", pass, cell.name,
					fresh.SimulatedCTAs, fresh.TotalCTAs, pooled.SimulatedCTAs, pooled.TotalCTAs)
			}
		}
	}
}

// TestPooledArenaDirtyAfterError checks the invalidate-on-error protocol: a
// run that dies mid-flight (cycle bound) leaves the arena dirty, and the
// next pooled run — which must rebuild rather than reset the half-mutated
// state — still matches a fresh run exactly.
func TestPooledArenaDirtyAfterError(t *testing.T) {
	k, err := NewConvKernel("pool-err", testLayer)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Duplo = true
	cfg.DetectCfg.LHB = duplo.DefaultLHBConfig()

	ar := NewArena()
	if _, err := RunPooledContext(context.Background(), cfg, k, ar); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	if !ar.clean {
		t.Fatal("arena not clean after successful run")
	}

	bounded := cfg
	bounded.MaxCycles = 50
	if _, err := RunPooledContext(context.Background(), bounded, k, ar); err == nil {
		t.Fatal("expected the cycle-bounded run to fail")
	}
	if ar.clean {
		t.Fatal("arena still clean after a failed run")
	}

	fresh, err := Run(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunPooledContext(context.Background(), cfg, k, ar)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats != pooled.Stats {
		t.Errorf("post-error pooled run diverged\nfresh:  %+v\npooled: %+v", fresh.Stats, pooled.Stats)
	}
	if !ar.clean {
		t.Error("arena not clean after recovery run")
	}
}

// TestPooledMatrixQuickGrid is the pooled differential matrix at fig9
// quick scale: {duplo off, LHB 1024, oracle} x {dense, event}, all through
// one arena in sequence, each compared against fresh state.
func TestPooledMatrixQuickGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	layers := [][2]string{{"ResNet", "C2"}, {"GAN", "TC4"}}
	modes := []struct {
		name string
		set  func(*Config)
	}{
		{"base", func(*Config) {}},
		{"duplo1024", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Entries: 1024, Ways: 1}
		}},
		{"oracle", func(c *Config) {
			c.Duplo = true
			c.DetectCfg.LHB = duplo.LHBConfig{Oracle: true}
		}},
	}
	ar := NewArena()
	for _, id := range layers {
		l, err := workload.Find(id[0], id[1])
		if err != nil {
			t.Fatal(err)
		}
		k, err := NewConvKernel(l.FullName(), l.GemmParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			for _, dense := range []bool{false, true} {
				cfg := TitanVConfig()
				cfg.MaxCTAs = 12
				cfg.SimSMs = 2
				cfg.DenseClock = dense
				m.set(&cfg)
				name := l.FullName() + "/" + m.name
				fresh, err := Run(cfg, k)
				if err != nil {
					t.Fatalf("%s fresh: %v", name, err)
				}
				pooled, err := RunPooledContext(context.Background(), cfg, k, ar)
				if err != nil {
					t.Fatalf("%s pooled: %v", name, err)
				}
				if fresh.Stats != pooled.Stats {
					t.Errorf("%s (dense=%v): pooled diverged\nfresh:  %+v\npooled: %+v",
						name, dense, fresh.Stats, pooled.Stats)
				}
			}
		}
	}
}
