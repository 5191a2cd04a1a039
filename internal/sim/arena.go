package sim

import duplo "duplo/internal/core"

// Arena is a reusable bundle of per-run simulator state: the memory system,
// the per-SM states (L1 arrays, MSHR tables, warp contexts) and the per-SM
// Duplo detection units. A sweep's Nth cell hands the arena its (N-1)th
// cell's buffers back through RunPooledContext instead of rebuilding
// everything — newMemSystem plus SimSMs×newSM plus NewDetectionUnit is the
// dominant allocation of a short run.
//
// Reuse is component-wise: each cached component carries a fits() check
// against the next run's geometry (cache shapes, warp counts, scheduler
// counts, LHB configuration) and is reset in place when it fits or rebuilt
// when it does not, so heterogeneous sweeps (Duplo off/on, different LHB
// geometries, different SM counts) still reuse whatever matches. Detection
// units are cached in their own slots so a Duplo-off cell between two
// Duplo-on cells does not discard them.
//
// Correctness protocol: the arena is marked dirty when a run acquires it
// and clean again only when that run completes without error. A run that
// panics, is cancelled, or trips the watchdog leaves the arena dirty —
// half-mutated state is never reset-and-reused, the next run rebuilds from
// scratch. Every reset() restores its component to a state
// behavior-indistinguishable from freshly constructed; the pooled-vs-fresh
// differential matrix (pool_test.go) asserts byte-identical Results across
// clock modes, LHB geometries, and Duplo modes.
//
// An Arena is not safe for concurrent use: at most one Run may hold it at
// a time. The experiments Runner keeps one per worker via sync.Pool.
type Arena struct {
	mem *memSystem
	sms []*smState
	dus []*duplo.DetectionUnit
	// clean reports that the previous run using this arena completed
	// without error, so its components are in a resettable state.
	clean bool
}

// NewArena returns an empty arena; the first run through it builds fresh
// state and caches it.
func NewArena() *Arena { return &Arena{} }

// acquire marks the arena dirty and reports whether its cached components
// may be reused (the previous run completed cleanly).
func (a *Arena) acquire() bool {
	reuse := a.clean
	a.clean = false
	return reuse
}

// fits reports whether the array's geometry matches what newCacheArray
// would build for the given parameters.
func (c *cacheArray) fits(capacityBytes, lineBytes, ways int) bool {
	n := newGeometry(capacityBytes, lineBytes, ways)
	return c.sets == n.sets && c.ways == n.ways && c.lineShift == n.lineShift
}

// reset restores the array to its freshly-built state. Clearing the valid
// bits alone makes every stale entry unreachable — Lookup requires valid,
// and Insert picks invalid ways first and compares lru only among valid
// ones — so tags and lru keep their stale values without any behavioral
// trace. clock restarts so LRU generations match a fresh run exactly.
func (c *cacheArray) reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.clock = 0
}

// reset re-aims the memory system at a new run's config and stats sink,
// reusing the L2 array when its geometry fits. Returns false when it does
// not (the caller then builds a fresh memSystem).
func (m *memSystem) reset(cfg Config, stats *Stats) bool {
	l2Bytes := int(float64(cfg.L2KB<<10) * cfg.SliceScale())
	if !m.l2.fits(l2Bytes, cfg.LineBytes, cfg.L2Ways) {
		return false
	}
	m.l2.reset()
	bpc := cfg.DRAMBytesPerCycle() * cfg.SliceScale()
	m.cfg = cfg
	m.dramFree = 0
	m.dramCyclesPerLine = float64(cfg.LineBytes) / bpc
	m.dramFrac = 0
	m.stats = stats
	return true
}

// fits reports whether this SM's fixed-size storage (L1 geometry, warp
// slots, scheduler arrays) matches what newSM would build for cfg.
func (sm *smState) fits(cfg Config) bool {
	return sm.cfg.L1KB == cfg.L1KB && sm.cfg.LineBytes == cfg.LineBytes &&
		sm.cfg.Schedulers == cfg.Schedulers && sm.cfg.MaxWarpsPerSM == cfg.MaxWarpsPerSM
}

// reset restores the SM to its newSM state for a new run, keeping every
// backing array: warp slots are deactivated (placeCTA overwrites a slot
// wholesale when it claims one, recycling the regReady/rob arrays exactly
// as it does across CTA waves within a run), and the detection unit is
// detached (the run re-attaches one from the arena when Duplo is on).
func (sm *smState) reset(cfg Config, mem *memSystem, gpu *gpuState) {
	sm.cfg = cfg
	sm.mem = mem
	sm.gpu = gpu
	sm.du = nil
	sm.tr = cfg.Tracer
	sm.l1.reset()
	sm.mshr.Reset()
	sm.l1Port = 0
	for i := range sm.pbFree {
		sm.pbFree[i] = 0
	}
	for i := range sm.warps {
		sm.warps[i].active = false
	}
	for i := range sm.liveMask {
		sm.liveMask[i] = 0
	}
	for _, m := range sm.schedLive {
		for i := range m {
			m[i] = 0
		}
	}
	for i := range sm.greedy {
		sm.greedy[i] = -1
	}
	sm.ldstBusy = sm.ldstBusy[:0]
	sm.lhbRelease = sm.lhbRelease[:0]
	clear(sm.ctaWarpsLeft)
	sm.resident = 0
	sm.stats = Stats{}
	sm.lineBuf = sm.lineBuf[:0]
}
