package sim

import "context"

// Arena, NewArena and RunPooledContext are a compatibility shim: every
// RunContext builds its memory system, SM states and detection units
// fresh, so an Arena holds nothing. They stay because the benchmark module
// (perfbench, a separate Go module) still calls NewArena and
// RunPooledContext, and a missing symbol there fails every benchmark run
// before it measures anything. Delete them once perfbench calls RunContext.
type Arena struct{}

// NewArena returns an Arena, which RunPooledContext ignores.
func NewArena() *Arena { return &Arena{} }

// RunPooledContext is RunContext; the arena is ignored.
func RunPooledContext(ctx context.Context, cfg Config, k *Kernel, _ *Arena) (Result, error) {
	return RunContext(ctx, cfg, k)
}
