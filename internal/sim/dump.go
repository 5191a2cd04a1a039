package sim

import (
	"fmt"
	"os"
	"strings"

	"duplo/internal/trace"
)

// This file writes crash dumps: when the forward-progress watchdog fires
// or a panic is contained, the postmortem pipeline state — per-SM ROB
// heads, scoreboards, MSHR occupancy, LHB release queues — plus the tail
// of the attached trace ring buffer is serialized to a file the returned
// *SimError references (DESIGN.md §5 "Robustness").

// Dump bounds: state sections are truncated, never the whole file — a
// dump must stay readable, not complete.
const (
	dumpMaxWarpsPerSM = 8  // active warp lines per SM
	dumpTailEvents    = 32 // trailing trace-ring events per SM
)

// writeCrashDump serializes g's pipeline state into a fresh file under
// Config.CrashDumpDir (os.TempDir() when empty) and returns its path. Best
// effort by contract: the caller folds any error into the SimError's
// reason instead of masking the original failure.
func writeCrashDump(g *gpuState, se *SimError) (string, error) {
	dir := g.cfg.CrashDumpDir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "duplo-crash-"+sanitizeDumpName(g.kernel.Name)+"-*.txt")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	// The dump formatter reads a pipeline that just crashed — its state may
	// be arbitrarily corrupted (that corruption is often WHY we are here).
	// A formatting panic degrades to a truncated dump, never a new crash.
	func() {
		defer func() {
			if r := recover(); r != nil {
				fmt.Fprintf(&b, "\n[dump truncated: formatter panicked: %v]\n", r)
			}
		}()
		// Sleeping SMs' stall counters lag their skipped ticks: settle
		// every SM through the cycle before the failure so the dumped
		// counters read as the dense clock's would.
		for _, sm := range g.sms {
			sm.settle(se.Cycle)
		}
		formatCrashDump(&b, g, se)
	}()
	_, werr := f.WriteString(b.String())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(f.Name())
		return "", werr
	}
	return f.Name(), nil
}

// sanitizeDumpName maps a kernel name ("ResNet/C2@b16") onto a safe file
// name fragment.
func sanitizeDumpName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}

// formatCrashDump renders the postmortem text. It runs on the goroutine
// that ran the cycle loop, after the loop stopped.
func formatCrashDump(b *strings.Builder, g *gpuState, se *SimError) {
	fmt.Fprintf(b, "duplo crash dump\n")
	fmt.Fprintf(b, "phase:  %s\n", se.Phase)
	fmt.Fprintf(b, "cycle:  %d\n", se.Cycle)
	fmt.Fprintf(b, "reason: %s\n", se.Reason)
	fmt.Fprintf(b, "kernel: %s (variant %s, %d CTAs total, %d simulated)\n",
		g.kernel.Name, g.kernel.Variant, g.kernel.TotalCTAs(), g.totalCTAs)
	fmt.Fprintf(b, "config: sms=%d ctas=%d duplo=%v lhb={e=%d w=%d oracle=%v} dense=%v retireDelay=%d ldstDepth=%d\n",
		g.cfg.SimSMs, g.cfg.MaxCTAs, g.cfg.Duplo,
		g.cfg.DetectCfg.LHB.Entries, g.cfg.DetectCfg.LHB.Ways, g.cfg.DetectCfg.LHB.Oracle,
		g.cfg.DenseClock, g.cfg.RetireDelay, g.cfg.LDSTQueueDepth)
	fmt.Fprintf(b, "chip:   nextCTA=%d/%d progress=%d lastProgressAt=%d watchdogWindow=%d\n",
		g.nextCTA, g.totalCTAs, g.progress, g.guard.lastProgressAt, g.guard.window)

	for _, sm := range g.sms {
		fmt.Fprintf(b, "\nSM %d: resident=%d wake=%s l1Port=%d ldst=%s mshr=%d lhbRelease=%s\n",
			sm.id, sm.resident, dumpCycle(sm.wake), sm.l1Port, dumpQueue(sm.ldstBusy, sm.cfg.LDSTQueueDepth),
			sm.mshr.Len(), dumpReleases(sm.lhbRelease))
		fmt.Fprintf(b, "  stats: %s\n", sm.stats.DumpSummary())
		shown, active := 0, 0
		for s := range sm.warps {
			w := &sm.warps[s]
			if !w.active {
				continue
			}
			active++
			if shown >= dumpMaxWarpsPerSM {
				continue
			}
			shown++
			progLen := -1 // a nil program is itself diagnostic; keep dumping
			if w.prog != nil {
				progLen = w.prog.Len()
			}
			fmt.Fprintf(b, "  warp %2d: cta=%d pc=%d/%d rob=%d/%d", w.slot, w.cta, w.pc, progLen, w.robHead, len(w.rob))
			if !w.robEmpty() {
				fmt.Fprintf(b, " head.complete=%d", w.rob[w.robHead].complete)
			}
			// Scoreboard: the earliest and latest register-ready cycles tell
			// a livelock (farFuture gates) from a long memory stall.
			if len(w.regReady) > 0 {
				lo, hi := w.regReady[0], w.regReady[0]
				for _, t := range w.regReady[1:] {
					if t < lo {
						lo = t
					}
					if t > hi {
						hi = t
					}
				}
				fmt.Fprintf(b, " regReady=[%s..%s]", dumpCycle(lo), dumpCycle(hi))
			}
			b.WriteByte('\n')
		}
		if active > shown {
			fmt.Fprintf(b, "  ... and %d more active warps\n", active-shown)
		}
	}

	if col, ok := g.cfg.Tracer.(*trace.Collector); ok {
		for _, sm := range g.sms {
			tail := col.TailEvents(sm.id, dumpTailEvents)
			if len(tail) == 0 {
				continue
			}
			fmt.Fprintf(b, "\ntrace ring tail, SM %d (last %d events):\n", sm.id, len(tail))
			for _, e := range tail {
				fmt.Fprintf(b, "  %s\n", trace.Format(sm.id, e))
			}
		}
	}

	if len(se.stack) > 0 {
		fmt.Fprintf(b, "\npanic stack:\n%s\n", se.stack)
	}
}

// dumpCycle renders a cycle value, naming the farFuture sentinel.
func dumpCycle(t int64) string {
	if t >= farFuture {
		return "farFuture"
	}
	return fmt.Sprint(t)
}

// dumpQueue summarizes the LDST queue: occupancy and the min/max pending
// completion cycles.
func dumpQueue(q []int64, depth int) string {
	if len(q) == 0 {
		return fmt.Sprintf("0/%d", depth)
	}
	lo, hi := q[0], q[0]
	for _, t := range q[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return fmt.Sprintf("%d/%d[%s..%s]", len(q), depth, dumpCycle(lo), dumpCycle(hi))
}

// dumpReleases summarizes the LHB release FIFO: length and head due cycle.
func dumpReleases(q []lhbReleaseEvt) string {
	if len(q) == 0 {
		return "0"
	}
	return fmt.Sprintf("%d[head@%d]", len(q), q[0].at)
}
