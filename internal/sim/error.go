package sim

import "fmt"

// Phases of a *SimError: which guard of the hardened run loop tripped.
const (
	// PhaseCancelled: the RunContext context was cancelled.
	PhaseCancelled = "cancelled"
	// PhaseDeadline: the context deadline (Config.WallTimeout or a caller
	// deadline) expired.
	PhaseDeadline = "deadline"
	// PhaseCycleLimit: the simulated clock reached Config.MaxCycles (or the
	// built-in runaway bound).
	PhaseCycleLimit = "cycle-limit"
	// PhaseWatchdog: the forward-progress watchdog fired — no instruction
	// issued and no ROB entry retired for a whole watchdog window.
	PhaseWatchdog = "watchdog"
	// PhasePanic: a panic inside the cycle loop was contained and
	// converted to an error.
	PhasePanic = "panic"
	// PhaseProgram: program decode walked out of a warp program's bounds —
	// an internal consistency failure surfaced as a structured error.
	PhaseProgram = "program"
)

// SimError is the structured failure a hardened simulation returns instead
// of hanging or crashing the process: which guard tripped (Phase), where
// the simulated clock stood (Cycle), a human-readable diagnosis (Reason),
// and — for watchdog fires and contained panics — the path of the crash
// dump written for postmortem debugging (Dump).
type SimError struct {
	Phase  string
	Cycle  int64
	Reason string
	// Dump is the crash-dump file path ("" when none was written; dumps
	// accompany watchdog fires and contained panics, see dump.go).
	Dump string
	// Err is the underlying cause when one exists (the context error for
	// cancellations/deadlines, the panic value when it was an error).
	Err error

	// stack is the recovered goroutine stack of a contained panic,
	// serialized into the crash dump.
	stack []byte
}

// Error renders "sim: <phase> at cycle N: <reason> (crash dump: <path>)".
func (e *SimError) Error() string {
	s := fmt.Sprintf("sim: %s at cycle %d: %s", e.Phase, e.Cycle, e.Reason)
	if e.Dump != "" {
		s += " (crash dump: " + e.Dump + ")"
	}
	return s
}

// Unwrap exposes the underlying cause so errors.Is sees context.Canceled /
// context.DeadlineExceeded through the guard.
func (e *SimError) Unwrap() error { return e.Err }
