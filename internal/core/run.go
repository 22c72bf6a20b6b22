package core

import (
	"context"
	"io"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/diag"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/lang"
)

// RunOptions controls one limit-study execution.
type RunOptions struct {
	// Out receives program output (nil discards).
	Out io.Writer
	// MaxSteps bounds execution (0 = interpreter default).
	MaxSteps int64
	// MaxHeapCells bounds the simulated heap in 64-bit cells (0 =
	// interpreter default). Exceeding it fails the run with ErrMemLimit.
	MaxHeapCells int64
	// Ctx, when non-nil, cancels the run mid-execution (ErrCanceled, or
	// ErrDeadline when the context deadline expired).
	Ctx context.Context
	// Timeout, when positive, bounds the run's wall-clock time
	// (ErrDeadline on expiry).
	Timeout time.Duration
	// EntryArgs are passed to main (usually none).
	EntryArgs []interp.Val
	// Trace, when non-nil, receives the binary event trace of the
	// execution (see TraceWriter), which ReplayTrace can later evaluate
	// under any configuration without re-executing. A trace write failure
	// fails the run; the resource budgets above are enforced while
	// recording.
	Trace io.Writer

	// engine and tracker select the differential oracles — the
	// tree-walking interpreter and the legacy map tracker — in place of
	// the bytecode VM and the shadow-memory tracker. Only tests set them
	// (see export_test.go); the zero values are the production path.
	engine  engineKind
	tracker trackerKind
}

// Run executes the analyzed module's main function under one configuration
// and returns the limit-study report. On failure the returned error
// matches exactly one taxonomy sentinel (ErrStepLimit, ErrMemLimit,
// ErrDeadline, ErrCanceled, ErrRuntime) under errors.Is; other failures
// (bad configuration) classify as OutcomeError. Run is MultiRun with one
// configuration, so its lone engine takes the events one by one.
func Run(info *analysis.ModuleInfo, cfg Config, opts RunOptions) (*Report, error) {
	return only(MultiRun(info, []Config{cfg}, opts))
}

// only unwraps the report of a one-configuration call.
func only(reps []*Report, err error) (*Report, error) {
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// RunSource compiles LPC source, analyzes it, and runs the limit study —
// the one-call entry point used by the CLI, examples, and benches.
func RunSource(name, src string, cfg Config, opts RunOptions) (*Report, error) {
	info, err := AnalyzeSource(name, src)
	if err != nil {
		return nil, err
	}
	return Run(info, cfg, opts)
}

// AnalyzeSource compiles and canonicalizes LPC source, returning the
// compile-time analysis. Reuse the result across configurations: the
// analysis is configuration-independent.
//
// Like lang.Compile, AnalyzeSource never exits via panic: a panic escaping
// the mid-end pipeline is converted into a *diag.ICE naming the "analysis"
// stage and carrying the source as a reproducer.
func AnalyzeSource(name, src string) (info *analysis.ModuleInfo, err error) {
	m, err := lang.Compile(name, src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			info, err = nil, diag.NewICE(name, "analysis", src, r)
		}
	}()
	info, aerr := analysis.AnalyzeModule(m)
	if aerr != nil {
		// The module verified after codegen, so a pass breaking it is a
		// compiler bug, not a user error.
		return nil, diag.NewICE(name, "analysis", src, aerr)
	}
	return info, nil
}
