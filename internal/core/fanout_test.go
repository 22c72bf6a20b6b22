package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"loopapalooza/internal/analysis"
)

// fanoutSamples covers the dependence shapes the engines care about:
// independent iterations, memory recurrences, reductions, predictable and
// unpredictable register LCDs, calls, and stack reuse.
var fanoutSamples = map[string]string{
	"doall":         doallSrc,
	"recurrence":    recurrenceSrc,
	"infrequent":    infrequentSrc,
	"reduction":     reductionSrc,
	"predictable":   predictableSrc,
	"unpredictable": unpredictableSrc,
	"dep1":          dep1Src,
	"call":          callSrc,
	"stack":         stackSrc,
}

// TestMultiRunBitIdentical is the in-package differential oracle: for every
// sample program, one MultiRun over the full paper grid — and a replay of
// the trace that MultiRun recorded — must produce reports bit-identical to
// running each configuration separately, and MultiRun must record the
// same trace bytes as a per-config Run, so traces from either path are
// interchangeable.
func TestMultiRunBitIdentical(t *testing.T) {
	cfgs := PaperConfigs()
	for name, src := range fanoutSamples {
		info, err := AnalyzeSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var runTrace bytes.Buffer
		want := make([]*Report, len(cfgs))
		for i, cfg := range cfgs {
			opts := RunOptions{}
			if i == 0 {
				opts.Trace = &runTrace
			}
			if want[i], err = Run(info, cfg, opts); err != nil {
				t.Fatalf("%s/%s: %v", name, cfg, err)
			}
		}
		var trace bytes.Buffer
		multi, err := MultiRun(info, cfgs, RunOptions{Trace: &trace})
		if err != nil {
			t.Fatalf("%s: MultiRun: %v", name, err)
		}
		if !bytes.Equal(trace.Bytes(), runTrace.Bytes()) {
			t.Errorf("%s: MultiRun trace (%d bytes) differs from the Run trace (%d bytes)",
				name, trace.Len(), runTrace.Len())
		}
		replayed, err := ReplayTraceMulti(name, info, cfgs, RunOptions{}, bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		for path, got := range map[string][]*Report{"multirun": multi, "replay": replayed} {
			if len(got) != len(cfgs) {
				t.Fatalf("%s/%s: %d reports, want %d", name, path, len(got), len(cfgs))
			}
			for i := range cfgs {
				if err := CompareReports(want[i], got[i]); err != nil {
					t.Errorf("%s/%s/%s: %v", name, path, cfgs[i], err)
				}
			}
		}
	}
}

// TestMultiRunEmptyAndInvalid: zero configurations execute once and return
// zero reports; an invalid configuration anywhere in the set fails the
// whole call before execution.
func TestMultiRunEmptyAndInvalid(t *testing.T) {
	info, err := AnalyzeSource("edge", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := MultiRun(info, nil, RunOptions{})
	if err != nil || len(reps) != 0 {
		t.Errorf("empty cfgs = (%v, %v), want no reports, no error", reps, err)
	}
	bad := []Config{{Model: DOALL}, {Model: DOALL, Dep: 99}}
	if _, err := MultiRun(info, bad, RunOptions{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestMultiRunExecutionError: a budget trip surfaces once, classified
// exactly as a per-config Run would classify it.
func TestMultiRunExecutionError(t *testing.T) {
	info, err := AnalyzeSource("budget", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{Model: DOALL}, BestPDOALL(), BestHELIX(), {Model: PDOALL}}
	if _, err := MultiRun(info, cfgs, RunOptions{MaxSteps: 10}); !errors.Is(err, ErrStepLimit) {
		t.Errorf("err = %v, want ErrStepLimit", err)
	}
}

// predictorPanicSrc runs one loop whose non-computable register LCD (x)
// feeds the dep2 predictors; the print ahead of it gives the test a hook
// that fires after MultiRun built its engines but before the loop runs.
const predictorPanicSrc = `
var a [64]int;
func main() int {
	print_i64(0);
	var x int = 1;
	var i int;
	for (i = 0; i < 64; i = i + 1) {
		a[i] = x;
		x = (x * 7 + i) % 61;
	}
	return x;
}`

// onFirstIO runs fn on the first Read or Write it sees, then forwards
// reads to r and discards writes.
type onFirstIO struct {
	fn   func()
	done bool
	r    *bytes.Reader
}

func (o *onFirstIO) fire() {
	if !o.done {
		o.done = true
		o.fn()
	}
}

func (o *onFirstIO) Write(p []byte) (int, error) { o.fire(); return len(p), nil }
func (o *onFirstIO) Read(p []byte) (int, error)  { o.fire(); return o.r.Read(p) }

// TestFanoutEnginePanicIsTyped: a panic inside engine replay surfaces from
// MultiRun and ReplayTraceMulti as a classified *PanicError instead of
// crashing the caller. The panic is provoked by building the engines while
// the loop's observed-LCD list is hidden — so its dep2 predictor table is
// empty — and restoring the list before any iteration event reaches them
// (on the guest's first print, or the trace reader's first read): the
// first replayed IterLoop then indexes the empty predictor table.
func TestFanoutEnginePanicIsTyped(t *testing.T) {
	cfgs := []Config{{Model: PDOALL, Reduc: 1, Dep: 2, Fn: 2}, BestHELIX()}
	// setup analyzes and lowers the sample, records its trace, and hides
	// the LCD loop's observed list, returning the function restoring it.
	setup := func(t *testing.T) (*analysis.ModuleInfo, []byte, func()) {
		t.Helper()
		info, err := AnalyzeSource("panic", predictorPanicSrc)
		if err != nil {
			t.Fatal(err)
		}
		var trace bytes.Buffer
		if _, err := Run(info, cfgs[0], RunOptions{Trace: &trace}); err != nil {
			t.Fatal(err)
		}
		for _, lm := range info.Loops {
			if len(lm.NonComputable) > 0 {
				observed := lm.Observed
				lm.Observed = nil
				return info, trace.Bytes(), func() { lm.Observed = observed }
			}
		}
		t.Fatal("sample has no loop with a non-computable LCD")
		return nil, nil, nil
	}
	check := func(t *testing.T, err error) {
		t.Helper()
		var pe *PanicError
		if !errors.As(err, &pe) || Classify(err) != OutcomePanic {
			t.Fatalf("err = %v, want a classified *PanicError", err)
		}
		if !strings.Contains(pe.Stack, "replayChunkBatched") {
			t.Errorf("panic did not come from engine replay:\n%s", pe.Stack)
		}
	}

	t.Run("multirun", func(t *testing.T) {
		info, _, restore := setup(t)
		_, err := MultiRun(info, cfgs, RunOptions{Out: &onFirstIO{fn: restore}})
		check(t, err)
	})
	t.Run("replay", func(t *testing.T) {
		info, trace, restore := setup(t)
		_, err := ReplayTraceMulti("panic", info, cfgs, RunOptions{},
			&onFirstIO{fn: restore, r: bytes.NewReader(trace)})
		check(t, err)
	})
}

// failWriter fails after n bytes, exercising the sticky trace-error path.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n := f.n
	f.n = 0
	return n, errors.New("disk full")
}

// TestMultiRunTraceWriteFailure: a failing trace sink fails the run from
// both entry points that record.
func TestMultiRunTraceWriteFailure(t *testing.T) {
	info, err := AnalyzeSource("sink", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{Model: DOALL}, BestPDOALL(), BestHELIX(), {Model: PDOALL}}
	if _, err := MultiRun(info, cfgs, RunOptions{Trace: &failWriter{n: 100}}); err == nil ||
		!strings.Contains(err.Error(), "writing trace") {
		t.Errorf("MultiRun: err = %v, want trace write failure", err)
	}
	if _, err := Run(info, Config{Model: DOALL}, RunOptions{Trace: &failWriter{n: 100}}); err == nil ||
		!strings.Contains(err.Error(), "writing trace") {
		t.Errorf("Run: err = %v, want trace write failure", err)
	}
}

// TestRunTraceMatchesUntraced: wiring a trace sink into Run must not
// change the report.
func TestRunTraceMatchesUntraced(t *testing.T) {
	info, err := AnalyzeSource("teed", infrequentSrc)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(info, BestPDOALL(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	traced, err := Run(info, BestPDOALL(), RunOptions{Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := CompareReports(plain, traced); err != nil {
		t.Errorf("trace tee changed the report: %v", err)
	}
	if buf.Len() == 0 {
		t.Error("no trace bytes written")
	}
}
