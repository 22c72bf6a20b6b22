package core

import (
	"bytes"
	"strings"
	"testing"

	"loopapalooza/internal/analysis"
)

// record runs src once with a trace sink and returns the trace bytes plus
// the per-config reference reports.
func record(t testing.TB, name, src string, cfgs []Config) (*analysis.ModuleInfo, []byte, []*Report) {
	t.Helper()
	info, err := AnalyzeSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	want := make([]*Report, len(cfgs))
	for i, cfg := range cfgs {
		opts := RunOptions{}
		if i == 0 {
			opts.Trace = &buf // record alongside the first reference run
		}
		if want[i], err = Run(info, cfg, opts); err != nil {
			t.Fatalf("%s/%s: %v", name, cfg, err)
		}
	}
	return info, buf.Bytes(), want
}

// TestTraceRoundTrip: write → read → replay must reproduce every
// configuration's report bit-identically, for every sample program, across
// the full paper grid.
func TestTraceRoundTrip(t *testing.T) {
	cfgs := PaperConfigs()
	for name, src := range fanoutSamples {
		info, trace, want := record(t, name, src, cfgs)
		if len(trace) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		// One decode, every config (the replay-side fan-out).
		got, err := ReplayTraceMulti(name, info, cfgs, RunOptions{}, bytes.NewReader(trace))
		if err != nil {
			t.Fatalf("%s: ReplayTraceMulti: %v", name, err)
		}
		for i := range cfgs {
			if err := CompareReports(want[i], got[i]); err != nil {
				t.Errorf("%s/%s: %v", name, cfgs[i], err)
			}
		}
		// Single-config replay entry point.
		one, err := ReplayTrace(name, info, cfgs[3], RunOptions{}, bytes.NewReader(trace))
		if err != nil {
			t.Fatalf("%s: ReplayTrace: %v", name, err)
		}
		if err := CompareReports(want[3], one); err != nil {
			t.Errorf("%s: single replay: %v", name, err)
		}
	}
}

// TestTraceReaderHeader covers header metadata and validation.
func TestTraceReaderHeader(t *testing.T) {
	info, trace, _ := record(t, "hdr", doallSrc, []Config{{Model: DOALL}})
	tr, err := NewTraceReader(bytes.NewReader(trace), info)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ModuleName() != "hdr" {
		t.Errorf("module name = %q, want hdr", tr.ModuleName())
	}
	// A module with a different loop count rejects the trace.
	other, err := AnalyzeSource("other", callSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTraceReader(bytes.NewReader(trace), other); err == nil ||
		!strings.Contains(err.Error(), "stale trace") {
		t.Errorf("mismatched module accepted: %v", err)
	}
}

// TestTraceTruncation: cutting the trace at any point must fail replay
// loudly — never silently produce a report from a partial stream.
func TestTraceTruncation(t *testing.T) {
	info, trace, _ := record(t, "trunc", infrequentSrc, []Config{{Model: DOALL}})
	// Sample cut points across the whole stream, including one byte short.
	for _, cut := range []int{len(trace) - 1, len(trace) / 2, len(trace) / 3, 20} {
		_, err := ReplayTrace("trunc", info, BestPDOALL(), RunOptions{}, bytes.NewReader(trace[:cut]))
		if err == nil {
			t.Errorf("cut at %d/%d bytes: replay succeeded on truncated trace", cut, len(trace))
		}
	}
	// Header-only truncation fails at construction.
	if _, err := NewTraceReader(bytes.NewReader(trace[:3]), info); err == nil {
		t.Error("3-byte trace accepted")
	}
}

// TestTraceCorruption covers the structured corruption checks: magic,
// version, opcodes, loop ordinals, the tick checksum, and trailing bytes.
func TestTraceCorruption(t *testing.T) {
	info, trace, _ := record(t, "corrupt", doallSrc, []Config{{Model: DOALL}})
	replay := func(b []byte) error {
		_, err := ReplayTrace("corrupt", info, Config{Model: DOALL}, RunOptions{}, bytes.NewReader(b))
		return err
	}
	mut := func(i int, b byte) []byte {
		c := append([]byte(nil), trace...)
		c[i] = b
		return c
	}
	if err := replay(mut(0, 'X')); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("bad magic: %v", err)
	}
	if err := replay(mut(4, 0xFF)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("bad version: %v", err)
	}
	// Locate the first record byte: magic(4) + version(1) + nameLen(1) +
	// name + loopCount(1) for this small module.
	body := 4 + 1 + 1 + len("corrupt") + 1
	if err := replay(mut(body, 0x7F)); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("unknown opcode: %v", err)
	}
	// Flipping a tick count breaks the end-record checksum.
	if trace[body] != opTick {
		t.Fatalf("first record is %#x, expected a tick", trace[body])
	}
	if err := replay(mut(body+1, trace[body+1]^1)); err == nil ||
		!strings.Contains(err.Error(), "checksum") {
		t.Errorf("tick checksum: %v", err)
	}
	// Bytes after the end record fail closed: a padded or concatenated
	// trace is not a valid trace.
	for _, tail := range [][]byte{{0}, {opEnd, 0}, trace} {
		if err := replay(append(append([]byte(nil), trace...), tail...)); err == nil ||
			!strings.Contains(err.Error(), "trailing bytes") {
			t.Errorf("%d trailing bytes: %v", len(tail), err)
		}
	}
}

// TestTraceWriterUnaddressableLoop: hand-built loop metas (outside the
// module's dense Seq numbering) poison the trace instead of encoding a
// bogus ordinal.
func TestTraceWriterUnaddressableLoop(t *testing.T) {
	info, err := AnalyzeSource("unaddr", doallSrc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, info)
	tw.ExitLoop(&analysis.LoopMeta{Seq: 0}) // right ordinal, wrong identity
	if err := tw.Close(); err == nil || !strings.Contains(err.Error(), "not addressable") {
		t.Errorf("Close = %v, want unaddressable-loop error", err)
	}
}

// TestTraceWriterStickyError: the first sink failure is reported at Close
// even when later writes would have succeeded.
func TestTraceWriterStickyError(t *testing.T) {
	tw := NewTraceWriter(&failWriter{n: 2}, mustAnalyze(t, "sticky", doallSrc))
	for i := 0; i < 1<<16; i++ { // overflow the bufio buffer to hit the sink
		tw.Tick(1)
	}
	if err := tw.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close = %v, want sticky disk full", err)
	}
}

func mustAnalyze(t *testing.T, name, src string) *analysis.ModuleInfo {
	t.Helper()
	info, err := AnalyzeSource(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestReplayBudgetsIgnored: replay consumes a recorded stream; the
// recording budgets don't apply (documented contract), so a tiny MaxSteps
// in the replay options must not fail it.
func TestReplayBudgetsIgnored(t *testing.T) {
	info, trace, want := record(t, "nobudget", doallSrc, []Config{BestPDOALL()})
	got, err := ReplayTrace("nobudget", info, BestPDOALL(), RunOptions{MaxSteps: 1}, bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("replay with tiny budget: %v", err)
	}
	if err := CompareReports(want[0], got); err != nil {
		t.Error(err)
	}
}
