package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"loopapalooza/internal/core"
)

// fanoutSets are the configuration sets the fan-out oracle evaluates as
// one batch each: the oracle grid; one- and two-configuration sets, the
// smallest batches; a four-configuration mix; and, outside -short, the
// paper grid twice over, so duplicate configurations share one coalesced
// engine class.
func fanoutSets(short bool) map[string][]core.Config {
	sets := map[string][]core.Config{
		"oracle": OracleConfigs(short),
		"one":    {core.BestHELIX()},
		"two":    {{Model: core.DOALL}, core.BestPDOALL()},
		"four":   {{Model: core.DOALL}, {Model: core.PDOALL}, core.BestPDOALL(), core.BestHELIX()},
	}
	if !short {
		sets["paper-twice"] = append(core.PaperConfigs(), core.PaperConfigs()...)
	}
	return sets
}

// TestFanoutDifferentialOracle is the acceptance oracle of the run-once
// layer: for every benchmark of the suite and every set of fanoutSets,
// core.MultiRun AND a replay of the recorded trace through
// core.ReplayTraceMulti must produce Reports bit-identical to per-config
// core.Run.
func TestFanoutDifferentialOracle(t *testing.T) {
	benchmarks := All()
	if len(benchmarks) == 0 {
		t.Fatal("no registered benchmarks")
	}
	sets := fanoutSets(testing.Short())
	for _, b := range benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			info, err := b.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			// Reference: one isolated execution per distinct
			// configuration, recording the trace alongside the first.
			var trace bytes.Buffer
			want := map[core.Config]*core.Report{}
			for _, cfgs := range sets {
				for _, cfg := range cfgs {
					if want[cfg] != nil {
						continue
					}
					opts := core.RunOptions{}
					if trace.Len() == 0 {
						opts.Trace = &trace
					}
					if want[cfg], err = core.Run(info, cfg, opts); err != nil {
						t.Fatalf("%s: %v", cfg, err)
					}
				}
			}
			for name, cfgs := range sets {
				check := func(path string, got []*core.Report, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s/%s: %v", name, path, err)
					}
					if len(got) != len(cfgs) {
						t.Fatalf("%s/%s: %d reports, want %d", name, path, len(got), len(cfgs))
					}
					for i, cfg := range cfgs {
						if err := core.CompareReports(want[cfg], got[i]); err != nil {
							t.Errorf("%s/%s/%s: %v", name, path, cfg, err)
						}
					}
				}
				reps, err := core.MultiRun(info, cfgs, core.RunOptions{})
				check("multirun", reps, err)
				reps, err = core.ReplayTraceMulti(b.Name, info, cfgs, core.RunOptions{}, bytes.NewReader(trace.Bytes()))
				check("replay", reps, err)
			}
		})
	}
}

// sweepBenches is a small cross-suite slice for harness-level tests.
func sweepBenches(t *testing.T) []*Benchmark {
	t.Helper()
	var out []*Benchmark
	for _, name := range []string{"181.mcf", "164.gzip", "aifirf", "183.equake"} {
		b := ByName(name)
		if b == nil {
			t.Fatalf("benchmark %s not registered", name)
		}
		out = append(out, b)
	}
	return out
}

// TestHarnessFanoutDedup: a sweep executes each benchmark once regardless
// of configuration count, produces cells identical to per-config core.Run,
// and a follow-up sweep only executes the genuinely new cells.
func TestHarnessFanoutDedup(t *testing.T) {
	benches := sweepBenches(t)
	cfgs := []core.Config{{Model: core.DOALL}, core.BestPDOALL(), core.BestHELIX()}

	fan := NewHarness()
	got := fan.Sweep(context.Background(), benches, cfgs)
	if len(got.Cells) != len(benches)*len(cfgs) {
		t.Fatalf("cell count %d, want %d", len(got.Cells), len(benches)*len(cfgs))
	}
	for i, g := range got.Cells {
		b, cfg := benches[i/len(cfgs)], cfgs[i%len(cfgs)]
		if g.Bench != b.Name || g.Config != cfg {
			t.Fatalf("cell %d order diverged: %s/%s, want %s/%s", i, g.Bench, g.Config, b.Name, cfg)
		}
		info, err := b.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(info, cfg, core.RunOptions{})
		if (g.Err == nil) != (err == nil) {
			t.Fatalf("cell %d error divergence: %v vs %v", i, g.Err, err)
		}
		if err == nil {
			if err := core.CompareReports(want, g.Report); err != nil {
				t.Errorf("cell %s/%s: %v", g.Bench, g.Config, err)
			}
		}
	}

	st := fan.Stats()
	wantStats := Stats{
		Executions: int64(len(benches)),
		Cells:      int64(len(benches) * len(cfgs)),
		Saved:      int64(len(benches) * (len(cfgs) - 1)),
	}
	if st != wantStats {
		t.Errorf("fan-out stats = %+v, want %+v", st, wantStats)
	}

	// A second sweep adding one config re-executes each benchmark once for
	// just the new cell; the cached cells are served without running.
	more := append(append([]core.Config(nil), cfgs...), core.Config{Model: core.PDOALL})
	fan.Sweep(context.Background(), benches, more)
	st2 := fan.Stats()
	if st2.Executions != st.Executions+int64(len(benches)) {
		t.Errorf("second sweep executions = %d, want %d (one per benchmark for the new config)",
			st2.Executions, st.Executions+int64(len(benches)))
	}
	if st2.Cells != st.Cells+int64(len(benches)) {
		t.Errorf("second sweep cells = %d, want %d", st2.Cells, st.Cells+int64(len(benches)))
	}
}

// TestHarnessFanoutMixedValidity: an invalid configuration in the sweep
// grid fails its own cells with the validation error without poisoning the
// valid cells that share the execution.
func TestHarnessFanoutMixedValidity(t *testing.T) {
	benches := sweepBenches(t)[:2]
	bad := core.Config{Model: core.DOALL, Dep: 42}
	cfgs := []core.Config{{Model: core.DOALL}, bad, core.BestPDOALL()}
	sr := NewHarness().Sweep(context.Background(), benches, cfgs)
	for _, c := range sr.Cells {
		if c.Config == bad {
			if c.Err == nil || c.Outcome != core.OutcomeError {
				t.Errorf("%s/%s: err = %v, want validation failure", c.Bench, c.Config, c.Err)
			}
		} else if c.Err != nil {
			t.Errorf("%s/%s: %v, want success beside the invalid cell", c.Bench, c.Config, c.Err)
		}
	}
}

// TestHarnessTraceDir: a sweep with TraceDir records one replayable trace
// per benchmark, and replaying it reproduces the sweep's own reports.
func TestHarnessTraceDir(t *testing.T) {
	dir := t.TempDir()
	benches := sweepBenches(t)[:2]
	cfgs := []core.Config{{Model: core.DOALL}, core.BestHELIX()}
	h := NewHarnessWith(HarnessOptions{TraceDir: dir})
	sr := h.Sweep(context.Background(), benches, cfgs)
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Traces != int64(len(benches)) {
		t.Fatalf("traces recorded = %d, want %d", st.Traces, len(benches))
	}
	for bi, b := range benches {
		path := filepath.Join(dir, TraceFileName(b.Name, b.Source, core.RunOptions{}))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("trace missing: %v", err)
		}
		info, err := b.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range cfgs {
			rep, err := core.ReplayTrace(b.Name, info, cfg, core.RunOptions{}, bytes.NewReader(data))
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", b.Name, cfg, err)
			}
			if err := core.CompareReports(sr.Cells[bi*len(cfgs)+ci].Report, rep); err != nil {
				t.Errorf("%s/%s: %v", b.Name, cfg, err)
			}
		}
	}
}
