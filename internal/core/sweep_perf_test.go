package core_test

import (
	"context"
	"testing"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// sweepConfigs is the macro-benchmark configuration grid: one config per
// execution model at permissive flags, the shape of a figure regeneration.
func sweepConfigs() []core.Config {
	return []core.Config{
		{Model: core.DOALL, Reduc: 1, Dep: 0, Fn: 2},
		{Model: core.PDOALL, Reduc: 1, Dep: 2, Fn: 2},
		{Model: core.HELIX, Reduc: 1, Dep: 2, Fn: 2},
	}
}

// benchSweep runs b.N full sweeps of the EEMBC suite across the model
// grid through a fresh fault-isolated harness per op (so every op re-runs
// every cell), with opts as the per-cell run options. The per-benchmark
// analysis once-cells are warmed first and shared, as in production
// figure regeneration.
func benchSweep(b *testing.B, opts core.RunOptions) {
	benches := bench.BySuite(bench.SuiteEEMBC)
	if len(benches) == 0 {
		b.Fatal("no EEMBC benchmarks registered")
	}
	for _, bm := range benches {
		if _, err := bm.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := bench.NewHarnessWith(bench.HarnessOptions{Run: opts})
		sr := h.Sweep(context.Background(), benches, sweepConfigs())
		if sr.OK() != len(benches)*len(sweepConfigs()) {
			b.Fatalf("sweep failures: %s", sr.Summary())
		}
	}
}

// BenchmarkSweepSuite is the end-to-end macro benchmark under each
// dependence tracker: the legacy÷shadow time ratio is benchjson's
// shadow_vs_legacy table.
func BenchmarkSweepSuite(b *testing.B) {
	for _, kind := range []core.TrackerKind{core.TrackerShadow, core.TrackerLegacyMap} {
		b.Run(kind.String(), func(b *testing.B) { benchSweep(b, core.RunOptions{}.WithTracker(kind)) })
	}
}

// BenchmarkSweepEngines is the macro engine comparison under each
// execution engine: the treewalk÷bytecode time ratio is benchjson's
// bytecode_vs_treewalk table.
func BenchmarkSweepEngines(b *testing.B) {
	for _, kind := range []core.EngineKind{core.EngineBytecode, core.EngineTreewalk} {
		b.Run(kind.String(), func(b *testing.B) { benchSweep(b, core.RunOptions{}.WithEngine(kind)) })
	}
}

// BenchmarkSweepFanout measures the full fourteen-configuration paper-grid
// sweep of the EEMBC suite through the run-once fan-out: each benchmark is
// interpreted once and its event stream feeds every configuration's
// engine through core.MultiRun. A fresh harness per op re-runs every
// cell; the per-benchmark analysis once-cells are warmed first.
//
// Besides time and allocations it reports the chunk tee's probe census
// per op, a deterministic work count benchjson gates: shared-probe
// tracker calls, the records handed to them, the calls the span summaries
// answered without probing a load, and the candidates emitted — no class
// probes a tracker of its own — plus journal-max, the longest savings
// journal any HELIX class kept, which bounds the journals' memory.
func BenchmarkSweepFanout(b *testing.B) {
	benches := bench.BySuite(bench.SuiteEEMBC)
	if len(benches) == 0 {
		b.Fatal("no EEMBC benchmarks registered")
	}
	for _, bm := range benches {
		if _, err := bm.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	cfgs := core.PaperConfigs()
	// The sub-benchmark name keeps the series comparable with earlier
	// BENCH_*.json records.
	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		core.ResetProbeCensus()
		for i := 0; i < b.N; i++ {
			sr := bench.NewHarness().Sweep(context.Background(), benches, cfgs)
			if sr.OK() != len(benches)*len(cfgs) {
				b.Fatalf("sweep failures: %s", sr.Summary())
			}
		}
		w := core.ReadProbeCensus()
		per := func(v int64, unit string) { b.ReportMetric(float64(v)/float64(b.N), unit) }
		per(w.SharedCalls, "probe-calls/op")
		per(w.SharedRecords, "probe-records/op")
		per(w.SharedSkips, "probe-skips/op")
		per(w.Candidates, "probe-cands/op")
		b.ReportMetric(float64(w.JournalMax), "journal-max")
	})
}
