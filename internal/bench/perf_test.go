package bench

import (
	"context"
	"testing"

	"loopapalooza/internal/core"
)

// BenchmarkSweepFanout measures the full fourteen-configuration paper-grid
// sweep of the EEMBC suite through the run-once fan-out: each benchmark is
// interpreted once and its event stream feeds every configuration's
// engine through core.MultiRun. A fresh harness per op re-runs every
// cell; the per-benchmark analysis once-cells are warmed first.
func BenchmarkSweepFanout(b *testing.B) {
	benches := BySuite(SuiteEEMBC)
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
		for i := 0; i < b.N; i++ {
			sr := NewHarness().Sweep(context.Background(), benches, cfgs)
			if sr.OK() != len(benches)*len(cfgs) {
				b.Fatalf("sweep failures: %s", sr.Summary())
			}
		}
	})
}
