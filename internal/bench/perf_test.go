package bench

import (
	"bytes"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/core"
)

// traceSuite analyzes every registry benchmark and records its event
// trace under cfg, outside the timed region.
func traceSuite(b *testing.B, cfg core.Config) (infos []*analysis.ModuleInfo, traces [][]byte) {
	b.Helper()
	for _, bm := range All() {
		info, err := bm.Analyze()
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := core.Run(info, cfg, core.RunOptions{Trace: &buf}); err != nil {
			b.Fatalf("%s: %v", bm.Name, err)
		}
		infos = append(infos, info)
		traces = append(traces, buf.Bytes())
	}
	return infos, traces
}

// runSuite is the live reference both trace benchmarks report next to
// their trace arm: one core.Run per registry benchmark under cfg.
func runSuite(b *testing.B, infos []*analysis.ModuleInfo, cfg core.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, info := range infos {
			if _, err := core.Run(info, cfg, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTraceRecord measures recording: one op runs the 57-program
// registry once under one configuration with a trace sink (/record),
// next to the same runs without one (/run).
func BenchmarkTraceRecord(b *testing.B) {
	cfg := core.BestHELIX()
	infos, _ := traceSuite(b, cfg)
	b.Run("run", func(b *testing.B) { runSuite(b, infos, cfg) })
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			for _, info := range infos {
				buf.Reset()
				if _, err := core.Run(info, cfg, core.RunOptions{Trace: &buf}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkTraceReplay measures replay: one op evaluates the 57 recorded
// registry traces under one configuration through core.ReplayTrace
// (/replay), next to re-executing them live (/run).
func BenchmarkTraceReplay(b *testing.B) {
	cfg := core.BestHELIX()
	infos, traces := traceSuite(b, cfg)
	b.Run("run", func(b *testing.B) { runSuite(b, infos, cfg) })
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, info := range infos {
				if _, err := core.ReplayTrace(info.Mod.Name, info, cfg, core.RunOptions{}, bytes.NewReader(traces[j])); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
