package core_test

// The differential oracles that pin the shadow-memory tracker against the
// legacy map tracker, the reference implementation kept for that purpose,
// across the registered benchmark suite and a generated corpus. They live
// in the external test package so they can import the suite
// (internal/bench imports core); the map tracker is selected through the
// test-only seam in export_test.go.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
	"loopapalooza/internal/lang/lpcgen"
)

// trackerConfigs are the union of the oracle grid and every configuration
// of the metamorphic battery's ordering pairs, so the tracker oracle
// covers each configuration either list runs, and cannot drift from them.
func trackerConfigs(short bool) []core.Config {
	cfgs := bench.OracleConfigs(short)
	for _, pair := range bench.OrderingPairs() {
		for _, cfg := range pair {
			if !slices.Contains(cfgs, cfg) {
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// compareTrackers runs info under every configuration with both the
// shadow-memory tracker and the legacy map tracker and requires
// bit-identical Reports, or identical failures.
func compareTrackers(t *testing.T, info *analysis.ModuleInfo, cfgs []core.Config, opts core.RunOptions) {
	t.Helper()
	for _, cfg := range cfgs {
		shadow, errS := core.Run(info, cfg, opts)
		legacy, errL := core.Run(info, cfg, opts.WithTracker(core.TrackerLegacyMap))
		if (errS == nil) != (errL == nil) {
			t.Fatalf("%s: tracker error divergence: shadow=%v legacy=%v", cfg, errS, errL)
		}
		if errS != nil {
			if errS.Error() != errL.Error() {
				t.Fatalf("%s: error text divergence: shadow=%v legacy=%v", cfg, errS, errL)
			}
			continue
		}
		if !reflect.DeepEqual(shadow, legacy) {
			t.Errorf("%s: reports diverge\nshadow: %v\nlegacy: %v", cfg, shadow, legacy)
		}
	}
}

// TestShadowTrackerDifferentialOracle runs every benchmark of the suite
// under DOALL, PDOALL, and HELIX with both the shadow-memory tracker and
// the legacy map tracker, and requires bit-identical Reports. This is the
// correctness gate for the shadow memory: any divergence in conflict
// detection, phase accounting, or cost propagation shows up as a report
// diff.
func TestShadowTrackerDifferentialOracle(t *testing.T) {
	benchmarks := bench.All()
	if len(benchmarks) == 0 {
		t.Fatal("no registered benchmarks")
	}
	cfgs := trackerConfigs(testing.Short())
	for _, b := range benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			info, err := b.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			compareTrackers(t, info, cfgs, core.RunOptions{})
		})
	}
}

// TestShadowTrackerDifferentialGenerated is the tracker oracle over a
// deterministic corpus of generator-derived loop nests: programs with
// index masks, bounded while loops, and seed-dependent dependence
// patterns that the hand-written suite does not cover.
func TestShadowTrackerDifferentialGenerated(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 8
	}
	cfgs := trackerConfigs(testing.Short())
	opts := core.RunOptions{MaxSteps: 2_000_000, MaxHeapCells: 1 << 20}
	x := uint64(0x243F6A8885A308D3) // fixed: the corpus is deterministic
	for i := 0; i < n; i++ {
		seed := make([]byte, int(x%97)+1)
		for j := range seed {
			x = x*6364136223846793005 + 1442695040888963407
			seed[j] = byte(x >> 33)
		}
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			t.Parallel()
			info, err := core.AnalyzeSource("gen.lpc", lpcgen.Program(seed))
			if err != nil {
				t.Fatal(err)
			}
			compareTrackers(t, info, cfgs, opts)
		})
	}
}
