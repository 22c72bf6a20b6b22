package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// figuresRef is the stdout of one default `lpbench` invocation, recorded
// when the benchmark was written. Every pass must reproduce it byte for
// byte.
//
//go:embed testdata/figures.txt
var figuresRef string

// goldenDir holds the golden report fixtures, read from the checkout.
var goldenDir = filepath.Join("internal", "bench", "testdata", "golden")

// paperGrid regenerates Figures 2–5 exactly as one default lpbench
// invocation does: 57 benchmarks × 14 paper configurations, four figures.
// Its inputs are fixed, so the seed has no effect.
type paperGrid struct {
	// golden maps benchmark → configuration → compact fixture cell.
	golden map[string]map[string][]byte
}

// newPaperGrid loads the golden fixtures. It also warms the registry:
// Figures 4 and 5 sweep the registry benchmarks, whose analysis is
// memoized per process, while each pass sweeps fresh copies first, which
// pay compile and analysis like a fresh process. The warm registry keeps
// the first pass from paying them twice.
func newPaperGrid(int64) (workload, error) {
	for _, b := range bench.All() {
		if _, err := b.Analyze(); err != nil {
			return nil, err
		}
	}
	w := &paperGrid{golden: map[string]map[string][]byte{}}
	for _, b := range bench.All() {
		data, err := os.ReadFile(filepath.Join(goldenDir, b.Name+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden fixture: %w", err)
		}
		var gf struct {
			Cells []json.RawMessage `json:"cells"`
		}
		if err := json.Unmarshal(data, &gf); err != nil {
			return nil, fmt.Errorf("golden fixture %s: %w", b.Name, err)
		}
		w.golden[b.Name] = map[string][]byte{}
		for _, raw := range gf.Cells {
			var c struct {
				Config string `json:"config"`
			}
			var buf bytes.Buffer
			if err := json.Unmarshal(raw, &c); err != nil {
				return nil, fmt.Errorf("golden fixture %s: %w", b.Name, err)
			}
			if err := json.Compact(&buf, raw); err != nil {
				return nil, err
			}
			w.golden[b.Name][c.Config] = buf.Bytes()
		}
	}
	return w, nil
}

// setup is the registry warm-up: compile and analyze every registry
// benchmark. It runs on fresh copies, so every call pays what the
// per-process memo hides after the first.
func (w *paperGrid) setup() (time.Duration, error) {
	benches := freshBenches(bench.AllSuites())
	t0 := time.Now()
	for _, b := range benches {
		if _, err := b.Analyze(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// freshBenches copies the registry benchmarks of suites without their
// per-process analysis memo.
func freshBenches(suites []bench.Suite) []*bench.Benchmark {
	var out []*bench.Benchmark
	for _, s := range suites {
		for _, b := range bench.BySuite(s) {
			out = append(out, &bench.Benchmark{Name: b.Name, Suite: b.Suite, Modeled: b.Modeled, Source: b.Source})
		}
	}
	return out
}

func (w *paperGrid) pass(tr *tracer, _ int) (passStats, error) {
	// The harness options are lpbench's defaults.
	h := bench.NewHarnessWith(bench.HarnessOptions{RetryTransient: true})
	root := tr.begin("lpbench", 0, 0)
	var (
		out             strings.Builder
		sweepD, renderD time.Duration
		err             error
	)
	sweep := func(f func() error) { sweepD += tr.do("bench.sweep", root, 0, func() { err = f() }) }
	render := func(s string) {
		renderD += tr.do("bench.render", root, 0, func() { out.WriteString(s + "\n") })
	}
	wall, cpu := timed(func() {
		var rows2, rows3 []bench.FigureRow
		var rows4 []bench.Figure4Row
		var rows5 []bench.Figure5Row
		sweep(func() (err error) {
			h.Sweep(context.Background(), freshBenches(bench.NonNumericSuites()), core.PaperConfigs())
			rows2, err = h.Figure2()
			return
		})
		if err != nil {
			return
		}
		render(bench.FormatSpeedupFigure(
			"Figure 2: GEOMEAN speedups, non-numeric suites (SpecINT-like)",
			bench.NonNumericSuites(), rows2))
		sweep(func() (err error) {
			h.Sweep(context.Background(), freshBenches(bench.NumericSuites()), core.PaperConfigs())
			rows3, err = h.Figure3()
			return
		})
		if err != nil {
			return
		}
		render(bench.FormatSpeedupFigure(
			"Figure 3: GEOMEAN speedups, numeric suites (EEMBC/SpecFP-like)",
			bench.NumericSuites(), rows3))
		if sweep(func() (err error) { rows4, err = h.Figure4(); return }); err != nil {
			return
		}
		render(bench.FormatFigure4(rows4))
		if sweep(func() (err error) { rows5, err = h.Figure5(); return }); err != nil {
			return
		}
		render(bench.FormatFigure5(rows5))
		if failures := h.Failures(); len(failures) > 0 {
			out.WriteString(bench.FormatFailureSummary(failures))
		}
	})
	tr.end(root)
	if err != nil {
		return passStats{}, err
	}

	ps := passStats{ops: len(bench.All()) * len(core.PaperConfigs()), elapsed: wall, cpu: cpu}
	ps.failed = len(h.Failures())
	for _, b := range bench.All() {
		for cfgName, want := range w.golden[b.Name] {
			cfg, err := core.ParseConfig(cfgName)
			if err != nil {
				return passStats{}, err
			}
			if !isPaperConfig(cfg) {
				continue
			}
			got, err := goldenCellJSON(h, b, cfg)
			if err != nil || !bytes.Equal(got, want) {
				ps.failed++
			}
		}
	}
	if out.String() != figuresRef {
		ps.failed = ps.ops // the pass's output is wrong as a whole
	}
	if tr != nil {
		st := h.Stats()
		ps.layers = map[string]float64{
			"bench.sweep_s":     sweepD.Seconds(),
			"bench.render_s":    renderD.Seconds(),
			"bench.executions":  float64(st.Executions),
			"bench.saved_ratio": float64(st.Saved) / float64(st.Cells),
		}
	}
	return ps, nil
}

func isPaperConfig(cfg core.Config) bool {
	for _, c := range core.PaperConfigs() {
		if c == cfg {
			return true
		}
	}
	return false
}

// goldenCellJSON distills a swept cell into the golden fixture's cell form
// (the fields the paper figures are built from) as compact JSON.
func goldenCellJSON(h *bench.Harness, b *bench.Benchmark, cfg core.Config) ([]byte, error) {
	r, err := h.Report(b, cfg)
	if err != nil {
		return nil, err
	}
	type loop struct {
		ID            string            `json:"id"`
		Depth         int               `json:"depth"`
		Parallel      bool              `json:"parallel"`
		Reason        core.SerialReason `json:"reason"`
		SerialTicks   int64             `json:"serialTicks"`
		Iters         int64             `json:"iters"`
		ConflictIters int64             `json:"conflictIters"`
	}
	cell := struct {
		Config       core.Config `json:"config"`
		SerialCost   int64       `json:"serialCost"`
		ParallelCost int64       `json:"parallelCost"`
		CoveredTicks int64       `json:"coveredTicks"`
		Speedup      string      `json:"speedup"`
		Anomalies    int64       `json:"anomalies"`
		Loops        []loop      `json:"loops"`
	}{r.Config, r.SerialCost, r.ParallelCost, r.CoveredTicks,
		fmt.Sprintf("%.4fx", r.Speedup()), r.Anomalies.Total(), nil}
	for _, lr := range r.Loops {
		cell.Loops = append(cell.Loops, loop{lr.ID, lr.Depth, lr.Parallel, lr.Reason, lr.SerialTicks, lr.Iters, lr.ConflictIters})
	}
	return json.Marshal(cell)
}

// probe lists every benchmark under every paper configuration.
func (w *paperGrid) probe() []program {
	var out []program
	for _, b := range bench.All() {
		out = append(out, program{name: b.Name, src: b.Source, cfgs: core.PaperConfigs()})
	}
	return out
}

func (w *paperGrid) close() {}
