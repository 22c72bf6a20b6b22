package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bench"
	"loopapalooza/internal/bytecode"
	"loopapalooza/internal/core"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
	"loopapalooza/internal/lang"
)

// program is one input program and the configurations a workload runs it
// under. The probe records a trace under cfgs[0] and replays it under the
// last configuration.
type program struct {
	name, src string
	cfgs      []core.Config
}

// probeLayers calls each layer's public entry point on every program, one
// span per call, and returns one round of per-layer values: times in
// seconds summed over the programs, and the counts that explain them. The
// bench and serve layers are probed only when own (the values the
// workload's own path measured) lacks them. failed counts probe outputs on
// which the engine paths disagree.
func probeLayers(tr *tracer, progs []program, own map[string]float64) (v map[string]float64, failed int, err error) {
	v = map[string]float64{}
	add := func(k string, d time.Duration) { v[k] += d.Seconds() }
	root := tr.begin("probe", 0, 0)
	defer tr.end(root)

	refs := make([][]*core.Report, len(progs))
	var fused float64
	for i, p := range progs {
		ps := tr.begin("probe.program", root, i)
		var (
			mod      *ir.Module
			info     *analysis.ModuleInfo
			bp       *bytecode.Program
			res      interp.Result
			multi    []*core.Report
			single   *core.Report
			recorded *core.Report
			replayed *core.Report
			trace    bytes.Buffer
		)
		last := p.cfgs[len(p.cfgs)-1]
		steps := []struct {
			span, metric string
			f            func() error
		}{
			{"lang.compile", "lang.compile_s", func() (err error) { mod, err = lang.Compile(p.name, p.src); return }},
			{"analysis.analyze", "analysis.analyze_s", func() (err error) { info, err = analysis.AnalyzeModule(mod); return }},
			{"bytecode.lower", "bytecode.lower_s", func() (err error) { bp, err = bytecode.For(info); return }},
			{"bytecode.exec", "bytecode.exec_s", func() (err error) {
				res, err = bytecode.NewVM(bp, interp.Config{Hooks: interp.NopHooks{}}).Run("main")
				return
			}},
			{"core.multirun", "core.multirun_s", func() (err error) { multi, err = core.MultiRun(info, p.cfgs, core.RunOptions{}); return }},
			{"core.run", "core.run_s", func() (err error) { single, err = core.Run(info, p.cfgs[0], core.RunOptions{}); return }},
			{"core.record", "core.record_s", func() (err error) {
				recorded, err = core.Run(info, p.cfgs[0], core.RunOptions{Trace: &trace})
				return
			}},
			{"core.replay", "core.replay_s", func() (err error) {
				replayed, err = core.ReplayTrace(p.name, info, last, core.RunOptions{}, bytes.NewReader(trace.Bytes()))
				return
			}},
		}
		for _, s := range steps {
			var err error
			add(s.metric, tr.do(s.span, ps, i, func() { err = s.f() }))
			if err != nil {
				return nil, 0, fmt.Errorf("probe %s: %s: %w", s.span, p.name, err)
			}
			if s.span == "lang.compile" {
				// Counted before analysis rewrites the module.
				v["lang.ir_instrs"] += float64(irInstrs(mod))
			}
		}
		tr.end(ps)
		v["analysis.loops"] += float64(len(info.Loops))
		v["bytecode.static_insts"] += float64(bp.StaticInsts())
		fused += float64(bp.FusedInsts())
		v["bytecode.steps"] += float64(res.Steps)
		v["core.trace_bytes"] += float64(trace.Len())
		// Run, record and replay must each reproduce the fan-out report.
		if !reflect.DeepEqual(single, multi[0]) || !reflect.DeepEqual(recorded, multi[0]) ||
			!reflect.DeepEqual(replayed, multi[len(multi)-1]) {
			failed++
		}
		refs[i] = multi
	}
	v["bytecode.fused_share"] = fused / v["bytecode.static_insts"]
	v["bytecode.steps_per_s"] = v["bytecode.steps"] / v["bytecode.exec_s"]
	v["core.fanout_replay_s"] = v["core.multirun_s"] - v["bytecode.exec_s"]

	if _, ok := own["bench.sweep_s"]; !ok {
		f, err := probeBench(tr, root, progs, v)
		if err != nil {
			return nil, 0, err
		}
		failed += f
	}
	if _, ok := own["serve.handler_s"]; !ok {
		f, err := probeServe(tr, root, progs, refs, v)
		if err != nil {
			return nil, 0, err
		}
		failed += f
	}
	return v, failed, nil
}

// irInstrs counts the IR instructions codegen emitted.
func irInstrs(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// probeSuite labels the programs a probe sweeps through the harness.
const probeSuite bench.Suite = "probe"

// probeBench sweeps the programs through a fresh harness under every
// configuration any of them uses, then renders the resulting speedup table.
func probeBench(tr *tracer, root int, progs []program, v map[string]float64) (int, error) {
	benches := make([]*bench.Benchmark, len(progs))
	used := map[core.Config]bool{}
	for i, p := range progs {
		benches[i] = &bench.Benchmark{Name: p.name, Suite: probeSuite, Source: p.src}
		for _, c := range p.cfgs {
			used[c] = true
		}
	}
	var cfgs []core.Config
	for _, c := range core.PaperConfigs() {
		if used[c] {
			cfgs = append(cfgs, c)
		}
	}
	h := bench.NewHarnessWith(bench.HarnessOptions{RetryTransient: true})
	var sr *bench.SweepResult
	v["bench.sweep_s"] = tr.do("bench.sweep", root, 0, func() {
		sr = h.Sweep(context.Background(), benches, cfgs)
	}).Seconds()
	st := h.Stats()
	v["bench.executions"] = float64(st.Executions)
	v["bench.saved_ratio"] = float64(st.Saved) / float64(st.Cells)

	var rows []bench.FigureRow
	for j, c := range cfgs {
		var xs []float64
		for i := range benches {
			if r := sr.Cells[i*len(cfgs)+j].Report; r != nil {
				xs = append(xs, r.Speedup())
			}
		}
		rows = append(rows, bench.FigureRow{Config: c, PerSuite: map[bench.Suite]float64{probeSuite: bench.GeoMean(xs)}})
	}
	v["bench.render_s"] = tr.do("bench.render", root, 0, func() {
		_ = bench.FormatSpeedupFigure("probe", []bench.Suite{probeSuite}, rows)
	}).Seconds()
	return len(sr.Failed()), nil
}

// probeServe sends every program to a fresh server three times — a live
// run under cfgs[0], a trace replay under the last configuration and a
// cache hit under cfgs[0] again — and checks each 200 response against the
// probe's fan-out reports.
func probeServe(tr *tracer, root int, progs []program, refs [][]*core.Report, v map[string]float64) (int, error) {
	var reqs []request
	for i, p := range progs {
		last := len(p.cfgs) - 1
		for _, k := range []int{0, last, 0} {
			r, err := newRequest(i, p.name, p.src, p.cfgs[k])
			if err != nil {
				return 0, err
			}
			reqs = append(reqs, r)
		}
	}
	classify(reqs)
	s, err := startServer()
	if err != nil {
		return 0, err
	}
	resps, _, _ := s.send(tr, root, reqs, 1)
	scraped, err := s.scrape()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return 0, err
	}
	for k, x := range serveLayers(reqs, resps, scraped) {
		v[k] = x
	}
	failed := 0
	for j, r := range reqs {
		p := progs[r.prog]
		ref := refs[r.prog][0]
		if r.cfg != p.cfgs[0] {
			ref = refs[r.prog][len(p.cfgs)-1]
		}
		want, err := json.Marshal(ref)
		if err != nil {
			return 0, err
		}
		if resps[j].status != 200 || !bytes.Equal(resps[j].report, want) {
			failed++
		}
	}
	return failed, nil
}
