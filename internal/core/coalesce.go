package core

// Configuration coalescing: the run-once / evaluate-many amortization of
// fanout.go, taken one step further. Two Table II configurations often
// compile to the SAME evaluator for a given module — reduc0 vs reduc1 is
// meaningless for a program with no reductions, fn flags only act through
// the static serialization verdicts, dep flags only act through loops that
// both survive the static constraints and carry observed register LCDs.
// Since every engine consumes the identical event stream, two
// configurations whose behavior-relevant parameters coincide evolve
// through identical states and produce identical reports (modulo the
// echoed Config field).
//
// MultiRun therefore groups the configuration grid into behavior classes
// per module and runs ONE engine per class; each member configuration's
// report is regenerated from the shared engine (Engine.Report is pure)
// with its own Config stamped in. The differential oracles pin the
// bit-identity of this collapse against per-configuration Run across the
// full benchmark suite.

import (
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// configClass is the behavioral signature of one configuration against one
// module: two configurations with equal classes drive the engine through
// identical state evolution on any event stream the module can produce.
//
// Fields are normalized so that parameters without a behavioral outlet
// collapse to a sentinel: dep is -1 unless some statically-parallelizable
// loop carries observed LCDs (the only place the dep flag acts at run
// time), and reduc is -1 unless such a loop carries reduction observations
// AND dep is nonzero (constrained() is only consulted when observations
// are handled). Static effects of all flags are captured exactly by the
// per-loop reason vector.
type configClass struct {
	model    Model
	amortize bool
	dep      int
	reduc    int
	// reasons is the static serialization verdict per loop, in module
	// order — one byte per loop.
	reasons string
}

// classOf computes cfg's behavior class for the module. It mirrors the
// engine's cfg reads exactly: staticReason covers newStat, the dep/reduc
// sentinels cover IterLoop's observation handling and predictor
// construction on loops that can ever be tracked (dynamic serialization
// only shrinks the statically-parallelizable set), and model/amortize
// cover the per-model policy switches.
func classOf(info *analysis.ModuleInfo, cfg Config) configClass {
	c := configClass{model: cfg.Model, amortize: cfg.AmortizeHelixDelta, dep: -1, reduc: -1}
	reasons := make([]byte, len(info.Loops))
	hasObs, hasReducObs := false, false
	for i, lm := range info.Loops {
		r := staticReason(cfg, lm)
		reasons[i] = byte('0' + int(r))
		if r != SerialNone {
			continue
		}
		if n := len(lm.Observed); n > 0 {
			hasObs = true
			if n > lm.NumObservedNonComputable() {
				hasReducObs = true
			}
		}
	}
	c.reasons = string(reasons)
	if hasObs {
		c.dep = cfg.Dep
	}
	if hasReducObs && cfg.Dep != 0 {
		c.reduc = cfg.Reduc
	}
	return c
}

// engineSet is the coalesced engine pool of one MultiRun: one engine per
// distinct behavior class, plus the configuration-to-engine assignment.
type engineSet struct {
	engines []*Engine
	assign  []int // cfgs index → engines index
}

// prepareEngines validates every configuration and builds one engine per
// behavior class, assigning each configuration to its class representative.
func prepareEngines(info *analysis.ModuleInfo, cfgs []Config, kind trackerKind) (*engineSet, error) {
	s := &engineSet{assign: make([]int, len(cfgs))}
	classes := map[configClass]int{}
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		cl := classOf(info, cfg)
		if j, ok := classes[cl]; ok {
			s.assign[i] = j
			continue
		}
		classes[cl] = len(s.engines)
		s.assign[i] = len(s.engines)
		s.engines = append(s.engines, newEngineTracker(info, cfg, kind))
	}
	return s, nil
}

// feed returns the consumer of one event stream and the drain to call
// after its last event. MultiRun and ReplayTraceBytes share this rule:
// when coalescing left a single class, its engine takes the events one by
// one, the way a live interpreter feeds it — a chunk plan (classified
// records, span summaries) only pays for itself when two or more classes
// read it. Two or more classes share the batched chunk tee.
func (s *engineSet) feed() (interp.Hooks, func()) {
	if len(s.engines) == 1 {
		return s.engines[0], func() {}
	}
	t := newChunkTee(s.engines)
	return t, t.flush
}

// reports finalizes one report per configuration. Members of a shared
// class re-derive the report from the class engine — Engine.Report reads
// engine state without mutating it — with the member's own Config echoed.
func (s *engineSet) reports(cfgs []Config, name string) []*Report {
	out := make([]*Report, len(cfgs))
	for i, cfg := range cfgs {
		r := s.engines[s.assign[i]].Report(name)
		r.Config = cfg
		out[i] = r
	}
	return out
}
