package core

import (
	"sync"

	"loopapalooza/internal/analysis"
)

// sharedProbe is the chunk tee's one dependence probe for every engine
// class (see the fanout.go header). It mirrors the engines' loop stack —
// depth, iteration count, and iteration-start SP follow the same rules as
// Engine, Iter/Exit anomalies included, and none of them depends on the
// configuration — and owns the run's only dependence tracker.
//
// A mirror instance is tracked (a watched level) when its loop is
// statically trackable in at least one class. That covers every instance
// some class can have live: a class tracks an instance only while its
// loop's Reason is SerialNone, Reason starts at the static verdict and is
// never reset, and a live instance has recorded every store since its
// entry — exactly what the probe's level holds, since its generation is
// bumped on the same entry. A class therefore sees, for each candidate at
// a level where its instance is live, precisely the hit its own tracker
// would have reported, and ignores the rest.
//
// DOALL and PDOALL read only the writer's iteration. HELIX also reads the
// write's offset on the ADJUSTED clock, which differs per class; the
// probe stores what rebuilds it exactly in every class (see stamp).
type sharedProbe struct {
	info    *analysis.ModuleInfo
	classes []*Engine
	watch   []bool // per info.Loops index: trackable in some class
	// sh is tr when it is the default shadow tracker, for the direct
	// memRun fast path; nil under the legacy-map oracle, whose spans run
	// through naiveRun.
	tr depTracker[stamp]
	sh *shadowTracker[stamp]
	// stack is the loop-stack mirror, by depth.
	stack []mirrorInst
	// clock is the serial clock (Σ ticks) at the open memory span's
	// start and ord the number of loop events so far: both are the same
	// in every class.
	clock, ord int64
	work       probeWork
}

// mirrorInst is one loop instance of the probe's loop-stack mirror: its
// completed back edges, and the SP, serial clock and loop-event ordinal at
// its current iteration's start. tracked marks a watched level.
type mirrorInst struct {
	meta    *analysis.LoopMeta
	tracked bool

	iters, iterStartSP, iterStartSerial, iterStartOrd int64
}

// stamp is the shared probe's write record: the writer's iteration plus
// what rebuilds the write's offset on any class's adjusted clock. HELIX
// reads off = adj(write) − iterStartAdj(writer iteration); with J(k) a
// class's savings after the first k loop events, adj = serial − J, so
//
//	off = ser − (J(kw) − J(k0))
//
// where ser, kw and k0 are the same in every class. Savings change only at
// ExitLoop, a loop event, so the ordinals place each change exactly on the
// right side of the write — serial clocks could tie — and the class reads
// J from its savings journal (Engine.drift).
type stamp struct {
	iter int64 // the writer's iteration
	ser  int64 // the write's serial offset within its iteration
	kw   int64 // loop-event ordinal of the write's span
	k0   int64 // loop-event ordinal of the writer iteration's start
}

// newSharedProbe builds the probe for the engine classes of one chunk tee,
// with a tracker of the classes' kind.
func newSharedProbe(info *analysis.ModuleInfo, engines []*Engine, kind trackerKind) *sharedProbe {
	p := &sharedProbe{info: info, classes: engines, tr: newTracker[stamp](kind, info)}
	p.sh, _ = p.tr.(*shadowTracker[stamp])
	p.watch = make([]bool, len(info.Loops))
	for i, lm := range info.Loops {
		p.watch[i] = p.trackable(lm)
	}
	return p
}

// trackable reports whether lm passes the static Table II constraints of
// at least one of the probe's classes.
func (p *sharedProbe) trackable(lm *analysis.LoopMeta) bool {
	for _, e := range p.classes {
		if staticReason(e.cfg, lm) == SerialNone {
			return true
		}
	}
	return false
}

// watched resolves trackable by the meta's dense Seq ordinal, falling back
// to the direct test for metas outside the module's numbering.
func (p *sharedProbe) watched(lm *analysis.LoopMeta) bool {
	if s := lm.Seq; s >= 0 && s < len(p.watch) && p.info.Loops[s] == lm {
		return p.watch[s]
	}
	return p.trackable(lm)
}

// enter mirrors Engine.EnterLoop.
func (p *sharedProbe) enter(lm *analysis.LoopMeta, sp int64) {
	p.ord++
	p.stack = append(p.stack, mirrorInst{meta: lm, iterStartSP: sp,
		iterStartSerial: p.clock, iterStartOrd: p.ord})
	if p.watched(lm) {
		p.stack[len(p.stack)-1].tracked = true
		p.tr.enter(len(p.stack) - 1)
	}
}

// iter mirrors Engine.IterLoop: an event that is not for the innermost
// instance is an anomaly every engine skips.
func (p *sharedProbe) iter(lm *analysis.LoopMeta, sp int64) {
	p.ord++
	n := len(p.stack)
	if n == 0 || p.stack[n-1].meta != lm {
		return
	}
	inst := &p.stack[n-1]
	inst.iters++
	inst.iterStartSP, inst.iterStartSerial, inst.iterStartOrd = sp, p.clock, p.ord
}

// exit mirrors Engine.ExitLoop.
func (p *sharedProbe) exit(lm *analysis.LoopMeta) {
	p.ord++
	n := len(p.stack)
	if n == 0 || p.stack[n-1].meta != lm {
		return
	}
	p.stack = p.stack[:n-1]
}

// span probes one closing memory span's records evs at every watched
// level, innermost first, appending each cross-iteration hit to c.cands,
// and then advances the probe's clock by the span's tick sum. The span's
// conflict summary is computed once, at the first watched level.
func (p *sharedProbe) span(c *evChunk, evs []memEv, ticks int64) {
	var sum spanSum
	summed := false
	for d := len(p.stack) - 1; d >= 0 && len(evs) > 0; d-- {
		inst := &p.stack[d]
		if !inst.tracked {
			continue
		}
		if !summed {
			sum, summed = summarizeSpan(evs), true
		}
		base := stamp{iter: inst.iters, ser: p.clock - inst.iterStartSerial,
			kw: p.ord, k0: inst.iterStartOrd}
		if sh := p.sh; sh != nil {
			var skipped bool
			c.cands, skipped = memRun(sh, d, evs, base, inst.iterStartSP, &sum, c.cands)
			if skipped {
				p.work.SharedSkips++
			}
		} else {
			c.cands = naiveRun(p.tr, d, evs, base, inst.iterStartSP, c.cands)
		}
		p.work.SharedCalls++
		p.work.SharedRecords += int64(len(evs))
	}
	p.clock += ticks
}

// judgeCands applies an engine class's RAW policy to one memory span's
// shared-probe candidates: each candidate whose level holds a live
// instance of this class is a load hit on a write from an earlier
// iteration. Candidates come grouped by level in record order, so each
// instance sees its hits in per-event order, and a DOALL conflict that
// unlives the instance makes the rest of its candidates skip. Only HELIX
// reads the offsets: the write's, rebuilt from its stamp (see stamp), and
// the load's, on this class's adjusted clock at the span's start plus the
// load's advance inside the span.
func (e *Engine) judgeCands(cands []probeCand) {
	if len(e.live) == 0 {
		return
	}
	adj0 := e.adj()
	for i := range cands {
		cd := &cands[i]
		inst := e.stack[cd.level]
		if inst.liveIdx < 0 {
			continue
		}
		rec := writeRec{iter: cd.w.iter}
		var c int64
		if e.cfg.Model == HELIX {
			c = adj0 - inst.iterStartAdj + cd.tick
			// Savings never decrease, so the drift only lowers the
			// offset: it matters only when the slope at the serial
			// offset would raise deltaLargest.
			rec.off = cd.w.ser
			if e.helixSlope(inst, rec, c) > inst.deltaLargest {
				rec.off -= e.drift(cd.w.k0, cd.w.kw)
			}
		}
		e.loadHit(inst, rec, c)
	}
}

// probeWork counts dependence-probe work on the chunk-tee path: the shared
// probe's tracker calls, the memory records handed to them, the calls the
// span summaries answered without probing a load, and the candidates
// emitted; and the longest savings journal any class kept. No class
// probes a tracker of its own.
type probeWork struct {
	SharedCalls, SharedRecords, SharedSkips, Candidates int64
	JournalMax                                          int64
}

// probeCensus sums the probeWork of every chunk tee the process finished
// (JournalMax is the maximum); each tee adds once, at its drain. Only the
// fan-out benchmark reads it.
var probeCensus struct {
	mu sync.Mutex
	w  probeWork
}

// addProbeWork adds one finished tee's work to the census.
func addProbeWork(w *probeWork) {
	probeCensus.mu.Lock()
	defer probeCensus.mu.Unlock()
	c := &probeCensus.w
	c.SharedCalls += w.SharedCalls
	c.SharedRecords += w.SharedRecords
	c.SharedSkips += w.SharedSkips
	c.Candidates += w.Candidates
	c.JournalMax = max(c.JournalMax, w.JournalMax)
}
