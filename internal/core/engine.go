package core

import (
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/predict"
)

// Engine is the limit-study run-time: it implements interp.Hooks, tracks
// dynamic loop-carried dependencies, applies one execution model under one
// configuration, and produces limit speedups via an adjusted clock.
//
// Time accounting. The serial clock advances one unit per dynamic IR
// instruction. When a loop instance exits and its model cost is lower than
// its serial cost, the difference is added to a global savings counter; the
// *adjusted* clock (serial − savings) is the program's parallel execution
// time. Because enclosing loops measure their iteration lengths on the
// adjusted clock, inner-loop speedups propagate outward — the paper's
// bottom-up cost propagation, and SWARM/T4-style multi-level nested
// parallelism, realized online.
//
// Dependence storage lives behind a depTracker: the default shadow memory
// (flat generation-stamped tables) or the legacy per-level maps kept as a
// differential oracle (see trackerKind). An engine class on the chunk tee
// has none (tr is nil): it judges the shared probe's candidates instead.
type Engine struct {
	info *analysis.ModuleInfo
	cfg  Config
	tr   depTracker[writeRec]
	// sh is tr when it is the default shadow tracker, for a direct call on
	// the per-event hot path: an interface call into a generic tracker
	// pays one more wrapper call. nil under the legacy-map oracle.
	sh   *shadowTracker[writeRec]
	plan evalPlan

	clock   int64 // serial time: dynamic IR instructions
	savings int64 // Σ (serial − model cost) over parallel loop instances

	stack []*instance
	// live are the stack's tracked, not-yet-serialized instances — the
	// only ones Load/Store must visit. Kept in stack order.
	live []*instance
	// statSeq resolves LoopMeta→LoopStat by the meta's dense Seq ordinal
	// (one slice index instead of a map probe on every EnterLoop); stats
	// remains as the fallback for hand-built metas and for Stats().
	statSeq    []*LoopStat
	stats      map[*analysis.LoopMeta]*LoopStat
	coveredTop int64 // serial ticks inside outermost parallel instances

	anomalies LoopEventAnomalies

	freeInsts []*instance // instance pool

	// ord counts the loop events replayed from the chunk tee. A HELIX
	// class journals each savings change it makes while it has a live
	// instance, as (ordinal, savings before the change), and clears the
	// journal when its live list empties: enough to rebuild its savings
	// at any ordinal a live instance's writes were stamped at (drift).
	ord        int64
	journal    []savingsStep
	journalMax int
	// memoK0 and memoI0 memoize drift's journal search for one ordinal.
	memoK0 int64
	memoI0 int
}

// savingsStep is one savings-journal entry: the loop-event ordinal of an
// ExitLoop that changed the savings, and the savings before it.
type savingsStep struct {
	ord, before int64
}

// evalPlan is the per-configuration compiled event evaluator: which event
// payloads can possibly affect this configuration's report. It is derived
// once at engine construction from Config invariants (Validate guarantees
// DOALL ⟹ Dep==0), so the chunk-replay loop can skip dead payload work
// wholesale instead of dispatching it into code that discards it.
type evalPlan struct {
	// obsLive: IterLoop observations matter (Dep != 0). Under dep0 the
	// observation loop is dead code — no predictors exist and no register
	// LCD is synchronized — so the batched path passes a nil obs slice.
	obsLive bool
	// initLive: EnterLoop init values train predictors (Dep 2 or 3).
	// Otherwise LoopStat.preds is nil and the init slice is never read.
	initLive bool
}

// LoopEventAnomalies counts loop hook sequences that violate the expected
// LIFO discipline (an IterLoop or ExitLoop whose loop is not the innermost
// active instance, or with no active instance at all). The engine skips
// such events — they cannot be attributed — but counts them so broken
// frontends or hook wiring surface on the Report instead of vanishing.
type LoopEventAnomalies struct {
	// IterNoActive counts IterLoop events with an empty instance stack.
	IterNoActive int64 `json:"iterNoActive"`
	// IterMismatch counts IterLoop events whose loop is not the top of
	// the instance stack.
	IterMismatch int64 `json:"iterMismatch"`
	// ExitNoActive counts ExitLoop events with an empty instance stack.
	ExitNoActive int64 `json:"exitNoActive"`
	// ExitMismatch counts ExitLoop events whose loop is not the top of
	// the instance stack.
	ExitMismatch int64 `json:"exitMismatch"`
}

// Total sums all anomaly counters.
func (a LoopEventAnomalies) Total() int64 {
	return a.IterNoActive + a.IterMismatch + a.ExitNoActive + a.ExitMismatch
}

// LoopStat aggregates one static loop's behaviour over the whole run.
type LoopStat struct {
	// Meta is the loop's compile-time record.
	Meta *analysis.LoopMeta
	// Reason is SerialNone while the loop is considered parallelizable;
	// any other value permanently serializes future instances ("mark
	// the loop as suitable for serial execution only", §III-B).
	Reason SerialReason
	// StaticallySerial marks loops rejected before execution (Table II
	// flag constraints), as opposed to dynamically discovered reasons.
	StaticallySerial bool
	// Instances counts dynamic loop instances.
	Instances int64
	// ParallelInstances counts instances that finished with a parallel
	// model cost.
	ParallelInstances int64
	// Iters counts back edges over all instances.
	Iters int64
	// ConflictIters counts iterations that manifested a conflict.
	ConflictIters int64
	// SerialTicks sums the serial time spent inside the loop.
	SerialTicks int64
	// LastDelta records the HELIX delta_largest of the most recent
	// tracked instance (diagnostics).
	LastDelta int64
	// LastSlowest records the slowest iteration of the most recent
	// tracked instance (diagnostics).
	LastSlowest int64
	// preds are the per-observed-LCD value predictors (nil under dep
	// flags that do not predict).
	preds []predict.Observer
}

// instance is one dynamic execution of a loop.
type instance struct {
	meta *analysis.LoopMeta
	stat *LoopStat
	// serialized: this instance contributes no savings.
	serialized bool
	// tracked: dependence tracking active (false when serialized).
	tracked bool
	// depth is the instance's position in the engine stack at entry: its
	// shadow-memory nesting level, unique among active instances.
	depth int
	// liveIdx is the instance's position in the engine's live list, or
	// -1 when not live.
	liveIdx int

	enterAdj        int64
	enterSerial     int64
	iterStartAdj    int64
	iterStartSerial int64
	iterStartSP     int64
	iters           int64 // completed back edges; also the 0-based index
	// of the current iteration

	slowestIter    int64
	phaseSlowest   int64
	parallelAcc    int64 // PDOALL: closed phases
	phaseFirstIter int64 // PDOALL: first iteration of the current phase
	deltaLargest   int64 // HELIX: largest per-iteration sync slope

	conflictIters     int64
	curIterConflicted bool

	// coveredChildren accumulates covered serial ticks reported by
	// child instances, consumed if this instance ends up serial.
	coveredChildren int64
}

type writeRec struct {
	iter int64 // writer iteration index
	off  int64 // adjusted offset of the write within its iteration
}

// NewEngine prepares an engine for one run of one configuration, using the
// default shadow-memory tracker. The configuration must Validate.
func NewEngine(info *analysis.ModuleInfo, cfg Config) *Engine {
	return newEngineTracker(info, cfg, trackerShadow)
}

// newEngineTracker is NewEngine with an explicit dependence-tracker choice;
// the differential-oracle tests use it to compare both implementations.
func newEngineTracker(info *analysis.ModuleInfo, cfg Config, kind trackerKind) *Engine {
	e := &Engine{
		info:  info,
		cfg:   cfg,
		tr:    newTracker[writeRec](kind, info),
		stats: map[*analysis.LoopMeta]*LoopStat{},
		plan: evalPlan{
			obsLive:  cfg.Dep != 0,
			initLive: cfg.Dep == 2 || cfg.Dep == 3,
		},
	}
	e.sh, _ = e.tr.(*shadowTracker[writeRec])
	e.statSeq = make([]*LoopStat, len(info.Loops))
	for _, lm := range info.Loops {
		st := e.newStat(lm)
		e.stats[lm] = st
		if lm.Seq >= 0 && lm.Seq < len(e.statSeq) && e.statSeq[lm.Seq] == nil {
			e.statSeq[lm.Seq] = st
		}
	}
	return e
}

// staticReason applies the static Table II constraints of one configuration
// to one loop: the serialization verdict available before execution. Both
// engine construction (newStat) and configuration coalescing (classOf) use
// this single definition, so the behavioral signature cannot drift from the
// engine.
func staticReason(cfg Config, lm *analysis.LoopMeta) SerialReason {
	// fn flags: calls the configuration does not admit.
	switch cfg.Fn {
	case 0:
		if lm.HasCall {
			return SerialCall
		}
	case 1:
		if lm.HasNonPureCall {
			return SerialCall
		}
	case 2:
		if lm.HasUnsafeOrIOCall {
			return SerialCall
		}
	}
	// dep flags: non-computable register LCDs (and reductions under
	// reduc0) bar parallelization when dep0.
	if cfg.Dep == 0 {
		if len(lm.NonComputable) > 0 {
			return SerialRegLCD
		}
		if cfg.Reduc == 0 && len(lm.Reductions) > 0 {
			return SerialReduction
		}
	}
	return SerialNone
}

// newStat applies the static Table II constraints to one loop.
func (e *Engine) newStat(lm *analysis.LoopMeta) *LoopStat {
	st := &LoopStat{Meta: lm}
	st.Reason = staticReason(e.cfg, lm)
	st.StaticallySerial = st.Reason != SerialNone

	// Predictors for the constrained observations (dep2 realistic,
	// dep3 perfect).
	n := len(lm.Observed)
	if n > 0 && (e.cfg.Dep == 2 || e.cfg.Dep == 3) {
		st.preds = make([]predict.Observer, n)
		for i := range st.preds {
			if e.cfg.Dep == 3 {
				st.preds[i] = &predict.Perfect{}
			} else {
				st.preds[i] = predict.NewHybrid()
			}
		}
	}
	return st
}

// statOf resolves the stat record for a meta: one slice index on the hot
// path, with the map as fallback for metas outside the module's dense Seq
// numbering (hand-built test metas).
func (e *Engine) statOf(lm *analysis.LoopMeta) *LoopStat {
	if s := lm.Seq; s >= 0 && s < len(e.statSeq) {
		if st := e.statSeq[s]; st != nil && st.Meta == lm {
			return st
		}
	}
	st := e.stats[lm]
	if st == nil {
		st = e.newStat(lm)
		e.stats[lm] = st
	}
	return st
}

// constrained reports whether observed-LCD index k restricts parallelism
// under the configuration: plain non-computable LCDs always do, reduction
// phis only under reduc0.
func (e *Engine) constrained(lm *analysis.LoopMeta, k int) bool {
	if k < lm.NumObservedNonComputable() {
		return true
	}
	return e.cfg.Reduc == 0
}

func (e *Engine) adj() int64 { return e.clock - e.savings }

// Tick implements interp.Hooks.
func (e *Engine) Tick(n int64) { e.clock += n }

// newInstance returns a zeroed instance, reusing a pooled record.
func (e *Engine) newInstance() *instance {
	if l := len(e.freeInsts); l > 0 {
		inst := e.freeInsts[l-1]
		e.freeInsts = e.freeInsts[:l-1]
		*inst = instance{}
		return inst
	}
	return &instance{}
}

// unlive removes inst from the live list, preserving order.
func (e *Engine) unlive(inst *instance) {
	i := inst.liveIdx
	if i < 0 {
		return
	}
	copy(e.live[i:], e.live[i+1:])
	e.live = e.live[:len(e.live)-1]
	for j := i; j < len(e.live); j++ {
		e.live[j].liveIdx = j
	}
	inst.liveIdx = -1
}

// EnterLoop implements interp.Hooks.
func (e *Engine) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	st := e.statOf(lm)
	st.Instances++
	inst := e.newInstance()
	inst.meta, inst.stat = lm, st
	inst.liveIdx = -1
	if st.Reason != SerialNone {
		inst.serialized = true
	} else {
		inst.tracked = true
		inst.depth = len(e.stack)
		now, ser := e.adj(), e.clock
		inst.enterAdj, inst.enterSerial = now, ser
		inst.iterStartAdj, inst.iterStartSerial = now, ser
		inst.iterStartSP = sp
		if e.tr != nil {
			e.tr.enter(inst.depth)
		}
		inst.liveIdx = len(e.live)
		e.live = append(e.live, inst)
		// Train predictors on the live-in values (iteration 0 values
		// are available at entry; no prediction needed for them).
		if st.preds != nil {
			for k, v := range init {
				st.preds[k].Observe(v.Bits())
			}
		}
	}
	e.stack = append(e.stack, inst)
}

// IterLoop implements interp.Hooks.
func (e *Engine) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	if len(e.stack) == 0 {
		e.anomalies.IterNoActive++
		return
	}
	inst := e.stack[len(e.stack)-1]
	if inst.meta != lm {
		e.anomalies.IterMismatch++
		return
	}
	inst.iters++
	if !inst.tracked {
		return
	}
	now := e.adj()
	iterLen := now - inst.iterStartAdj
	if iterLen > inst.slowestIter {
		inst.slowestIter = iterLen
	}
	if iterLen > inst.phaseSlowest {
		inst.phaseSlowest = iterLen
	}

	// Register LCD handling for the next iteration's values.
	nextConflicted := false
	for k, o := range obs {
		if !e.constrained(lm, k) {
			continue
		}
		switch e.cfg.Dep {
		case 2, 3:
			hit := inst.stat.preds[k].Observe(o.Val.Bits())
			if hit {
				continue
			}
			// Mispredicted: the consumer (next iteration, offset 0)
			// must wait for the producer in the just-finished
			// iteration.
			switch e.cfg.Model {
			case PDOALL:
				nextConflicted = true
			case HELIX:
				e.regSlope(inst, o, iterLen)
			}
		case 1: // HELIX-only: lowered to memory, synchronized always.
			e.regSlope(inst, o, iterLen)
		}
	}

	if nextConflicted {
		// The upcoming iteration starts conflicted: close the phase
		// ending with the just-finished iteration. (curIterConflicted
		// only deduplicates conflicts within one iteration; a new
		// iteration always opens fresh.)
		inst.parallelAcc += inst.phaseSlowest
		inst.phaseSlowest = 0
		inst.phaseFirstIter = inst.iters
		inst.conflictIters++
	}
	inst.curIterConflicted = nextConflicted

	inst.iterStartAdj = now
	inst.iterStartSerial = e.clock
	inst.iterStartSP = sp
}

// regSlope records the HELIX synchronization slope for a register LCD whose
// producer executed at serial tick DefTick within the just-finished
// iteration.
func (e *Engine) regSlope(inst *instance, o interp.LCDObs, iterLen int64) {
	var off int64
	if o.DefTick >= 0 {
		off = o.DefTick - inst.iterStartSerial
	}
	if off < 0 {
		off = 0
	}
	// Serial offsets can exceed the adjusted iteration length when nested
	// parallel loops compressed the iteration; clamp conservatively.
	if off > iterLen {
		off = iterLen
	}
	if off > inst.deltaLargest {
		inst.deltaLargest = off
	}
}

// ExitLoop implements interp.Hooks.
func (e *Engine) ExitLoop(lm *analysis.LoopMeta) {
	if len(e.stack) == 0 {
		e.anomalies.ExitNoActive++
		return
	}
	inst := e.stack[len(e.stack)-1]
	if inst.meta != lm {
		e.anomalies.ExitMismatch++
		return
	}
	e.stack = e.stack[:len(e.stack)-1]
	st := inst.stat

	var covered int64
	if inst.tracked {
		now, ser := e.adj(), e.clock
		// The trailing header-only segment counts as the final
		// (partial) iteration of the last phase.
		tail := now - inst.iterStartAdj
		if tail > inst.slowestIter {
			inst.slowestIter = tail
		}
		if tail > inst.phaseSlowest {
			inst.phaseSlowest = tail
		}
		serialAdj := now - inst.enterAdj

		var parallel int64
		switch e.cfg.Model {
		case DOALL:
			parallel = inst.slowestIter
		case PDOALL:
			if inst.iters > 0 && float64(inst.conflictIters) > ConflictIterLimit*float64(inst.iters) {
				inst.serialized = true
				st.Reason = SerialConflict
				parallel = serialAdj
			} else {
				parallel = inst.parallelAcc + inst.phaseSlowest
			}
		case HELIX:
			parallel = inst.slowestIter + inst.deltaLargest*inst.iters
			st.LastDelta = inst.deltaLargest
			st.LastSlowest = inst.slowestIter
			if parallel >= serialAdj {
				inst.serialized = true
				st.Reason = SerialNoGain
				parallel = serialAdj
			}
		}
		if parallel > serialAdj {
			parallel = serialAdj
		}
		if parallel < 1 && serialAdj > 0 {
			parallel = 1
		}
		if !inst.serialized {
			e.savings += serialAdj - parallel
			covered = ser - inst.enterSerial
			st.ParallelInstances++
		} else {
			covered = inst.coveredChildren
		}
		st.SerialTicks += ser - inst.enterSerial
		e.unlive(inst)
	} else {
		// Untracked instances were measured by an enclosing tracked
		// instance (or by nobody); they only forward covered ticks.
		covered = inst.coveredChildren
	}
	st.Iters += inst.iters
	st.ConflictIters += inst.conflictIters

	if len(e.stack) > 0 {
		e.stack[len(e.stack)-1].coveredChildren += covered
	} else {
		e.coveredTop += covered
	}
	e.freeInsts = append(e.freeInsts, inst)
}

// Load implements interp.Hooks: RAW detection against earlier-iteration
// writes, per live (tracked, unserialized) loop instance. The address is
// classified once; the tracker call takes the pre-computed region.
func (e *Engine) Load(addr int64) {
	if len(e.live) == 0 {
		return
	}
	r, ri := region(addr)
	onStack := r == regStack
	// Innermost-first, matching the historical stack walk; DOALL
	// serialization may unlive the instance under the cursor, which is
	// safe on a descending index.
	for idx := len(e.live) - 1; idx >= 0; idx-- {
		inst := e.live[idx]
		if onStack && addr < inst.iterStartSP {
			// Cactus-stack exemption (§II-E): frames pushed after
			// this iteration began are iteration-private.
			continue
		}
		var rec writeRec
		var ok bool
		if e.sh != nil {
			rec, ok = e.sh.loadAt(inst.depth, r, ri, addr)
		} else {
			rec, ok = e.tr.loadAt(inst.depth, r, ri, addr)
		}
		if !ok {
			continue
		}
		e.loadHit(inst, rec, e.adj()-inst.iterStartAdj)
	}
}

// loadHit applies the per-model RAW policy to one recorded write found for
// a load: same-iteration and committed-phase reads are not violations;
// everything else is a manifesting conflict. c is the load's adjusted
// offset within the instance's current iteration (HELIX slope input).
func (e *Engine) loadHit(inst *instance, rec writeRec, c int64) {
	if rec.iter >= inst.iters {
		return // no cross-iteration RAW for this loop
	}
	if e.cfg.Model == PDOALL && rec.iter < inst.phaseFirstIter {
		// The writer belongs to an already-committed phase: its
		// value is architecturally visible, so the read is not a
		// violation (§II-C: execution restarts after the
		// conflict is resolved).
		return
	}
	e.memConflict(inst, rec, c)
}

// memConflict applies one manifesting memory RAW LCD to an instance. c is
// the consuming load's adjusted offset within the instance's current
// iteration (only HELIX reads it).
func (e *Engine) memConflict(inst *instance, rec writeRec, c int64) {
	switch e.cfg.Model {
	case DOALL:
		// First conflict marks the loop sequential for good (§III-B).
		inst.serialized = true
		inst.stat.Reason = SerialConflict
		if !inst.curIterConflicted {
			inst.curIterConflicted = true
			inst.conflictIters++
		}
		e.unlive(inst)
	case PDOALL:
		if inst.curIterConflicted {
			return
		}
		inst.curIterConflicted = true
		inst.conflictIters++
		// Delay this iteration to the end of the slowest iteration
		// of the conflict-free phase that just ended; the new phase
		// begins with this (restarted) iteration.
		inst.parallelAcc += inst.phaseSlowest
		inst.phaseSlowest = 0
		inst.phaseFirstIter = inst.iters
	case HELIX:
		// Paper §III-B: assuming all iterations start at the same
		// time-stamp, record the largest producer-consumer offset
		// delta of any manifesting LCD. Note the delta is NOT
		// amortized over the iteration distance — HELIX synchronizes
		// every neighboring pair of iterations, which is exactly why
		// rare-conflict loops can prefer PDOALL (paper §IV).
		if inst.iters <= rec.iter {
			return
		}
		slope := e.helixSlope(inst, rec, c)
		if slope < 0 {
			slope = 0
		}
		if slope > inst.deltaLargest {
			inst.deltaLargest = slope
		}
		if !inst.curIterConflicted {
			inst.curIterConflicted = true
			inst.conflictIters++
		}
	}
}

// helixSlope is the HELIX synchronization slope of a conflict between
// the write rec and a load at adjusted offset c of the instance's current
// iteration, a later one than rec's: the producer-consumer offset, divided
// by the iteration distance under AmortizeHelixDelta.
func (e *Engine) helixSlope(inst *instance, rec writeRec, c int64) int64 {
	slope := rec.off - c
	if e.cfg.AmortizeHelixDelta {
		slope /= inst.iters - rec.iter
	}
	return slope
}

// Store implements interp.Hooks: record the write for RAW detection. The
// address is classified once; the tracker call takes the region.
func (e *Engine) Store(addr int64) {
	if len(e.live) == 0 {
		return
	}
	r, ri := region(addr)
	onStack := r == regStack
	now := e.adj()
	for idx := len(e.live) - 1; idx >= 0; idx-- {
		inst := e.live[idx]
		if onStack && addr < inst.iterStartSP {
			continue
		}
		rec := writeRec{iter: inst.iters, off: now - inst.iterStartAdj}
		if e.sh != nil {
			e.sh.storeAt(inst.depth, r, ri, addr, rec)
		} else {
			e.tr.storeAt(inst.depth, r, ri, addr, rec)
		}
	}
}

// drift returns J(kw) − J(k0), the savings this class made between the
// loop-event ordinals k0 <= kw of one write's stamp, where J(k) is the
// savings in effect after the first k loop events replayed. Valid for any
// k0 no older than the entry of the oldest live instance, which the
// journal covers: J(k) is the savings before the journal's first change
// past k, or the current savings when no later change exists.
func (e *Engine) drift(k0, kw int64) int64 {
	j := e.journal
	// Candidates mostly share their writer iteration: the journal index
	// past k0 is memoized (appends keep it, a clear resets the memo).
	if k0 != e.memoK0 {
		e.memoK0, e.memoI0 = k0, firstAfter(j, 0, k0)
	}
	i0 := e.memoI0
	if i0 == len(j) {
		return 0 // no change since k0
	}
	iw := firstAfter(j, i0, kw)
	sw := e.savings
	if iw < len(j) {
		sw = j[iw].before
	}
	return sw - j[i0].before
}

// firstAfter returns the index of the journal's first step past ordinal
// k, or len(j), given that no step before index lo is past k: it gallops
// forward from lo, then bisects.
func firstAfter(j []savingsStep, lo int, k int64) int {
	hi, d := lo, 1
	for hi < len(j) && j[hi].ord <= k {
		lo = hi + 1
		hi += d
		d *= 2
	}
	hi = min(hi, len(j))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if j[m].ord > k {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// journalExit keeps a HELIX class's savings journal across one replayed
// ExitLoop, given the savings before it.
func (e *Engine) journalExit(before int64) {
	switch {
	case len(e.live) == 0:
		e.journal = e.journal[:0]
		e.memoK0 = 0 // no ordinal: they start at 1
	case e.savings != before:
		e.journal = append(e.journal, savingsStep{ord: e.ord, before: before})
		e.journalMax = max(e.journalMax, len(e.journal))
	}
}

// SerialCost returns the total dynamic IR instruction count (serial time).
func (e *Engine) SerialCost() int64 { return e.clock }

// ParallelCost returns the adjusted (limit parallel) time.
func (e *Engine) ParallelCost() int64 { return e.adj() }

// CoveredTicks returns the serial ticks spent inside parallel loops.
func (e *Engine) CoveredTicks() int64 { return e.coveredTop }

// Anomalies returns the loop-event anomaly counters.
func (e *Engine) Anomalies() LoopEventAnomalies { return e.anomalies }

// Stats exposes the per-loop statistics (keyed by loop metadata).
func (e *Engine) Stats() map[*analysis.LoopMeta]*LoopStat { return e.stats }
