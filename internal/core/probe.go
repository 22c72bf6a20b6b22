package core

import (
	"sync"

	"loopapalooza/internal/analysis"
)

// sharedProbe is the chunk tee's one dependence probe for every DOALL and
// PDOALL engine class (see the fanout.go header). It mirrors the engines'
// loop stack — depth, iteration count, and iteration-start SP follow the
// same rules as Engine, Iter/Exit anomalies included, and none of them
// depends on the configuration — and owns one dependence tracker.
//
// A mirror instance is tracked (a watched level) when its loop is
// statically trackable in at least one DOALL/PDOALL class. That covers
// every instance some class can have live: a class tracks an instance
// only while its loop's Reason is SerialNone, Reason starts at the static
// verdict and is never reset, and a live instance has recorded every
// store since its entry — exactly what the probe's level holds, since its
// generation is bumped on the same entry. A class therefore sees, for each
// candidate at a level where its instance is live, precisely the hit its
// own tracker would have reported, and ignores the rest.
type sharedProbe struct {
	info  *analysis.ModuleInfo
	cfgs  []Config // the DOALL and PDOALL class configurations
	watch []bool   // per info.Loops index: trackable in some class of cfgs
	tr    depTracker
	// sh is tr when it is the default shadow tracker, for a direct call
	// on the hot path; nil under the legacy-map oracle.
	sh *shadowTracker
	// stack is the loop-stack mirror; instance records are reused by
	// depth, as nothing refers to one after its exit.
	stack   []instance
	hitIdx  []int32
	hitRecs []writeRec
	work    probeWork
}

// newSharedProbe builds the probe for the engine classes of one chunk tee,
// with a tracker of the classes' kind; nil when every class runs HELIX.
func newSharedProbe(engines []*Engine, kind trackerKind) *sharedProbe {
	var cfgs []Config
	for _, e := range engines {
		if e.cfg.Model != HELIX {
			cfgs = append(cfgs, e.cfg)
		}
	}
	if len(cfgs) == 0 {
		return nil
	}
	info := engines[0].info
	p := &sharedProbe{info: info, cfgs: cfgs, tr: newTracker(kind, info)}
	p.sh, _ = p.tr.(*shadowTracker)
	p.watch = make([]bool, len(info.Loops))
	for i, lm := range info.Loops {
		p.watch[i] = p.trackable(lm)
	}
	return p
}

// trackable reports whether lm passes the static Table II constraints of
// at least one of the probe's classes.
func (p *sharedProbe) trackable(lm *analysis.LoopMeta) bool {
	for _, cfg := range p.cfgs {
		if staticReason(cfg, lm) == SerialNone {
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
	d := len(p.stack)
	p.stack = append(p.stack, instance{meta: lm})
	if p.watched(lm) {
		inst := &p.stack[d]
		inst.tracked = true
		inst.depth = d
		inst.iterStartSP = sp
		p.tr.enter(inst)
	}
}

// iter mirrors Engine.IterLoop: an event that is not for the innermost
// instance is an anomaly every engine skips.
func (p *sharedProbe) iter(lm *analysis.LoopMeta, sp int64) {
	n := len(p.stack)
	if n == 0 || p.stack[n-1].meta != lm {
		return
	}
	inst := &p.stack[n-1]
	inst.iters++
	inst.iterStartSP = sp
}

// exit mirrors Engine.ExitLoop.
func (p *sharedProbe) exit(lm *analysis.LoopMeta) {
	n := len(p.stack)
	if n == 0 || p.stack[n-1].meta != lm {
		return
	}
	if inst := &p.stack[n-1]; inst.tracked {
		p.tr.drop(inst)
	}
	p.stack = p.stack[:n-1]
}

// span probes the chunk's memory span starting at mem index mstart (it
// runs to the end of c.mem) at every watched level, innermost first, and
// appends each cross-iteration hit to c.cands. Stores record the writer's
// iteration only: no DOALL or PDOALL policy reads the write's offset.
func (p *sharedProbe) span(c *evChunk, mstart int32, sum *spanSum) {
	evs := c.mem[mstart:]
	if cap(p.hitIdx) < len(evs) {
		p.hitIdx = make([]int32, len(evs))
		p.hitRecs = make([]writeRec, len(evs))
	}
	hitIdx, hitRecs := p.hitIdx, p.hitRecs
	for d := len(p.stack) - 1; d >= 0; d-- {
		inst := &p.stack[d]
		if !inst.tracked {
			continue
		}
		var nh int
		if sh := p.sh; sh != nil {
			nh = sh.memRun(inst, evs, inst.iters, 0, inst.iterStartSP, hitIdx, hitRecs, sum)
		} else {
			nh = p.tr.memRun(inst, evs, inst.iters, 0, inst.iterStartSP, hitIdx, hitRecs, sum)
		}
		p.work.SharedCalls++
		p.work.SharedRecords += int64(len(evs))
		for h := 0; h < nh; h++ {
			if w := hitRecs[h].iter; w < inst.iters {
				c.cands = append(c.cands, probeCand{level: int32(d), iter: w})
				p.work.Candidates++
			}
		}
	}
}

// judgeCands applies the RAW policy of a DOALL or PDOALL class to one
// memory span's shared-probe candidates: each candidate whose level holds
// a live instance of this class is a load hit on a write from an earlier
// iteration. Candidates come grouped by level in record order, so each
// instance sees its hits in the order memSpan would, and a DOALL conflict
// that unlives the instance makes the rest of its candidates skip, as
// memSpan stops at it. The zero load offset is never read: only HELIX
// uses it.
func (e *Engine) judgeCands(cands []probeCand) {
	if len(e.live) == 0 {
		return
	}
	for i := range cands {
		cd := &cands[i]
		inst := e.stack[cd.level]
		if inst.liveIdx < 0 {
			continue
		}
		e.loadHit(inst, writeRec{iter: cd.iter}, 0)
	}
}

// probeWork counts dependence-probe work on the chunk-tee path: the shared
// probe's tracker calls, the memory records handed to them, the calls the
// span summaries answered without probing a load, and the candidates
// emitted; and, per execution model, the tracker calls and records of the
// classes that probe on their own.
type probeWork struct {
	SharedCalls, SharedRecords, SharedSkips, Candidates int64
	ClassCalls, ClassRecords                            [HELIX + 1]int64
}

// probeCensus sums the probeWork of every chunk tee the process finished;
// each tee adds once, at its drain. Only the fan-out benchmark reads it.
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
	for m := range c.ClassCalls {
		c.ClassCalls[m] += w.ClassCalls[m]
		c.ClassRecords[m] += w.ClassRecords[m]
	}
}
