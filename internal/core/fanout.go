package core

// Run-once / evaluate-many: one interpretation of a program feeds any
// number of per-configuration engines. The instrumentation event stream is
// configuration-independent (paper §III-A separates instrumentation from
// the run-time models of §III-B), so sweeping the Table II grid does not
// need to re-interpret the benchmark once per configuration — MultiRun
// amortizes the expensive producer (the interpreter) across N cheap
// consumers (the engines).
//
// MultiRun feeds its engines one of two ways (engineSet.feed). When the
// configurations coalesce into a single engine class — always for Run,
// which is MultiRun with one configuration — that engine takes the events
// one by one. Two or more classes share the chunked batched tee
// (chunkTee): on the interpreting goroutine, events buffer into one pooled
// chunk that is built directly in replay-plan form — every load/store
// address is classified into its shadow region once, ticks fold into
// memory spans (maximal stretches of loads, stores, and interleaved ticks,
// with each record's intra-span clock offset precomputed), and each memory
// span is summarized once (spanSum: per-region load-index intervals,
// homogeneous-kind flags, the self-conflict marker).
//
// Probe once, judge per class. The paper's run-time has ONE mechanism that
// tracks memory conflicts between loop iterations and three models that
// judge what it finds. The tee mirrors that split: a shared dependence
// probe (sharedProbe) follows the loop stack on the producer side and,
// as each memory span closes, resolves it against the run's one shadow
// tracker at every nesting level some class can track, recording each
// cross-iteration hit as a candidate (probeCand) in the chunk. Every class
// then only applies its own policy to the candidates of its live
// instances; no class owns shadow memory. DOALL and PDOALL read nothing
// but the writer's iteration, which, like the loop stack and the
// cactus-stack bound, is the same in every class. The HELIX delta also
// reads the write's offset on the class's adjusted clock: the candidate
// carries a class-independent stamp (serial offset and loop-event
// ordinals) from which each HELIX class rebuilds it exactly, through a
// journal of its own savings changes (see stamp and Engine.drift).
//
// When the chunk fills, every engine class replays it
// (Engine.replayChunkBatched). The optional trace writer needs the
// per-event stream and tees off the producer ahead of either feed
// (recordTee). Trace replay (ReplayTraceBytes) feeds engines by the same
// rule.
//
// The contract, enforced differentially against the golden suite: the
// reports of MultiRun(info, cfgs, opts) are bit-identical to running
// Run(info, cfg, opts) once per configuration.

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// evKind tags one element of a chunk's replay plan.
type evKind uint8

const (
	evEnter evKind = iota
	evIter
	evExit
	// evMemSpan tags a runSpan covering a memory run: a maximal stretch of
	// load, store, and tick events between loop events.
	evMemSpan
)

// evRec is one loop event in flattened form. Variable-length payloads
// (EnterLoop init values, IterLoop observations) live in the owning
// chunk's flat arrays, referenced by [off, off+n).
type evRec struct {
	kind evKind
	lm   *analysis.LoopMeta
	a    int64 // Enter/Iter sp
	off  int32 // payload start in the chunk's vals/obs
	n    int32 // payload length
}

// chunkRecs bounds the loop records and the memory records of one chunk.
// At 32 bytes per memEv a full chunk is ~128 KiB of reused memory, and
// each engine's per-chunk replay dispatch amortizes over thousands of
// events.
const chunkRecs = 4096

// evChunk is one batch of events in replay-plan form: the partition into
// spans, the loop-event records the singleton spans address, the copied
// payloads, and the shared probe's candidates that every class judges.
// mem holds the memory records (kind, region classification, and
// intra-span tick offsets, in record order) the probe resolves as each
// memory span closes; no class reads them.
type evChunk struct {
	recs  []evRec
	vals  []interp.Val
	obs   []interp.LCDObs
	spans []runSpan
	mem   []memEv
	cands []probeCand
}

// runSpan is one element of a chunk's replay plan. Loop events
// (enter/iter/exit) are singleton spans addressing recs[rec]; everything
// between them — loads, stores, and the ticks interleaved with them — is
// one memory span addressing its shared-probe candidates [cstart, cend),
// with sum the total clock advance inside the span.
type runSpan struct {
	kind         evKind
	rec          int32 // record index, for loop-event spans
	cstart, cend int32 // candidate range in the chunk's cands, for memory spans
	sum          int64 // Σ tick payloads, for memory spans
}

// probeCand is one shared-probe candidate: a load of a memory span that
// found a write recorded by an EARLIER iteration of the loop instance at
// nesting level level. Candidates of one span are grouped by level, in
// record order within a level.
type probeCand struct {
	level int32 // nesting level: the instance's engine stack depth
	tick  int64 // the load's clock advance inside its span
	w     stamp // the write's record
}

// chunkPool recycles whole chunks across MultiRun calls; a chunk's
// buffers are sized for a full chunk when it is built, so a steady-state
// sweep allocates no chunk memory at all.
var chunkPool = sync.Pool{New: func() any {
	return &evChunk{
		recs: make([]evRec, 0, chunkRecs),
		vals: make([]interp.Val, 0, chunkRecs),
		obs:  make([]interp.LCDObs, 0, chunkRecs),
		// Each loop record closes at most one memory span, and a memory
		// flush at most one more.
		spans: make([]runSpan, 0, 2*chunkRecs+2),
		mem:   make([]memEv, 0, chunkRecs),
		cands: make([]probeCand, 0, chunkRecs),
	}
}}

// reset readies the chunk for refilling.
func (c *evChunk) reset() {
	c.recs = c.recs[:0]
	c.vals = c.vals[:0]
	c.obs = c.obs[:0]
	c.spans = c.spans[:0]
	c.mem = c.mem[:0]
	c.cands = c.cands[:0]
}

// replayChunkBatched applies one chunk to an engine, the per-config
// compiled evaluator of the fan-out:
//
//   - a memory span only judges the shared probe's candidates
//     (Engine.judgeCands), whose stamps and load advances keep every
//     conflict offset exact;
//   - loop events are counted (the ordinals the probe stamps), and a
//     HELIX class journals the savings each ExitLoop changes;
//   - the span's tick sum collapses to a single clock add (Tick only
//     accumulates, so the precomputed sum is exact — and the coalescing is
//     strictly consumer-side, leaving recorded trace bytes untouched);
//   - payloads dead under this configuration's evalPlan (IterLoop
//     observations under dep0, EnterLoop init values without predictors)
//     are skipped wholesale instead of being sliced and dispatched into
//     code that discards them.
//
// The result is bit-identical to feeding Engine's per-event hooks, which
// is what Run does; the oracle suites pin that equivalence.
func (e *Engine) replayChunkBatched(c *evChunk) {
	for si := range c.spans {
		s := &c.spans[si]
		if s.kind == evMemSpan {
			if s.cend > s.cstart {
				e.judgeCands(c.cands[s.cstart:s.cend])
			}
			e.clock += s.sum
			continue
		}
		e.ord++
		switch s.kind {
		case evEnter:
			r := &c.recs[s.rec]
			var init []interp.Val
			if e.plan.initLive {
				init = c.vals[r.off : r.off+r.n]
			}
			e.EnterLoop(r.lm, r.a, init)
		case evIter:
			r := &c.recs[s.rec]
			var obs []interp.LCDObs
			if e.plan.obsLive {
				obs = c.obs[r.off : r.off+r.n]
			}
			e.IterLoop(r.lm, r.a, obs)
		case evExit:
			before := e.savings
			e.ExitLoop(c.recs[s.rec].lm)
			if e.cfg.Model == HELIX {
				e.journalExit(before)
			}
		}
	}
}

// recordTee forwards every event to the engine feed and then to the
// trace writer, on the interpreting goroutine, scratch slices included —
// safe because both consumers are synchronous and non-retaining. The
// writer is called directly, not through interp.Hooks, which saves one
// interface dispatch per event.
type recordTee struct {
	h  interp.Hooks
	tw *TraceWriter
}

func (t *recordTee) Tick(n int64) {
	t.h.Tick(n)
	t.tw.Tick(n)
}

func (t *recordTee) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	t.h.EnterLoop(lm, sp, init)
	t.tw.EnterLoop(lm, sp, init)
}

func (t *recordTee) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	t.h.IterLoop(lm, sp, obs)
	t.tw.IterLoop(lm, sp, obs)
}

func (t *recordTee) ExitLoop(lm *analysis.LoopMeta) {
	t.h.ExitLoop(lm)
	t.tw.ExitLoop(lm)
}

func (t *recordTee) Load(addr int64) {
	t.h.Load(addr)
	t.tw.Load(addr)
}

func (t *recordTee) Store(addr int64) {
	t.h.Store(addr)
	t.tw.Store(addr)
}

// chunkTee is the batched fan-out: events buffer into one chunk, and every
// engine consumes each full chunk through the batched replay path.
// Because its only consumers are batched engines — per-event hooks like
// the trace writer tee off the producer directly, see MultiRun — the tee
// builds the replay plan at write time: ticks fold straight into the open
// memory span's sum, loads and stores append classified memEv records, and
// only loop events materialize as evRecs. One pooled chunk serves the
// whole run. The tee also drives the shared dependence probe: loop events
// move its loop-stack mirror, and each closing memory span is probed once
// for every class.
type chunkTee struct {
	engines []*Engine
	probe   *sharedProbe
	cur     *evChunk
	sum     int64 // Σ tick payloads of the open memory span
	mstart  int32 // start of the open memory span in cur.mem
}

// newChunkTee builds the tee over engines, which give up their own
// trackers: the shared probe holds the run's only shadow memory.
func newChunkTee(info *analysis.ModuleInfo, engines []*Engine, kind trackerKind) *chunkTee {
	for _, e := range engines {
		e.tr, e.sh = nil, nil
	}
	return &chunkTee{
		engines: engines,
		probe:   newSharedProbe(info, engines, kind),
		cur:     chunkPool.Get().(*evChunk),
	}
}

// closeMemSpan ends the open memory span, emitting it — with its
// shared-probe candidates — if it observed any tick or memory record.
func (t *chunkTee) closeMemSpan() {
	c := t.cur
	if t.sum != 0 || int32(len(c.mem)) > t.mstart {
		cstart := int32(len(c.cands))
		t.probe.span(c, c.mem[t.mstart:], t.sum)
		c.spans = append(c.spans, runSpan{
			kind: evMemSpan, cstart: cstart, cend: int32(len(c.cands)), sum: t.sum,
		})
		t.sum = 0
		t.mstart = int32(len(c.mem))
	}
}

// loopRec appends one loop-event record plus its singleton span, flushing
// when the chunk fills.
func (t *chunkTee) loopRec(r evRec) {
	t.closeMemSpan()
	c := t.cur
	c.spans = append(c.spans, runSpan{kind: r.kind, rec: int32(len(c.recs))})
	c.recs = append(c.recs, r)
	if len(c.recs) >= chunkRecs {
		t.flush()
	}
}

// Tick implements interp.Hooks: ticks only accumulate, so they fold into
// the open span's sum without materializing a record.
func (t *chunkTee) Tick(n int64) { t.sum += n }

// Load implements interp.Hooks.
func (t *chunkTee) Load(addr int64) {
	r, idx := region(addr)
	c := t.cur
	c.mem = append(c.mem, memEv{idx: idx, addr: addr, tick: t.sum, kind: memLoad, reg: int8(r)})
	if len(c.mem) >= chunkRecs {
		t.flush()
	}
}

// Store implements interp.Hooks.
func (t *chunkTee) Store(addr int64) {
	r, idx := region(addr)
	c := t.cur
	c.mem = append(c.mem, memEv{idx: idx, addr: addr, tick: t.sum, kind: memStore, reg: int8(r)})
	if len(c.mem) >= chunkRecs {
		t.flush()
	}
}

// EnterLoop implements interp.Hooks: the init scratch slice is copied into
// the chunk's flat payload array. The probe mirror moves after the record,
// because the span the record closes belongs to the enclosing stack.
func (t *chunkTee) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	c := t.cur
	off := int32(len(c.vals))
	c.vals = append(c.vals, init...)
	t.loopRec(evRec{kind: evEnter, lm: lm, a: sp, off: off, n: int32(len(init))})
	t.probe.enter(lm, sp)
}

// IterLoop implements interp.Hooks: the obs scratch slice is copied into
// the chunk's flat payload array.
func (t *chunkTee) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	c := t.cur
	off := int32(len(c.obs))
	c.obs = append(c.obs, obs...)
	t.loopRec(evRec{kind: evIter, lm: lm, a: sp, off: off, n: int32(len(obs))})
	t.probe.iter(lm, sp)
}

// ExitLoop implements interp.Hooks.
func (t *chunkTee) ExitLoop(lm *analysis.LoopMeta) {
	t.loopRec(evRec{kind: evExit, lm: lm})
	t.probe.exit(lm)
}

// flush replays the buffered plan into every engine and resets the chunk
// for refilling. A memory span interrupted by a flush simply splits in
// two, which is exact: the engine adds the first part's tick sum to its
// clock before the second part computes offsets against the updated
// clock, and the probe resolves the second part against the state the
// first part left.
func (t *chunkTee) flush() {
	t.closeMemSpan()
	c := t.cur
	if len(c.spans) == 0 {
		return
	}
	for _, e := range t.engines {
		e.replayChunkBatched(c)
	}
	t.probe.work.Candidates += int64(len(c.cands))
	c.reset()
	t.mstart = 0
}

// finish drains the partial tail after the producer's last event, adds
// this run's probe work to the process census, and returns the chunk to
// the pool.
func (t *chunkTee) finish() {
	t.flush()
	w := t.probe.work
	for _, e := range t.engines {
		w.JournalMax = max(w.JournalMax, int64(e.journalMax))
	}
	addProbeWork(&w)
	t.cur.reset()
	chunkPool.Put(t.cur)
	t.cur = nil
}

// MultiRun executes the analyzed module's main function ONCE and evaluates
// every configuration against the shared event stream, returning one
// report per configuration, in order. The reports are bit-identical to
// running Run once per configuration; an execution failure (budget trip,
// guest fault, cancellation) is returned once and applies to every
// configuration, exactly as N identical executions would each have failed.
//
// Configurations coalesce into engine classes (prepareEngines). A lone
// class takes the events one by one; two or more share the chunked tee
// (see engineSet.feed). Either way everything runs on the interpreting
// goroutine; there is no goroutine, channel, or pool.
func MultiRun(info *analysis.ModuleInfo, cfgs []Config, opts RunOptions) (reps []*Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			reps, err = nil, fmt.Errorf("core: %s: %w", info.Mod.Name,
				&PanicError{Val: r, Stack: string(debug.Stack())})
		}
	}()
	set, err := prepareEngines(info, cfgs, opts.tracker)
	if err != nil {
		return nil, err
	}
	hooks, drain := set.feed()
	var tw *TraceWriter
	if opts.Trace != nil {
		// The trace writer needs the per-event stream; it tees off the
		// producer directly, ahead of the engine feed, so recorded bytes
		// do not depend on how many configurations ride the run.
		tw = NewTraceWriter(opts.Trace, info)
		hooks = &recordTee{h: hooks, tw: tw}
	}
	if err := interpret(info, opts, hooks); err != nil {
		return nil, err
	}
	drain()
	if tw != nil {
		if err := tw.Close(); err != nil {
			return nil, fmt.Errorf("core: %s: writing trace: %w", info.Mod.Name, err)
		}
	}
	return set.reports(cfgs, info.Mod.Name), nil
}

// interpret runs main under the selected execution engine with the given
// hooks and the RunOptions budgets.
func interpret(info *analysis.ModuleInfo, opts RunOptions, hooks interp.Hooks) error {
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
	}
	cfg := interp.Config{
		Out:          opts.Out,
		MaxSteps:     opts.MaxSteps,
		MaxHeapCells: opts.MaxHeapCells,
		Ctx:          opts.Ctx,
		Deadline:     deadline,
		Hooks:        hooks,
	}
	if _, err := execute(info, opts.engine, cfg, opts.EntryArgs); err != nil {
		return fmt.Errorf("core: %s: %w", info.Mod.Name, err)
	}
	return nil
}
