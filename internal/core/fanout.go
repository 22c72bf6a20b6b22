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
// (chunkTee): on the interpreting goroutine, events buffer into
// one reused chunk that is built directly in replay-plan form — every
// load/store address is classified into its shadow region once, ticks fold
// into memory spans (maximal stretches of loads, stores, and interleaved
// ticks, with each record's intra-span clock offset precomputed), and each
// memory span is summarized once (spanSum: per-region load-index
// intervals, homogeneous-kind flags, the self-conflict marker). When the
// chunk fills, every coalesced engine class replays it through the batched
// tracker path (Engine.replayChunkBatched), so N engines split the
// classification AND summarization cost N ways: each feeds whole spans to
// the tracker's batched memRun method, which consults the shared summary
// to skip provably hit-free probing. The optional trace writer needs the
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
// spans, the loop-event records the singleton spans address, the dense
// memory-record array the memory spans index (kind, region classification,
// and intra-span tick offsets, in record order), the copied payloads, and
// one conflict summary per memory span (flat, parallel slice indexed by
// runSpan.sumIdx) that every engine class consults before probing.
type evChunk struct {
	recs  []evRec
	vals  []interp.Val
	obs   []interp.LCDObs
	spans []runSpan
	mem   []memEv
	sums  []spanSum
}

// runSpan is one element of a chunk's replay plan. Loop events
// (enter/iter/exit) are singleton spans addressing recs[rec]; everything
// between them — loads, stores, and the ticks interleaved with them — is
// one memory span addressing the chunk's dense m-arrays [mstart, mend),
// with sum the total clock advance inside the span.
type runSpan struct {
	kind         evKind
	rec          int32 // record index, for loop-event spans
	mstart, mend int32 // m-array range, for memory spans
	sumIdx       int32 // conflict-summary index in the chunk's sums, for memory spans
	sum          int64 // Σ tick payloads, for memory spans
}

// reset readies the chunk for refilling.
func (c *evChunk) reset() {
	c.recs = c.recs[:0]
	c.vals = c.vals[:0]
	c.obs = c.obs[:0]
	c.spans = c.spans[:0]
	c.mem = c.mem[:0]
	c.sums = c.sums[:0]
}

// replayChunkBatched applies one chunk to an engine through the batched
// tracker path, the per-config compiled evaluator of the fan-out:
//
//   - each memory span makes ONE tracker dispatch per live loop instance
//     (Engine.memSpan → depTracker.memRun) instead of one per event, with
//     the precomputed intra-span tick offsets keeping every store's clock
//     stamp and every conflict offset exact;
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
		switch s.kind {
		case evMemSpan:
			if s.mend > s.mstart {
				e.memSpan(c.mem[s.mstart:s.mend], &c.sums[s.sumIdx])
			}
			e.clock += s.sum
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
			e.ExitLoop(c.recs[s.rec].lm)
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
// engine consumes each full chunk through the batched tracker path.
// Because its only consumers are batched engines — per-event hooks like
// the trace writer tee off the producer directly, see MultiRun — the tee
// builds the replay plan at write time: ticks fold straight into the open
// memory span's sum, loads and stores append classified memEv records, and
// only loop events materialize as evRecs. One chunk is reused for the
// whole run.
type chunkTee struct {
	engines []*Engine
	cur     *evChunk
	sum     int64 // Σ tick payloads of the open memory span
	mstart  int32 // start of the open memory span in cur.mem
}

func newChunkTee(engines []*Engine) *chunkTee {
	return &chunkTee{
		engines: engines,
		cur: &evChunk{
			recs: make([]evRec, 0, chunkRecs),
			mem:  make([]memEv, 0, chunkRecs),
		},
	}
}

// closeMemSpan ends the open memory span, emitting it — with its shared
// conflict summary — if it observed any tick or memory record.
func (t *chunkTee) closeMemSpan() {
	c := t.cur
	if t.sum != 0 || int32(len(c.mem)) > t.mstart {
		si := int32(len(c.sums))
		c.sums = append(c.sums, summarizeSpan(c.mem[t.mstart:]))
		c.spans = append(c.spans, runSpan{
			kind: evMemSpan, mstart: t.mstart, mend: int32(len(c.mem)), sumIdx: si, sum: t.sum,
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
// the chunk's flat payload array.
func (t *chunkTee) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	c := t.cur
	off := int32(len(c.vals))
	c.vals = append(c.vals, init...)
	t.loopRec(evRec{kind: evEnter, lm: lm, a: sp, off: off, n: int32(len(init))})
}

// IterLoop implements interp.Hooks: the obs scratch slice is copied into
// the chunk's flat payload array.
func (t *chunkTee) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	c := t.cur
	off := int32(len(c.obs))
	c.obs = append(c.obs, obs...)
	t.loopRec(evRec{kind: evIter, lm: lm, a: sp, off: off, n: int32(len(obs))})
}

// ExitLoop implements interp.Hooks.
func (t *chunkTee) ExitLoop(lm *analysis.LoopMeta) { t.loopRec(evRec{kind: evExit, lm: lm}) }

// flush replays the buffered plan into every engine and resets the chunk
// for refilling. A memory span interrupted by a flush simply splits in
// two, which is exact: the engine adds the first part's tick sum to its
// clock before the second part computes offsets against the updated
// clock. Call once more after the producer finishes to drain the partial
// tail.
func (t *chunkTee) flush() {
	t.closeMemSpan()
	c := t.cur
	if len(c.spans) == 0 {
		return
	}
	for _, e := range t.engines {
		e.replayChunkBatched(c)
	}
	c.reset()
	t.mstart = 0
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
