package core

// Tests for the chunk tee's shared dependence probe: every engine class,
// HELIX included, judges the candidates of one probe instead of probing
// its own shadow memory. Each test compares the tee's reports against one
// per-event engine per configuration on the legacy map tracker — the
// path core.Run takes under the tracker oracle — so a probe that misses,
// invents or misorders a hit shows up as a report difference.

import (
	"fmt"
	"math/rand"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// midSpanSrc's second loop reads two earlier iterations' elements in one
// memory span every eighth iteration: DOALL serializes on the first of
// the two loads, mid-span, while PDOALL restarts a phase and keeps the
// instance live, and HELIX synchronizes.
const midSpanSrc = `
const N = 256;
var a [N]int;
var b [N]int;
func main() int {
	var i int;
	for (i = 0; i < N; i = i + 1) { b[i] = i * 3; }
	for (i = 2; i < N; i = i + 1) {
		var t int = b[i];
		if (i % 8 == 0) { t = t + a[i-1] + a[i-2]; }
		a[i] = t;
	}
	return a[N-1];
}`

// teeRun executes info once through the chunk tee over cfgs and returns
// the reports with the tee, whose probe work and engines the caller may
// inspect.
func teeRun(t *testing.T, info *analysis.ModuleInfo, cfgs []Config) ([]*Report, *chunkTee) {
	t.Helper()
	set, err := prepareEngines(info, cfgs, trackerShadow)
	if err != nil {
		t.Fatal(err)
	}
	h, drain := set.feed()
	tee, ok := h.(*chunkTee)
	if !ok {
		t.Fatalf("%d configurations coalesced into %d class(es): no chunk tee", len(cfgs), len(set.engines))
	}
	if err := interpret(info, RunOptions{}, h); err != nil {
		t.Fatal(err)
	}
	drain()
	return set.reports(cfgs, info.Mod.Name), tee
}

// checkNoClassProbes fails when a class of any model owns a dependence
// tracker on the tee path: one that owns none made zero probes of its own
// and holds no shadow table; the shared probe made every probe.
func checkNoClassProbes(t *testing.T, tee *chunkTee) {
	t.Helper()
	for _, e := range tee.engines {
		if e.tr != nil {
			t.Errorf("%s class owns a %T under the shared probe", e.cfg, e.tr)
		}
	}
}

// TestSharedProbeMidSpanSerialize runs DOALL, PDOALL and HELIX classes in
// one MultiRun over a loop whose conflicting span holds two candidate
// loads: the DOALL class serializes the level at the first and must skip
// the second, the PDOALL class keeps the level live.
func TestSharedProbeMidSpanSerialize(t *testing.T) {
	info, err := AnalyzeSource("midspan", midSpanSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{{Model: DOALL}, {Model: PDOALL}, BestHELIX()}
	got, tee := teeRun(t, info, cfgs)
	for i, cfg := range cfgs {
		want, err := Run(info, cfg, RunOptions{tracker: trackerLegacyMap})
		if err != nil {
			t.Fatal(err)
		}
		if err := CompareReports(want, got[i]); err != nil {
			t.Error(err)
		}
	}
	checkNoClassProbes(t, tee)
	if tee.probe.work.Candidates < 2 {
		t.Errorf("shared probe emitted %d candidates, want the loop's conflicting loads", tee.probe.work.Candidates)
	}
	// The second loop's header is for.head1.
	loop := func(r *Report) LoopReport {
		for _, lr := range r.Loops {
			if lr.ID == "main:for.head1" {
				return lr
			}
		}
		t.Fatalf("%s: no loop main:for.head1", r.Config)
		return LoopReport{}
	}
	if lr := loop(got[0]); lr.Reason != SerialConflict {
		t.Errorf("DOALL: conflict loop reason %v, want %v", lr.Reason, SerialConflict)
	}
	if lr := loop(got[1]); !lr.Parallel || lr.ConflictIters == 0 {
		t.Errorf("PDOALL: conflict loop parallel=%v with %d conflicting iterations, want parallel with conflicts",
			lr.Parallel, lr.ConflictIters)
	}
}

// probeScript is a hand-written event stream for the tee.
type probeScript []probeEv

// probeEv is one scripted event: a loop event on lm (with sp for enter
// and iter), a tick of n, or a load or store of addr.
type probeEv struct {
	kind byte // 'e'nter, 'i'ter, 'x'it, 't'ick, 'l'oad, 's'tore, 'f'lush
	lm   *analysis.LoopMeta
	v    int64 // sp, tick count, or address
}

// play feeds the script to h; 'f' events flush the tee when h is one.
func (s probeScript) play(h interp.Hooks, afterEach func()) {
	for _, ev := range s {
		switch ev.kind {
		case 'e':
			h.EnterLoop(ev.lm, ev.v, nil)
		case 'i':
			h.IterLoop(ev.lm, ev.v, nil)
		case 'x':
			h.ExitLoop(ev.lm)
		case 't':
			h.Tick(ev.v)
		case 'l':
			h.Load(ev.v)
		case 's':
			h.Store(ev.v)
		case 'f':
			if tee, ok := h.(*chunkTee); ok {
				tee.flush()
			}
		}
		if afterEach != nil {
			afterEach()
		}
	}
}

// probeInfo builds a module whose loops cover the static verdicts that
// split configurations into classes: a plain loop, loops with calls of
// each purity level, one with a non-computable register LCD, one with a
// reduction, and one (last) that no DOALL or PDOALL configuration of
// probeConfigs can track. Their Seq ordinals index info.Loops.
func probeInfo() *analysis.ModuleInfo {
	info := trackerDiffInfo()
	lcd := []*ir.Instr{{}}
	shapes := []func(lm *analysis.LoopMeta){
		func(lm *analysis.LoopMeta) {},
		func(lm *analysis.LoopMeta) { lm.HasCall = true },
		func(lm *analysis.LoopMeta) { lm.HasCall, lm.HasNonPureCall = true, true },
		func(lm *analysis.LoopMeta) { lm.HasCall, lm.HasNonPureCall, lm.HasUnsafeOrIOCall = true, true, true },
		func(lm *analysis.LoopMeta) { lm.NonComputable = lcd },
		func(lm *analysis.LoopMeta) { lm.Reductions = []*analysis.Reduction{{}} },
		func(lm *analysis.LoopMeta) {
			lm.NonComputable = lcd
			lm.HasCall, lm.HasNonPureCall, lm.HasUnsafeOrIOCall = true, true, true
		},
	}
	for i, shape := range shapes {
		lm := fakeMeta()
		lm.Seq = i
		shape(lm)
		info.Loops = append(info.Loops, lm)
	}
	return info
}

// probeConfigs spreads over all three models and enough flag settings
// that probeInfo's loops coalesce into several classes of each.
func probeConfigs() []Config {
	return []Config{
		{Model: DOALL, Reduc: 0, Dep: 0, Fn: 0},
		{Model: DOALL, Reduc: 1, Dep: 0, Fn: 3},
		{Model: PDOALL, Reduc: 0, Dep: 0, Fn: 1},
		{Model: PDOALL, Reduc: 1, Dep: 2, Fn: 2},
		{Model: PDOALL, Reduc: 0, Dep: 3, Fn: 2},
		{Model: HELIX, Reduc: 1, Dep: 1, Fn: 2},
		{Model: HELIX, Reduc: 0, Dep: 0, Fn: 3, AmortizeHelixDelta: true},
	}
}

// checkScript plays s through the tee over cfgs and through one per-event
// map-tracker engine per configuration, and fails on any report
// difference. With shrink, the probe's shadow tracker runs on the shrunken
// differential caps so boundary addresses stay cheap; the map oracle has
// no caps, so the comparison holds either way. After every event the
// tee is flushed on 'f' and, once flushed, each engine's loop stack must
// be as deep as the probe's mirror.
func checkScript(t *testing.T, info *analysis.ModuleInfo, cfgs []Config, s probeScript, shrink bool) *chunkTee {
	t.Helper()
	set, err := prepareEngines(info, cfgs, trackerShadow)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.engines) < 3 {
		t.Fatalf("configurations coalesced into %d classes, want at least 3", len(set.engines))
	}
	h, drain := set.feed()
	tee := h.(*chunkTee)
	if shrink {
		tee.probe.sh.caps[regHeap] = diffHeapCap
		tee.probe.sh.caps[regStack] = diffStackCap
	}
	step := 0
	s.play(tee, func() {
		if s[step].kind == 'f' {
			for _, e := range set.engines {
				if len(e.stack) != len(tee.probe.stack) {
					t.Fatalf("event %d: %s engine depth %d, probe mirror depth %d",
						step, e.cfg, len(e.stack), len(tee.probe.stack))
				}
			}
		}
		step++
	})
	drain()
	got := set.reports(cfgs, info.Mod.Name)
	for i, cfg := range cfgs {
		ref := newEngineTracker(info, cfg, trackerLegacyMap)
		s.play(ref, nil)
		want := ref.Report(info.Mod.Name)
		if err := CompareReports(want, got[i]); err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
	}
	checkNoClassProbes(t, tee)
	return tee
}

// TestSharedProbeCactusStack: a store below the iteration-start SP is a
// callee frame's, private to its iteration, and never a candidate; the
// same pattern at or above the SP is a cross-iteration conflict.
func TestSharedProbeCactusStack(t *testing.T) {
	info := probeInfo()
	lm := info.Loops[0]
	const sp = int64(interp.StackTop) - 16
	for _, c := range []struct {
		name     string
		addr     int64
		iterSP   int64 // SP passed with each back edge
		conflict bool
	}{
		{"below-sp", sp - 4, sp, false},
		{"at-sp", sp, sp, true},
		{"above-sp", sp + 3, sp, true},
		// The bound is the SP of the CURRENT iteration: once the back
		// edges move it below the entry SP, the address is shared.
		{"sp-moved", sp - 4, sp - 8, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := probeScript{
				{kind: 'e', lm: lm, v: sp},
				{kind: 'i', lm: lm, v: c.iterSP},
				{kind: 't', v: 3}, {kind: 's', v: c.addr}, {kind: 't', v: 2},
				{kind: 'i', lm: lm, v: c.iterSP},
				{kind: 't', v: 1}, {kind: 'l', v: c.addr}, {kind: 't', v: 4},
				{kind: 'i', lm: lm, v: c.iterSP},
				{kind: 't', v: 1}, {kind: 'x', lm: lm},
			}
			tee := checkScript(t, info, probeConfigs(), s, false)
			if got := tee.probe.work.Candidates > 0; got != c.conflict {
				t.Errorf("candidates emitted = %v, want %v", got, c.conflict)
			}
		})
	}
}

// TestSharedProbeOverflowAddresses: low addresses past the global
// segment, heap addresses past the flat heap cap, and negative wild
// pointers all live in the overflow maps; conflicts on them must reach
// every class exactly as flat-table conflicts do.
func TestSharedProbeOverflowAddresses(t *testing.T) {
	info := probeInfo()
	lm := info.Loops[0]
	addrs := []int64{
		diffGlobalEnd + 5,                        // low, past the regLow cap
		int64(interp.HeapBase) + heapFlatCap + 7, // heap, past the flat cap
		-3,                                       // negative wild pointer
		int64(interp.HeapBase) + heapFlatCap*2 + 1, // far heap overflow
	}
	const sp = int64(interp.StackTop)
	s := probeScript{{kind: 'e', lm: lm, v: sp}}
	for _, a := range addrs {
		// The same-iteration reload is no candidate.
		s = append(s, probeEv{kind: 's', v: a}, probeEv{kind: 't', v: 1}, probeEv{kind: 'l', v: a})
	}
	s = append(s, probeEv{kind: 'i', lm: lm, v: sp})
	for i := len(addrs) - 1; i >= 0; i-- {
		s = append(s, probeEv{kind: 'l', v: addrs[i]}, probeEv{kind: 't', v: 2})
	}
	s = append(s, probeEv{kind: 'i', lm: lm, v: sp}, probeEv{kind: 'x', lm: lm})
	tee := checkScript(t, info, probeConfigs(), s, false)
	if n := tee.probe.work.Candidates; n != int64(len(addrs)) {
		t.Errorf("candidates = %d, want one per overflow address (%d)", n, len(addrs))
	}
}

// TestSharedProbeMismatchedLoopEvents: Iter and Exit events for a loop
// that is not innermost, or with no loop active, are anomalies every
// engine skips; the probe's mirror must skip the same events so its depth
// stays the engines' depth and candidates land on the right level.
func TestSharedProbeMismatchedLoopEvents(t *testing.T) {
	info := probeInfo()
	outer, inner, other := info.Loops[0], info.Loops[4], info.Loops[1]
	const sp = int64(interp.StackTop) - 8
	heap := int64(interp.HeapBase)
	s := probeScript{
		{kind: 'i', lm: outer, v: sp}, // iter with no active loop
		{kind: 'x', lm: outer},        // exit with no active loop
		{kind: 'e', lm: outer, v: sp},
		{kind: 's', v: heap + 1},
		{kind: 'e', lm: inner, v: sp - 4},
		{kind: 's', v: heap + 2},
		{kind: 'i', lm: outer, v: sp}, // iter for the enclosing loop: mismatch
		{kind: 'f'},
		{kind: 'x', lm: other}, // exit for a loop not on the stack: mismatch
		{kind: 'f'},
		{kind: 'i', lm: inner, v: sp - 4},
		{kind: 'l', v: heap + 2}, // inner cross-iteration hit
		{kind: 'l', v: heap + 1}, // written by the outer loop's current iteration
		{kind: 'x', lm: inner},
		{kind: 'f'},
		{kind: 'x', lm: inner}, // inner already exited: mismatch
		{kind: 'i', lm: outer, v: sp},
		{kind: 'l', v: heap + 1}, // outer cross-iteration hit
		{kind: 'f'},
		{kind: 'x', lm: outer},
		{kind: 'x', lm: outer}, // stack empty again
		{kind: 'f'},
	}
	tee := checkScript(t, info, probeConfigs(), s, false)
	if a := tee.engines[0].anomalies.Total(); a != 6 {
		t.Errorf("anomalies = %d, want 6", a)
	}
}

// randomProbeScript draws a stream of nested loop events, ticks, loads and
// stores on diffAddr's boundary addresses, with mismatched loop events
// and explicit flushes mixed in. Stack addresses and SPs share a window
// near the stack top so the cactus-stack bound cuts both ways. Some
// stretches are whole inner loops, entered and exited inside an outer
// iteration: where a class tracks them they save time, so the classes'
// adjusted clocks drift apart between a write and its iteration's start.
func randomProbeScript(rng *rand.Rand, info *analysis.ModuleInfo, n int) probeScript {
	// A trackable meta outside the module's numbering whose Seq names
	// the module's untrackable loop: the probe must not trust the Seq.
	stray := fakeMeta()
	stray.Seq = len(info.Loops) - 1
	metas := append([]*analysis.LoopMeta{stray}, info.Loops...)
	var stack []*analysis.LoopMeta
	sp := func() int64 { return int64(interp.StackTop) - int64(rng.Intn(12)) }
	var s probeScript
	for len(s) < n {
		switch k := rng.Intn(100); {
		case k < 4 && len(stack) < 5:
			lm := metas[rng.Intn(len(metas))]
			stack = append(stack, lm)
			s = append(s, probeEv{kind: 'e', lm: lm, v: sp()})
		case k < 12:
			lm := metas[rng.Intn(len(metas))]
			if len(stack) > 0 && rng.Intn(8) != 0 {
				lm = stack[len(stack)-1]
			}
			s = append(s, probeEv{kind: 'i', lm: lm, v: sp()})
		case k < 15:
			lm := metas[rng.Intn(len(metas))]
			if len(stack) > 0 && rng.Intn(8) != 0 {
				lm = stack[len(stack)-1]
			}
			if len(stack) > 0 && lm == stack[len(stack)-1] {
				stack = stack[:len(stack)-1]
			}
			s = append(s, probeEv{kind: 'x', lm: lm})
		case k < 16:
			s = append(s, probeEv{kind: 'f'})
		case k < 19 && len(stack) > 0 && len(stack) < 5:
			s = append(s, innerLoop(rng, metas[rng.Intn(len(metas))], sp())...)
		case k < 40:
			s = append(s, probeEv{kind: 't', v: int64(rng.Intn(6))})
		default:
			kind := byte('l')
			if rng.Intn(3) == 0 {
				kind = 's'
			}
			// Half the accesses reuse a small address pool so loads
			// find earlier iterations' stores.
			addr := diffAddr(byte(rng.Intn(256)), byte(rng.Intn(256)))
			if rng.Intn(2) == 0 {
				addr = diffAddr(byte(rng.Intn(12)), byte(rng.Intn(8)))
			}
			s = append(s, probeEv{kind: kind, v: addr})
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		s = append(s, probeEv{kind: 'x', lm: stack[i]})
	}
	return s
}

// innerLoop is a whole loop instance of lm: two to four iterations of
// uneven length, each touching the shared address pool, so a class that
// tracks lm and finds no conflict saves time at the exit.
func innerLoop(rng *rand.Rand, lm *analysis.LoopMeta, sp int64) probeScript {
	s := probeScript{{kind: 'e', lm: lm, v: sp}}
	n := 2 + rng.Intn(3)
	for i := 0; i < n; i++ {
		if i > 0 {
			s = append(s, probeEv{kind: 'i', lm: lm, v: sp})
		}
		s = append(s, probeEv{kind: 't', v: int64(1 + rng.Intn(12))})
		if rng.Intn(2) == 0 {
			kind := byte('l')
			if rng.Intn(2) == 0 {
				kind = 's'
			}
			s = append(s, probeEv{kind: kind, v: diffAddr(byte(rng.Intn(12)), byte(rng.Intn(8)))})
		}
	}
	return append(s, probeEv{kind: 't', v: int64(rng.Intn(3))}, probeEv{kind: 'x', lm: lm})
}

// TestSharedProbeHelixAdjustedOffset: two HELIX classes disagree on an
// inner loop — one tracks it and saves time at its exit, the other
// cannot (the loop calls a function) — before an outer iteration's
// producer store, so the store's offset on their adjusted clocks, and
// with it the outer loop's delta, differs. Each outer loop isolates one
// way of rebuilding that offset from the shared probe's stamp:
//
//   - tie-after: the store follows the inner exit at the same serial
//     clock, so only the loop-event ordinal places it after the savings;
//   - tie-before: the store ends the inner loop's last iteration at the
//     exit's serial clock, before the savings;
//   - later-iteration: the writer iteration starts after the savings, so
//     its start ordinal must read them too.
func TestSharedProbeHelixAdjustedOffset(t *testing.T) {
	info := probeInfo()
	inner := info.Loops[1] // calls a pure function: trackable under fn1..fn3
	heap := int64(interp.HeapBase)
	const sp = int64(interp.StackTop)
	// iter0 runs the inner loop, three iterations of 10 ticks: a class
	// that tracks it saves 20.
	iter0 := func(outer *analysis.LoopMeta, beforeExit, afterExit probeScript) probeScript {
		s := probeScript{{kind: 'e', lm: outer, v: sp}, {kind: 't', v: 2},
			{kind: 'e', lm: inner, v: sp}, {kind: 't', v: 10},
			{kind: 'i', lm: inner, v: sp}, {kind: 't', v: 10},
			{kind: 'i', lm: inner, v: sp}, {kind: 't', v: 10}}
		s = append(s, beforeExit...)
		s = append(s, probeEv{kind: 'x', lm: inner})
		s = append(s, afterExit...)
		return append(s, probeEv{kind: 't', v: 5}, probeEv{kind: 'f'}, probeEv{kind: 'i', lm: outer, v: sp})
	}
	tail := func(outer *analysis.LoopMeta) probeScript {
		return probeScript{{kind: 't', v: 4}, {kind: 'i', lm: outer, v: sp}, {kind: 't', v: 1}, {kind: 'x', lm: outer}}
	}
	var s probeScript
	// tie-after (loop 0): the load of A reads iteration 0 from iteration 2.
	s = append(s, iter0(info.Loops[0], nil, probeScript{{kind: 's', v: heap + 1}})...)
	s = append(s, probeEv{kind: 't', v: 3}, probeEv{kind: 'i', lm: info.Loops[0], v: sp},
		probeEv{kind: 't', v: 1}, probeEv{kind: 'l', v: heap + 1})
	s = append(s, tail(info.Loops[0])...)
	// tie-before (loop 4): the same, with the store ahead of the exit.
	s = append(s, iter0(info.Loops[4], probeScript{{kind: 's', v: heap + 2}}, nil)...)
	s = append(s, probeEv{kind: 't', v: 3}, probeEv{kind: 'i', lm: info.Loops[4], v: sp},
		probeEv{kind: 't', v: 1}, probeEv{kind: 'l', v: heap + 2})
	s = append(s, tail(info.Loops[4])...)
	// later-iteration (loop 5): iteration 1 stores late, iteration 2
	// reads early.
	s = append(s, iter0(info.Loops[5], nil, nil)...)
	s = append(s, probeEv{kind: 't', v: 30}, probeEv{kind: 's', v: heap + 3}, probeEv{kind: 't', v: 3},
		probeEv{kind: 'i', lm: info.Loops[5], v: sp}, probeEv{kind: 't', v: 1}, probeEv{kind: 'l', v: heap + 3})
	s = append(s, tail(info.Loops[5])...)

	untracked := Config{Model: HELIX, Reduc: 1, Dep: 1, Fn: 0}
	tracked := Config{Model: HELIX, Reduc: 1, Dep: 1, Fn: 3}
	amortized := tracked
	amortized.AmortizeHelixDelta = true
	cfgs := []Config{untracked, tracked, amortized, {Model: PDOALL, Fn: 3}}
	tee := checkScript(t, info, cfgs, s, false)

	// The per-event engines agree with the tee; pin the deltas they agree
	// on. Adjusted offsets: tie-after 32−20 vs 32, tie-before 32 in
	// both, later-iteration 30 in both; every load sits 1 tick into its
	// iteration, so the slope is the offset minus 1 (halved under
	// amortization for the loads two iterations on).
	want := map[Config][3]int64{
		untracked: {31, 31, 29},
		tracked:   {11, 31, 29},
		amortized: {5, 15, 29},
	}
	for _, e := range tee.engines {
		w, ok := want[e.cfg]
		if !ok {
			continue
		}
		for i, lm := range []*analysis.LoopMeta{info.Loops[0], info.Loops[4], info.Loops[5]} {
			if got := e.statOf(lm).LastDelta; got != w[i] {
				t.Errorf("%s: loop %d delta %d, want %d", e.cfg, lm.Seq, got, w[i])
			}
		}
		// The journal empties with the live list: one savings change
		// per outer instance, never kept past it.
		wantMax := 0
		if e.cfg.Fn == 3 {
			wantMax = 1
		}
		if len(e.journal) != 0 || e.journalMax != wantMax {
			t.Errorf("%s: journal holds %d steps after the run (longest %d), want 0 (longest %d)",
				e.cfg, len(e.journal), e.journalMax, wantMax)
		}
	}
}

// TestSharedProbeDifferentialProperty feeds randomized streams straight
// into the tee with seven configurations in at least three classes and
// compares every report with per-event map-tracker engines. Some streams
// outgrow a chunk, so memory spans also split at capacity flushes.
func TestSharedProbeDifferentialProperty(t *testing.T) {
	for trial := 0; trial < 24; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5eed + int64(trial)))
			info := probeInfo()
			n := 400 + rng.Intn(2000)
			if trial%4 == 0 {
				n = 3 * chunkRecs
			}
			checkScript(t, info, probeConfigs(), randomProbeScript(rng, info, n), true)
		})
	}
}
