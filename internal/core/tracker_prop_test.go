package core

// Tracker-level differential harness: randomized (depth, region, addr, op)
// streams replayed through the shadow tracker and the legacy map oracle
// side-by-side, comparing every load answer and every batched memRun
// candidate list against naiveRun on the oracle. Unlike the full-suite oracles (which only exercise addresses real
// benchmarks produce), the stream generator deliberately lands on the
// boundaries — region cap edges, growShadowTab doubling and clamp points,
// the overflow-map fallback, stack-filter limits, and generation churn.
// The same driver backs FuzzTrackerDifferential.

import (
	"fmt"
	"math/rand"
	"testing"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// diffGlobalWords sizes the test module's global segment: an odd,
// non-power-of-two regLow cap (GlobalBase+100 = 116) so geometric table
// growth from minShadowTab=64 must clamp (64 → 128 → 116).
const diffGlobalWords = 100

// diffGlobalEnd is the resulting regLow flat cap.
const diffGlobalEnd = int64(interp.GlobalBase + diffGlobalWords)

// trackerDiffInfo builds the module the differential trackers run against.
func trackerDiffInfo() *analysis.ModuleInfo {
	m := ir.NewModule("tracker-diff")
	m.Globals = append(m.Globals, &ir.Global{Nm: "g", Size: diffGlobalWords, Elem: ir.Int})
	return &analysis.ModuleInfo{Mod: m}
}

// diffHeapCap / diffStackCap are the shrunken flat-table caps the
// differential driver installs on its shadow tracker. The production caps
// put the flat/overflow boundary megabytes in (heapFlatCap = 1<<24 words),
// so landing streams on it would allocate hundred-MB tables per trial; the
// boundary LOGIC is cap-relative, so a small cap exercises the identical
// paths — growth clamped at the cap, the last flat cell, the first
// overflow cell — at unit-test cost. The map oracle has no caps at all,
// which is exactly why the differential stays valid under the override.
const (
	diffHeapCap  = int64(1) << 12
	diffStackCap = int64(1) << 10
)

// diffAddr maps two selector bytes to an address, biased so every region
// boundary the shadow tracker special-cases is reachable: flat-table
// interiors, the minShadowTab doubling edge, region cap edges (flat vs
// overflow), the gaps between segments, negative wild pointers, and both
// ends of the stack window.
func diffAddr(sel, lo byte) int64 {
	const stackBase = int64(interp.StackTop) - interp.DefaultStackWords
	o := int64(lo)
	switch sel % 12 {
	case 0:
		return o - 8 // negative and tiny low addresses
	case 1:
		return diffGlobalEnd - 1 - o%4 // regLow clamp edge (last flat cells)
	case 2:
		return diffGlobalEnd + o // just past the regLow cap: overflow
	case 3:
		return int64(interp.HeapBase) - 1 - o // gap below heap: overflow
	case 4:
		return int64(interp.HeapBase) + o // first heap table
	case 5:
		return int64(interp.HeapBase) + minShadowTab - 1 + o%3 // doubling edge
	case 6:
		return int64(interp.HeapBase) + o*257 // growth ladder crossing the cap
	case 7:
		return int64(interp.HeapBase) + diffHeapCap - 1 - o%2 // inside the flat cap
	case 8:
		return int64(interp.HeapBase) + diffHeapCap + o // heap overflow
	case 9:
		return int64(interp.StackTop) - 1 - o // stack top (idx 0..)
	case 10:
		// Straddles the stack flat/overflow boundary: o < 128 lands just
		// past the cap (overflow), o >= 128 in the last flat cells.
		return int64(interp.StackTop) - diffStackCap - 128 + o
	default:
		return stackBase - 1 - o // below the stack: huge heap offset, overflow
	}
}

// runTrackerDiff decodes ops as a scripted stream of tracker operations
// (4 bytes each: op, depth/span selector, address family, offset) and
// replays it through a shadow tracker and the map oracle in lockstep,
// failing on the first divergence. Both store the shared probe's stamps,
// so the batched spans run the probe's memRun against naiveRun. Op
// streams of any content are safe; invalid prefixes simply decode to
// no-ops.
func runTrackerDiff(tb testing.TB, ops []byte) {
	tb.Helper()
	info := trackerDiffInfo()
	sh := newShadowTracker[stamp](info)
	sh.caps[regHeap] = diffHeapCap
	sh.caps[regStack] = diffStackCap
	mp := &mapTracker[stamp]{}
	const maxDepth = 4
	var shCands, mpCands []probeCand
	active := 0
	for i, step := 0, 0; i+3 < len(ops); i, step = i+4, step+1 {
		op, sel, fam, off := ops[i], ops[i+1], ops[i+2], ops[i+3]
		switch op % 8 {
		case 0: // enter the next nesting level
			if active < maxDepth {
				sh.enter(active)
				mp.enter(active)
				active++
			}
		case 1: // leave the deepest level
			if active > 0 {
				active--
			}
		case 2, 3: // store at a random live depth
			if active == 0 {
				continue
			}
			d := int(sel) % active
			addr := diffAddr(fam, off)
			r, idx := region(addr)
			rec := stamp{iter: int64(sel % 7), ser: int64(off), kw: int64(fam), k0: int64(op)}
			sh.storeAt(d, r, idx, addr, rec)
			mp.storeAt(d, r, idx, addr, rec)
		case 4, 5: // load and compare
			if active == 0 {
				continue
			}
			d := int(sel) % active
			addr := diffAddr(fam, off)
			r, idx := region(addr)
			sr, sok := sh.loadAt(d, r, idx, addr)
			mr, mok := mp.loadAt(d, r, idx, addr)
			if sok != mok || sr != mr {
				tb.Fatalf("step %d: loadAt(depth %d, addr %#x) diverged: shadow (%+v, %v) vs map (%+v, %v)",
					step, d, addr, sr, sok, mr, mok)
			}
		default: // batched memRun span
			if active == 0 {
				continue
			}
			d := int(sel) % active
			// The span contents derive from the op bytes via a local PRNG,
			// so the fuzzer steers them deterministically.
			rng := rand.New(rand.NewSource(int64(sel)<<16 | int64(fam)<<8 | int64(off)))
			n := 1 + int(fam)%16
			evs := make([]memEv, 0, n)
			tick := int64(0)
			for j := 0; j < n; j++ {
				addr := diffAddr(byte(rng.Intn(256)), byte(rng.Intn(256)))
				r, idx := region(addr)
				evs = append(evs, memEv{idx: idx, addr: addr, tick: tick,
					kind: uint8(rng.Intn(2)), reg: int8(r)})
				tick += int64(rng.Intn(5))
			}
			base := stamp{iter: int64(off % 9), ser: int64(sel), kw: int64(step), k0: int64(fam)}
			var spLimit int64
			if off%2 == 0 {
				// Exercise the cactus-stack filter boundary: addresses in
				// [spLimit, StackTop) are tracked, below it skipped.
				spLimit = int64(interp.StackTop) - 1 - int64(fam)
			}
			// Two of three spans run through the shared span summary
			// (exercising the skip and store-only fast paths), one without
			// — the oracle ignores the summary either way, so a divergence
			// convicts the summary logic specifically.
			var sum *spanSum
			if off%3 != 0 {
				s := summarizeSpan(evs)
				sum = &s
			}
			shCands, _ = memRun(sh, d, evs, base, spLimit, sum, shCands[:0])
			mpCands = naiveRun(mp, d, evs, base, spLimit, mpCands[:0])
			if len(shCands) != len(mpCands) {
				tb.Fatalf("step %d: memRun(depth %d, %d evs) candidate count diverged: shadow %d vs map %d",
					step, d, len(evs), len(shCands), len(mpCands))
			}
			for h := range shCands {
				if shCands[h] != mpCands[h] {
					tb.Fatalf("step %d: memRun candidate %d diverged: shadow %+v vs map %+v",
						step, h, shCands[h], mpCands[h])
				}
			}
		}
	}
}

// TestTrackerDifferentialProperty replays randomized operation streams
// through both trackers — the unit-level counterpart of the full-suite
// differential oracles, reaching boundary addresses real benchmarks never
// produce.
func TestTrackerDifferentialProperty(t *testing.T) {
	for trial := 0; trial < 32; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x10ad + int64(trial)))
			ops := make([]byte, 4*(200+rng.Intn(400)))
			rng.Read(ops)
			runTrackerDiff(t, ops)
		})
	}
}

// TestGrowShadowTabClamp pins growShadowTab's edges: geometric doubling
// from the minimum table, the exact doubling trigger (n <= idx), and the
// clamp at a non-power-of-two region cap.
func TestGrowShadowTabClamp(t *testing.T) {
	cases := []struct{ n, idx, cap64, want int64 }{
		{0, 0, 1 << 20, minShadowTab},                  // first touch: minimum table
		{0, 63, 1 << 20, 64},                           // last index of the minimum table
		{0, 64, 1 << 20, 128},                          // one past: doubles once
		{64, 64, 1 << 20, 128},                         // doubling triggers at n == idx
		{64, 255, 1 << 20, 256},                        // two doublings
		{128, 100, 1 << 20, 128},                       // already covered: unchanged
		{0, 100, diffGlobalEnd, 116},                   // doubling overshoots odd cap: clamp
		{64, 115, diffGlobalEnd, 116},                  // last legal index under the cap
		{0, 5, 10, 10},                                 // cap below the minimum table size
		{0, heapFlatCap - 1, heapFlatCap, heapFlatCap}, // top of the heap table
	}
	for _, c := range cases {
		got := growShadowTab(c.n, c.idx, c.cap64)
		if got != c.want {
			t.Errorf("growShadowTab(%d, %d, %d) = %d, want %d", c.n, c.idx, c.cap64, got, c.want)
		}
		// The contract callers rely on: for idx < cap the grown table
		// covers idx without exceeding the cap.
		if got <= c.idx || got > c.cap64 {
			t.Errorf("growShadowTab(%d, %d, %d) = %d violates idx < n <= cap", c.n, c.idx, c.cap64, got)
		}
	}
}

// TestShadowOverflowPruneBounded pins the overflow-map prune on generation
// bump: 10k enter cycles, each storing fresh wild addresses, must not
// accumulate stale records. Before the prune, every cycle's overflow
// entries outlived their instance forever; now a bump clears any map past
// overflowPruneLimit, so retention is bounded by limit + one cycle's
// writes regardless of churn.
func TestShadowOverflowPruneBounded(t *testing.T) {
	sh := newShadowTracker[writeRec](trackerDiffInfo())
	const cycles, perCycle = 10000, 8
	for c := 0; c < cycles; c++ {
		sh.enter(0)
		// Fresh overflow addresses every cycle: beyond the heap flat cap.
		base := int64(interp.HeapBase) + heapFlatCap + int64(c*perCycle)
		for j := int64(0); j < perCycle; j++ {
			addr := base + j
			r, idx := region(addr)
			sh.storeAt(0, r, idx, addr, writeRec{iter: int64(c), off: j})
			// The live instance still sees its own overflow writes.
			if rec, ok := sh.loadAt(0, r, idx, addr); !ok || rec.iter != int64(c) {
				t.Fatalf("cycle %d: own overflow write invisible (ok=%v rec=%+v)", c, ok, rec)
			}
		}
	}
	if n := len(sh.levels[0].over); n > overflowPruneLimit+perCycle {
		t.Fatalf("overflow map retains %d records after %d enter cycles, want <= %d: stale entries accumulate across generations",
			n, cycles, overflowPruneLimit+perCycle)
	}
}

// TestMemRunSummaryContract: for spans engineered onto each fast path —
// pure stores, disjoint pure loads, disjoint mixed, overlapping, and
// self-conflicting — memRun with the span's summary must return the
// exact candidate list memRun without a summary returns, on identical
// state.
func TestMemRunSummaryContract(t *testing.T) {
	info := trackerDiffInfo()
	heap := int64(interp.HeapBase)
	spans := map[string][]memEv{
		"pure-store": {
			mkEv(heap+10, memStore, 0), mkEv(heap+11, memStore, 1),
		},
		"disjoint-loads": {
			mkEv(heap+500, memLoad, 0), mkEv(heap+501, memLoad, 1),
		},
		"disjoint-mixed": {
			mkEv(heap+600, memStore, 0), mkEv(heap+900, memLoad, 1),
		},
		"overlapping-loads": {
			mkEv(heap+10, memLoad, 0), mkEv(heap+11, memLoad, 1),
		},
		"self-conflict": {
			mkEv(heap+700, memStore, 0), mkEv(heap+700, memLoad, 1),
		},
	}
	for name, evs := range spans {
		runFor := func(sum *spanSum) []probeCand {
			sh := newShadowTracker[stamp](info)
			sh.enter(0)
			// Pre-span state: writes at heap+10..heap+19 from iteration 0.
			for j := int64(0); j < 10; j++ {
				r, idx := region(heap + 10 + j)
				sh.storeAt(0, r, idx, heap+10+j, stamp{iter: 0, ser: j})
			}
			cands, _ := memRun(sh, 0, evs, stamp{iter: 2, ser: 100}, 0, sum, nil)
			return cands
		}
		sum := summarizeSpan(evs)
		want, got := runFor(nil), runFor(&sum)
		if len(want) != len(got) {
			t.Errorf("%s: %d candidates with summary, %d without", name, len(got), len(want))
			continue
		}
		for h := range want {
			if want[h] != got[h] {
				t.Errorf("%s: candidate %d diverged under summary: %+v vs %+v", name, h, got[h], want[h])
			}
		}
	}
}

// mkEv builds one memory record with its region classification.
func mkEv(addr int64, kind uint8, tick int64) memEv {
	r, idx := region(addr)
	return memEv{idx: idx, addr: addr, tick: tick, kind: kind, reg: int8(r)}
}
