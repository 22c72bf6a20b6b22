package core

import (
	"math"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
)

// trackerKind selects the dependence-tracking data structure behind the
// engine. The two trackers are semantically identical — the legacy map
// tracker is kept as a differential oracle for the shadow memory,
// reachable only from tests — so the choice only affects performance.
type trackerKind int

const (
	// trackerShadow is the production tracker: a flat, generation-stamped
	// shadow memory. Load/Store cost one array index plus a generation
	// compare per active loop level, and clearing an instance is a
	// generation bump instead of a map drop.
	trackerShadow trackerKind = iota
	// trackerLegacyMap is the original map write set, one per nesting
	// level, retained as the correctness oracle.
	trackerLegacyMap
)

// depTracker stores, per active loop nesting level, the last write to each
// address, as a record of type R: the engine's writeRec on the per-event
// path, the shared probe's wider stamp on the chunk tee. The engine owns
// all policy (cactus-stack exemption, same-iteration and committed-phase
// filtering, conflict handling); the tracker is pure storage. A level's
// writes outlive its instance until the next instance there enters:
// nothing probes a level whose instance exited or serialized.
//
// All access methods take the address's region classification (r, idx)
// alongside the raw address: callers classify with region() ONCE per event
// (or once per address run, on the batched paths) and the tracker never
// re-derives it — the region branch is hoisted out of the per-event call.
type depTracker[R any] interface {
	// enter prepares (or resets) the storage of nesting level d for an
	// instance that begins tracking there. Exactly one active instance
	// occupies a level.
	enter(d int)
	// loadAt returns the recorded write covering addr at level d, if any.
	// (r, idx) must be region(addr).
	loadAt(d int, r int, idx int64, addr int64) (R, bool)
	// storeAt records a write at addr at level d. (r, idx) must be
	// region(addr).
	storeAt(d int, r int, idx int64, addr int64, rec R)
}

// Memory record kinds.
const (
	memLoad  uint8 = 0
	memStore uint8 = 1
)

// spanSum flag bits.
const (
	// sumHasLoad / sumHasStore are the homogeneous-kind markers: a span
	// without loads never probes, a span without stores never records.
	sumHasLoad uint8 = 1 << iota
	sumHasStore
	// sumSelfConflict is set when some load's dense index falls inside
	// the index interval of the stores PRECEDING it in the same span —
	// i.e. the span may read an address it wrote itself. Clear means no
	// in-span store can satisfy any in-span load, which is what lets the
	// tracker answer loads from pre-span state alone.
	sumSelfConflict
)

// spanSum is the producer-computed conflict summary of one memory span:
// per-region min/max dense load indices, homogeneous-kind flags, and the
// self-conflict marker. It is computed ONCE per span, as the span closes
// on the producing goroutine (sharedProbe.span), and consulted read-only
// at every watched nesting level, so the probe skips address runs that
// provably cannot hit. The interval compare against a level's store
// bounds is three branch-free min/max pairs.
//
// The summary is conservative by construction: it is computed without
// knowledge of any instance's stack-filter bound (spLimit), so the load
// intervals cover loads the filter would skip, and skipping is only ever
// based on provable disjointness. Passing a nil or zero summary degrades
// to the exact unsummarized behavior.
type spanSum struct {
	loadMin [3]int64 // per-region min dense load index (MaxInt64 = none)
	loadMax [3]int64 // per-region max dense load index (MinInt64 = none)
	flags   uint8
}

// noIdxMin / noIdxMax are the empty-interval sentinels for index-bound
// tracking: min starts above every index, max below, so an empty interval
// can never satisfy min <= idx <= max.
const (
	noIdxMin = int64(math.MaxInt64)
	noIdxMax = int64(math.MinInt64)
)

// summarizeSpan computes the conflict summary of one memory span. The
// dense index is a bijection of the address within its region (region()),
// so interval disjointness over (reg, idx) proves address disjointness —
// including addresses that land in the overflow maps.
func summarizeSpan(evs []memEv) spanSum {
	s := spanSum{
		loadMin: [3]int64{noIdxMin, noIdxMin, noIdxMin},
		loadMax: [3]int64{noIdxMax, noIdxMax, noIdxMax},
	}
	stMin := [3]int64{noIdxMin, noIdxMin, noIdxMin}
	stMax := [3]int64{noIdxMax, noIdxMax, noIdxMax}
	for i := range evs {
		ev := &evs[i]
		r, idx := int(ev.reg), ev.idx
		if ev.kind == memStore {
			s.flags |= sumHasStore
			if idx < stMin[r] {
				stMin[r] = idx
			}
			if idx > stMax[r] {
				stMax[r] = idx
			}
			continue
		}
		s.flags |= sumHasLoad
		if idx < s.loadMin[r] {
			s.loadMin[r] = idx
		}
		if idx > s.loadMax[r] {
			s.loadMax[r] = idx
		}
		if idx >= stMin[r] && idx <= stMax[r] {
			s.flags |= sumSelfConflict
		}
	}
	return s
}

// memEv is one memory record of a chunk's memory span: the address
// with its region classification precomputed (reg, idx), the record kind,
// and the clock advance accumulated inside the span before this record.
// One 32-byte record per event keeps the batched tracker loop on a single
// sequential stream.
type memEv struct {
	idx  int64 // dense region offset: region(addr)
	addr int64
	tick int64 // Σ tick payloads inside the span before this record
	kind uint8 // memLoad or memStore
	reg  int8  // region: regLow, regHeap, regStack
}

// mapTracker is the legacy write-set representation: one map per nesting
// level, rebuilt on every enter. It has no batched path — the shared
// probe drives it one record at a time (naiveRun) — so the oracle stays
// obviously correct while the shadow tracker specializes.
type mapTracker[R any] struct {
	sets []map[int64]R
}

func (t *mapTracker[R]) enter(d int) {
	for d >= len(t.sets) {
		t.sets = append(t.sets, nil)
	}
	t.sets[d] = map[int64]R{}
}

func (t *mapTracker[R]) loadAt(d int, _ int, _ int64, addr int64) (R, bool) {
	rec, ok := t.sets[d][addr]
	return rec, ok
}

func (t *mapTracker[R]) storeAt(d int, _ int, _ int64, addr int64, rec R) {
	t.sets[d][addr] = rec
}

// Shadow-memory geometry. Guest addresses split into three dense regions
// (low/global, heap, stack); each region of each nesting level is a flat
// table indexed by the region offset, grown geometrically as addresses are
// touched. Addresses outside a region's flat cap (wild pointers, or heaps
// larger than the flat budget) fall back to a per-level overflow map, so a
// given address is *always* flat or *always* overflow for the whole run.
const (
	// regLow covers [0, HeapBase): null, globals, and any stray low
	// address. Its flat cap is the exact end of the global segment.
	regLow = 0
	// regHeap covers [HeapBase, StackTop-DefaultStackWords).
	regHeap = 1
	// regStack covers the stack segment (IsStackAddr).
	regStack = 2

	// heapFlatCap bounds the flat heap table per level; heap offsets at
	// or above it use the overflow map. 1<<24 entries * 24 B = 384 MiB
	// worst case per fully-touched level, reached only geometrically.
	heapFlatCap = int64(1) << 24

	// minShadowTab is the initial flat-table size on first touch.
	minShadowTab = 64

	// overflowPruneLimit bounds how many stale overflow records a level
	// may retain across generations. A generation bump invalidates every
	// overflow entry at once, so a map that grew past this limit is
	// cleared wholesale on the next bump instead of haunting deep-nesting
	// runs forever (small maps are cheaper to keep than to rebuild).
	overflowPruneLimit = 64
)

// shadowRec is one overflow-map entry: a generation stamp plus the write
// record. Entries whose gen differs from the level's current generation
// are stale leftovers of earlier instances and read as absent.
type shadowRec[R any] struct {
	gen uint64
	rec R
}

// shadowLevel is the shadow memory of one loop-nesting level. Exactly one
// active instance occupies a level at a time (levels are stack depths), so
// a single generation counter distinguishes the current instance's writes
// from stale ones.
//
// The flat tables use a structure-of-arrays layout: generation stamps live
// in their own densely-packed uint64 arrays (gens), the write records in
// parallel arrays (recs). The common miss — a stale generation — touches
// only the 8-byte stamp, so one cache line answers eight addresses instead
// of the two it covered when stamp and record were interleaved.
type shadowLevel[R any] struct {
	gen  uint64
	gens [3][]uint64 // generation stamps, indexed by region offset
	recs [3][]R      // write records, parallel to gens
	over map[int64]shadowRec[R]

	// stMin/stMax bound the dense indices of every write recorded in the
	// CURRENT generation, per region (flat and overflow alike — the dense
	// index is a bijection of the address, so the interval is meaningful
	// for both). A memory span whose load-index intervals are disjoint
	// from these bounds provably cannot hit, which is what the spanSum
	// fast path of memRun tests. The bounds only ever widen within a
	// generation; bump resets them to the empty interval.
	stMin, stMax [3]int64
}

// bump starts a new generation, invalidating every record the previous
// occupant of this level left behind, and prunes an oversized overflow
// map (whose entries are now all stale) so dead records do not accumulate
// across instances.
func (lvl *shadowLevel[R]) bump() {
	lvl.gen++
	if len(lvl.over) > overflowPruneLimit {
		clear(lvl.over)
	}
	lvl.stMin = [3]int64{noIdxMin, noIdxMin, noIdxMin}
	lvl.stMax = [3]int64{noIdxMax, noIdxMax, noIdxMax}
}

// note records a write at (r, idx) in the level's store bounds.
func (lvl *shadowLevel[R]) note(r int, idx int64) {
	if idx < lvl.stMin[r] {
		lvl.stMin[r] = idx
	}
	if idx > lvl.stMax[r] {
		lvl.stMax[r] = idx
	}
}

// disjoint reports whether the span's per-region load intervals are
// provably disjoint from every write recorded this generation.
func (lvl *shadowLevel[R]) disjoint(sum *spanSum) bool {
	for r := 0; r < 3; r++ {
		if sum.loadMax[r] >= lvl.stMin[r] && sum.loadMin[r] <= lvl.stMax[r] {
			return false
		}
	}
	return true
}

// shadowTracker implements depTracker with generation-stamped flat tables.
type shadowTracker[R any] struct {
	levels []*shadowLevel[R]
	caps   [3]int64 // flat-table cap per region
}

func newShadowTracker[R any](info *analysis.ModuleInfo) *shadowTracker[R] {
	t := &shadowTracker[R]{}
	globalEnd := int64(interp.GlobalBase)
	if info != nil && info.Mod != nil {
		for _, g := range info.Mod.Globals {
			globalEnd += g.Size
		}
	}
	t.caps[regLow] = globalEnd
	t.caps[regHeap] = heapFlatCap
	t.caps[regStack] = interp.DefaultStackWords
	return t
}

// region maps an address to its region and dense offset. Offsets outside
// [0, caps[r]) are stored in the level's overflow map.
func region(addr int64) (r int, idx int64) {
	if interp.IsStackAddr(addr) {
		return regStack, interp.StackTop - 1 - addr
	}
	if addr >= interp.HeapBase {
		return regHeap, addr - interp.HeapBase
	}
	return regLow, addr
}

func (t *shadowTracker[R]) enter(d int) {
	for d >= len(t.levels) {
		t.levels = append(t.levels, &shadowLevel[R]{})
	}
	t.levels[d].bump()
}

func (t *shadowTracker[R]) loadAt(d int, r int, idx int64, addr int64) (rec R, ok bool) {
	lvl := t.levels[d]
	if idx < 0 || idx >= t.caps[r] {
		if o, hit := lvl.over[addr]; hit && o.gen == lvl.gen {
			return o.rec, true
		}
		return rec, false
	}
	gens := lvl.gens[r]
	if idx >= int64(len(gens)) || gens[idx] != lvl.gen {
		return rec, false
	}
	return lvl.recs[r][idx], true
}

func (t *shadowTracker[R]) storeAt(d int, r int, idx int64, addr int64, rec R) {
	lvl := t.levels[d]
	if uint64(idx) < uint64(len(lvl.gens[r])) {
		lvl.note(r, idx)
		lvl.gens[r][idx] = lvl.gen
		lvl.recs[r][idx] = rec
		return
	}
	lvl.put(r, idx, addr, rec, t.caps[r])
}

// put records rec at (r, idx) in the current generation, growing the flat
// table or falling back to the overflow map as the address demands: the
// slow path of every store.
func (lvl *shadowLevel[R]) put(r int, idx int64, addr int64, rec R, cap64 int64) {
	lvl.note(r, idx)
	if idx < 0 || idx >= cap64 {
		if lvl.over == nil {
			lvl.over = map[int64]shadowRec[R]{}
		}
		lvl.over[addr] = shadowRec[R]{gen: lvl.gen, rec: rec}
		return
	}
	if idx >= int64(len(lvl.gens[r])) {
		lvl.grow(r, idx, cap64)
	}
	lvl.gens[r][idx] = lvl.gen
	lvl.recs[r][idx] = rec
}

// memRun resolves one memory span at nesting level d in ONE pass: the
// shared probe's hot path (sharedProbe.span, its one caller, once per
// span and watched level on behalf of every engine class). The level and
// its generation are hoisted out of the per-record loop, so the common
// case — a dense store, or a dense load missing on a stale generation —
// costs one region-array index plus one stamp compare; thanks to the SoA
// layout, a miss touches only the 8-byte stamp.
//
// A store records base with the record's clock advance inside the span
// added to its serial offset; every other stamp field is a span constant,
// since loop events end a span. A load that finds a write of an EARLIER
// iteration (rec.iter < base.iter) appends a candidate for level d, with
// its advance, to cands. Records with reg == regStack and addr < spLimit
// are skipped: the cactus-stack exemption (frames pushed after the
// current iteration began are iteration-private) in one bound.
//
// sum, when non-nil, is the span's conflict summary (summarizeSpan of
// evs). When it proves the span's loads cannot hit — the span has none,
// or is self-conflict-free with load-index intervals disjoint from every
// write this generation recorded — memRun records the stores only and
// reports the skip. The candidates and recorded state are naiveRun's
// either way; the differential harness pins that.
func memRun(t *shadowTracker[stamp], d int, evs []memEv, base stamp, spLimit int64,
	sum *spanSum, cands []probeCand) ([]probeCand, bool) {
	lvl := t.levels[d]
	skip := sum != nil && (sum.flags&sumHasLoad == 0 ||
		sum.flags&sumSelfConflict == 0 && lvl.disjoint(sum))
	if skip && sum.flags&sumHasStore == 0 {
		return cands, true
	}
	gen := lvl.gen
	for i := range evs {
		ev := &evs[i]
		r := int(ev.reg)
		idx := ev.idx
		if r == regStack && ev.addr < spLimit {
			continue
		}
		gens := lvl.gens[r]
		if ev.kind == memStore {
			rec := base
			rec.ser += ev.tick
			if uint64(idx) < uint64(len(gens)) {
				lvl.note(r, idx)
				gens[idx] = gen
				lvl.recs[r][idx] = rec
				continue
			}
			lvl.put(r, idx, ev.addr, rec, t.caps[r])
			continue
		}
		if skip {
			continue
		}
		var w stamp
		switch {
		case uint64(idx) < uint64(len(gens)):
			if gens[idx] != gen {
				continue
			}
			w = lvl.recs[r][idx]
		case idx >= 0 && idx < t.caps[r]: // dense but not yet grown
			continue
		default:
			o, ok := lvl.over[ev.addr]
			if !ok || o.gen != gen {
				continue
			}
			w = o.rec
		}
		if w.iter < base.iter {
			cands = append(cands, probeCand{level: int32(d), tick: ev.tick, w: w})
		}
	}
	return cands, skip
}

// naiveRun is memRun the plain way, one tracker call per record and no
// summary, on any tracker: the shared probe's path under the legacy-map
// oracle, and the reference the differential harness holds memRun to.
func naiveRun(tr depTracker[stamp], d int, evs []memEv, base stamp, spLimit int64, cands []probeCand) []probeCand {
	for i := range evs {
		ev := &evs[i]
		r := int(ev.reg)
		if r == regStack && ev.addr < spLimit {
			continue
		}
		if ev.kind == memStore {
			rec := base
			rec.ser += ev.tick
			tr.storeAt(d, r, ev.idx, ev.addr, rec)
			continue
		}
		if w, ok := tr.loadAt(d, r, ev.idx, ev.addr); ok && w.iter < base.iter {
			cands = append(cands, probeCand{level: int32(d), tick: ev.tick, w: w})
		}
	}
	return cands
}

// grow extends a region's flat tables to cover idx: geometric doubling
// from minShadowTab, clamped to the region cap. Stale prefixes keep their
// old generation stamps, so no clearing is needed. The gens and recs
// arrays grow in lockstep to stay parallel.
func (lvl *shadowLevel[R]) grow(r int, idx, cap64 int64) {
	n := growShadowTab(int64(len(lvl.gens[r])), idx, cap64)
	gens := make([]uint64, n)
	copy(gens, lvl.gens[r])
	lvl.gens[r] = gens
	recs := make([]R, n)
	copy(recs, lvl.recs[r])
	lvl.recs[r] = recs
}

// growShadowTab computes the grown table size covering idx: geometric
// doubling from minShadowTab, clamped to the region cap.
func growShadowTab(n, idx, cap64 int64) int64 {
	if n < minShadowTab {
		n = minShadowTab
	}
	for n <= idx {
		n *= 2
	}
	if n > cap64 {
		n = cap64
	}
	return n
}

// newTracker builds the tracker for a kind.
func newTracker[R any](kind trackerKind, info *analysis.ModuleInfo) depTracker[R] {
	if kind == trackerLegacyMap {
		return &mapTracker[R]{}
	}
	return newShadowTracker[R](info)
}
