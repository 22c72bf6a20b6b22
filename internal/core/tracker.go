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
	// trackerLegacyMap is the original per-instance map[int64]writeRec
	// write set, retained as the correctness oracle.
	trackerLegacyMap
)

// depTracker stores, per active loop instance, the last cross-iteration
// write to each address. The engine owns all policy (cactus-stack
// exemption, same-iteration and committed-phase filtering, conflict
// handling); the tracker is pure storage.
//
// All access methods take the address's region classification (r, idx)
// alongside the raw address: callers classify with region() ONCE per event
// (or once per address run, on the batched paths) and the tracker never
// re-derives it — the region branch is hoisted out of the per-event call.
type depTracker interface {
	// enter prepares (or resets) storage for an instance that begins
	// tracking. inst.depth is its nesting level, unique among active
	// instances.
	enter(inst *instance)
	// loadAt returns the recorded write covering addr for inst, if any.
	// (r, idx) must be region(addr).
	loadAt(inst *instance, r int, idx int64, addr int64) (writeRec, bool)
	// storeAt records a write at addr for inst. (r, idx) must be
	// region(addr).
	storeAt(inst *instance, r int, idx int64, addr int64, rec writeRec)
	// memRun resolves a whole run of mixed load/store records for inst in
	// ONE call — the batched chunk-replay hot path. It has two callers on
	// the chunk tee: the shared probe (sharedProbe.span), once per memory
	// span and watched nesting level on behalf of every DOALL and PDOALL
	// class, which then only judge the cross-iteration hits; and each
	// HELIX class (Engine.memSpan), once per span and live instance on its
	// own timed tracker, since HELIX reads the writes' adjusted offsets.
	// Each memEv carries its kind, region classification, and the clock
	// advance accumulated inside the run before it (the engine applies the
	// run's total to its clock afterwards; no other event can occur inside
	// a run).
	//
	// Stores record writeRec{iter: iter, off: offBase + ev.tick} — iter
	// and offBase are run constants because iteration boundaries end a
	// run. (The shared probe passes offBase 0: nothing it serves reads
	// off.) Loads that find a record append (record index, record) to
	// hitIdx/hitRecs; memRun returns the hit count and the engine applies
	// the RAW policy afterwards, in record order (loads are pure, and
	// hits are rare, so deferring policy keeps this loop branch-light).
	//
	// Records with reg == regStack and addr < spLimit are skipped
	// wholesale: the engine pre-resolves its cactus-stack exemption
	// (frames pushed after the current iteration began, i.e. addresses
	// below the iteration-start SP, are iteration-private) into that one
	// bound so the filter costs a compare here instead of a callback.
	//
	// sum, when non-nil, is the span's shared conflict summary
	// (summarizeSpan of evs). It is purely an optimization hint: the hit
	// list and every state change MUST be identical to memRun with a nil
	// summary — implementations may use it only to skip work whose
	// absence of effect the summary proves.
	memRun(inst *instance, evs []memEv,
		iter, offBase, spLimit int64, hitIdx []int32, hitRecs []writeRec, sum *spanSum) int
	// drop discards inst's write set (the instance serialized or exited).
	drop(inst *instance)
}

// memRun record kinds.
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
// self-conflict marker. It is computed ONCE per chunk on the
// producing goroutine (chunkTee) and consulted read-only by every
// coalesced engine class before probing, so N classes stop re-probing
// address runs that provably cannot hit. Summaries live in a flat slice
// parallel to the chunk's span plan (evChunk.sums); the interval compare
// against a level's store bounds is three branch-free min/max pairs.
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

// mapTracker is the legacy write-set representation: one map per instance.
// Its batch methods are the naive loops — the oracle stays obviously
// correct while the shadow tracker specializes.
type mapTracker struct{}

func (mapTracker) enter(inst *instance) { inst.writes = map[int64]writeRec{} }
func (mapTracker) drop(inst *instance)  { inst.writes = nil }
func (mapTracker) loadAt(inst *instance, _ int, _ int64, addr int64) (writeRec, bool) {
	rec, ok := inst.writes[addr]
	return rec, ok
}
func (mapTracker) storeAt(inst *instance, _ int, _ int64, addr int64, rec writeRec) {
	inst.writes[addr] = rec
}
func (mapTracker) memRun(inst *instance, evs []memEv,
	iter, offBase, spLimit int64, hitIdx []int32, hitRecs []writeRec, _ *spanSum) int {
	nh := 0
	for i := range evs {
		ev := &evs[i]
		if ev.reg == regStack && ev.addr < spLimit {
			continue
		}
		if ev.kind == memStore {
			inst.writes[ev.addr] = writeRec{iter: iter, off: offBase + ev.tick}
			continue
		}
		if rec, ok := inst.writes[ev.addr]; ok {
			hitIdx[nh], hitRecs[nh] = int32(i), rec
			nh++
		}
	}
	return nh
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
type shadowRec struct {
	gen uint64
	writeRec
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
type shadowLevel struct {
	gen  uint64
	gens [3][]uint64   // generation stamps, indexed by region offset
	recs [3][]writeRec // write records, parallel to gens
	over map[int64]shadowRec

	// stMin/stMax bound the dense indices of every write recorded in the
	// CURRENT generation, per region (flat and overflow alike — the dense
	// index is a bijection of the address, so the interval is meaningful
	// for both). A memory span whose load-index intervals are disjoint
	// from these bounds provably cannot hit, which is what the spanSum
	// fast paths in memRun test. The bounds only ever widen within a
	// generation; bump resets them to the empty interval.
	stMin, stMax [3]int64
}

// bump starts a new generation, invalidating every record the previous
// occupant of this level left behind, and prunes an oversized overflow
// map (whose entries are now all stale) so dead records do not accumulate
// across enter/drop cycles.
func (lvl *shadowLevel) bump() {
	lvl.gen++
	if len(lvl.over) > overflowPruneLimit {
		clear(lvl.over)
	}
	lvl.stMin = [3]int64{noIdxMin, noIdxMin, noIdxMin}
	lvl.stMax = [3]int64{noIdxMax, noIdxMax, noIdxMax}
}

// note records a write at (r, idx) in the level's store bounds.
func (lvl *shadowLevel) note(r int, idx int64) {
	if idx < lvl.stMin[r] {
		lvl.stMin[r] = idx
	}
	if idx > lvl.stMax[r] {
		lvl.stMax[r] = idx
	}
}

// disjoint reports whether the span's per-region load intervals are
// provably disjoint from every write recorded this generation.
func (lvl *shadowLevel) disjoint(sum *spanSum) bool {
	for r := 0; r < 3; r++ {
		if sum.loadMax[r] >= lvl.stMin[r] && sum.loadMin[r] <= lvl.stMax[r] {
			return false
		}
	}
	return true
}

// shadowTracker implements depTracker with generation-stamped flat tables.
type shadowTracker struct {
	levels []*shadowLevel
	caps   [3]int64 // flat-table cap per region
	// skips counts memRun calls the span summary answered without
	// probing a load (the chunk tee's probe census).
	skips int64
}

func newShadowTracker(info *analysis.ModuleInfo) *shadowTracker {
	t := &shadowTracker{}
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

func (t *shadowTracker) enter(inst *instance) {
	for int(inst.depth) >= len(t.levels) {
		t.levels = append(t.levels, &shadowLevel{})
	}
	t.levels[inst.depth].bump()
}

func (t *shadowTracker) drop(inst *instance) {
	// Stale records are invalidated (and oversized overflow maps pruned)
	// by the next occupant's generation bump; nothing to clear now.
}

func (t *shadowTracker) loadAt(inst *instance, r int, idx int64, addr int64) (writeRec, bool) {
	lvl := t.levels[inst.depth]
	if idx < 0 || idx >= t.caps[r] {
		rec, ok := lvl.over[addr]
		if !ok || rec.gen != lvl.gen {
			return writeRec{}, false
		}
		return rec.writeRec, true
	}
	gens := lvl.gens[r]
	if idx >= int64(len(gens)) || gens[idx] != lvl.gen {
		return writeRec{}, false
	}
	return lvl.recs[r][idx], true
}

func (t *shadowTracker) storeAt(inst *instance, r int, idx int64, addr int64, rec writeRec) {
	lvl := t.levels[inst.depth]
	lvl.note(r, idx)
	if idx < 0 || idx >= t.caps[r] {
		if lvl.over == nil {
			lvl.over = map[int64]shadowRec{}
		}
		lvl.over[addr] = shadowRec{gen: lvl.gen, writeRec: rec}
		return
	}
	gens := lvl.gens[r]
	if idx >= int64(len(gens)) {
		lvl.grow(r, idx, t.caps[r])
		gens = lvl.gens[r]
	}
	gens[idx] = lvl.gen
	lvl.recs[r][idx] = rec
}

// memRun is the shadow fast path for a mixed load/store run: the level and
// its generation are hoisted out of the per-record loop, so the common
// case — a dense store, or a dense load missing on a stale generation —
// costs one region-array index plus one stamp compare. Thanks to the SoA
// layout, a miss touches only the 8-byte stamp.
//
// When the span's shared summary proves its loads cannot hit — the span is
// self-conflict-free and its load-index intervals are disjoint from every
// write this generation recorded — the whole probe side is skipped: a
// load-only span returns immediately, a mixed span falls to storeRun. The
// result (hit list, recorded state) is identical to the unsummarized walk;
// the differential property harness pins that equivalence.
func (t *shadowTracker) memRun(inst *instance, evs []memEv,
	iter, offBase, spLimit int64, hitIdx []int32, hitRecs []writeRec, sum *spanSum) int {
	lvl := t.levels[inst.depth]
	if sum != nil {
		if sum.flags&sumHasLoad == 0 {
			t.skips++
			return t.storeRun(lvl, evs, iter, offBase, spLimit)
		}
		if sum.flags&sumSelfConflict == 0 && lvl.disjoint(sum) {
			t.skips++
			if sum.flags&sumHasStore == 0 {
				return 0 // pure loads, provably no recorded write in range
			}
			return t.storeRun(lvl, evs, iter, offBase, spLimit)
		}
	}
	gen := lvl.gen
	nh := 0
	for i := range evs {
		ev := &evs[i]
		r := int(ev.reg)
		idx := ev.idx
		if r == regStack && ev.addr < spLimit {
			continue
		}
		gens := lvl.gens[r]
		if ev.kind == memStore {
			lvl.note(r, idx)
			rec := writeRec{iter: iter, off: offBase + ev.tick}
			if uint64(idx) < uint64(len(gens)) {
				gens[idx] = gen
				lvl.recs[r][idx] = rec
				continue
			}
			if idx >= 0 && idx < t.caps[r] { // dense but not yet grown
				lvl.grow(r, idx, t.caps[r])
				lvl.gens[r][idx] = gen
				lvl.recs[r][idx] = rec
				continue
			}
			if lvl.over == nil {
				lvl.over = map[int64]shadowRec{}
			}
			lvl.over[ev.addr] = shadowRec{gen: gen, writeRec: rec}
			continue
		}
		// Load.
		if uint64(idx) < uint64(len(gens)) {
			if gens[idx] != gen {
				continue
			}
			hitIdx[nh], hitRecs[nh] = int32(i), lvl.recs[r][idx]
			nh++
			continue
		}
		if idx >= 0 && idx < t.caps[r] { // dense but not yet grown
			continue
		}
		rec, ok := lvl.over[ev.addr]
		if !ok || rec.gen != gen {
			continue
		}
		hitIdx[nh], hitRecs[nh] = int32(i), rec.writeRec
		nh++
	}
	return nh
}

// storeRun is memRun restricted to the span's stores: taken when the
// shared span summary proves no load of the span can hit (or the span has
// none), so the probe side — generation compares, overflow lookups, hit
// bookkeeping — vanishes and only the recording writes remain. Loads cost
// a single predictable branch.
func (t *shadowTracker) storeRun(lvl *shadowLevel, evs []memEv,
	iter, offBase, spLimit int64) int {
	gen := lvl.gen
	for i := range evs {
		ev := &evs[i]
		if ev.kind != memStore {
			continue
		}
		r := int(ev.reg)
		if r == regStack && ev.addr < spLimit {
			continue
		}
		idx := ev.idx
		lvl.note(r, idx)
		rec := writeRec{iter: iter, off: offBase + ev.tick}
		gens := lvl.gens[r]
		if uint64(idx) < uint64(len(gens)) {
			gens[idx] = gen
			lvl.recs[r][idx] = rec
			continue
		}
		if idx >= 0 && idx < t.caps[r] { // dense but not yet grown
			lvl.grow(r, idx, t.caps[r])
			lvl.gens[r][idx] = gen
			lvl.recs[r][idx] = rec
			continue
		}
		if lvl.over == nil {
			lvl.over = map[int64]shadowRec{}
		}
		lvl.over[ev.addr] = shadowRec{gen: gen, writeRec: rec}
	}
	return 0
}

// grow extends a region's flat tables to cover idx: geometric doubling
// from minShadowTab, clamped to the region cap. Stale prefixes keep their
// old generation stamps, so no clearing is needed. The gens and recs
// arrays grow in lockstep to stay parallel.
func (lvl *shadowLevel) grow(r int, idx, cap64 int64) {
	n := growShadowTab(int64(len(lvl.gens[r])), idx, cap64)
	gens := make([]uint64, n)
	copy(gens, lvl.gens[r])
	lvl.gens[r] = gens
	recs := make([]writeRec, n)
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
func newTracker(kind trackerKind, info *analysis.ModuleInfo) depTracker {
	if kind == trackerLegacyMap {
		return mapTracker{}
	}
	return newShadowTracker(info)
}
