package serve

// The trace tier of the result cache. The full result cache (cache.go) is
// keyed by (name, source, config, budgets): a novel configuration of an
// already-seen program misses it and, without this tier, re-interprets the
// program from scratch. The trace tier is keyed by (name, source, budgets)
// only — the recorded event stream is configuration-independent — so a
// cached trace serves ANY configuration by replay, which costs decode +
// engine work instead of interpretation.
//
// Entries are (module analysis, trace bytes) pairs under a byte-budget
// LRU. An entry counts the capacity of its slice — the memory it keeps
// alive — not just its length. Traces are recorded into a capped in-memory buffer during the
// (single) live run of a program; a run whose trace outgrows the per-entry
// cap still completes normally — the trace is simply not cached.

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"sync"

	"loopapalooza/internal/analysis"
)

// DefaultTraceCacheBytes bounds the trace tier when Options leave it zero.
const DefaultTraceCacheBytes = 64 << 20

// TraceKey computes the trace tier's content address: like Key, but
// configuration-independent.
func TraceKey(name, source string, b Budgets) string {
	h := sha256.New()
	for _, s := range []string{name, source} {
		io.WriteString(h, s)
		h.Write([]byte{0})
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(b.MaxSteps))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b.MaxHeapCells))
	binary.LittleEndian.PutUint64(buf[16:], uint64(b.TimeoutMs))
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TraceCacheStats is a monotonic snapshot of trace-tier traffic.
type TraceCacheStats struct {
	// Hits counts analyze fills served by trace replay.
	Hits uint64
	// Misses counts trace-tier lookups that fell through to a live run.
	Misses uint64
	// Evictions counts entries dropped by the byte budget.
	Evictions uint64
	// Skipped counts traces not stored because they outgrew the per-entry
	// cap.
	Skipped uint64
	// Entries and Bytes describe the current store (not monotonic).
	Entries int
	Bytes   int64
}

// TraceCache is the byte-budget LRU of recorded traces.
type TraceCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used; values are *traceItem
	items  map[string]*list.Element
	stats  TraceCacheStats
}

type traceItem struct {
	key   string
	info  *analysis.ModuleInfo
	trace []byte
}

// NewTraceCache returns a trace tier bounded to budget bytes of stored
// traces (budget <= 0 = DefaultTraceCacheBytes).
func NewTraceCache(budget int64) *TraceCache {
	if budget <= 0 {
		budget = DefaultTraceCacheBytes
	}
	return &TraceCache{
		budget: budget,
		ll:     list.New(),
		items:  map[string]*list.Element{},
	}
}

// EntryCap is the largest trace the cache will store: a quarter of the
// budget, so a hot set of at least four programs always fits.
func (tc *TraceCache) EntryCap() int64 { return tc.budget / 4 }

// Get returns the stored trace and its module analysis, counting the
// lookup either way.
func (tc *TraceCache) Get(key string) (*analysis.ModuleInfo, []byte, bool) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	el, ok := tc.items[key]
	if !ok {
		tc.stats.Misses++
		return nil, nil, false
	}
	tc.ll.MoveToFront(el)
	tc.stats.Hits++
	it := el.Value.(*traceItem)
	return it.info, it.trace, true
}

// Put stores one recorded trace, evicting least-recently-used entries past
// the byte budget. Traces over the per-entry cap are skipped (counted, not
// an error).
func (tc *TraceCache) Put(key string, info *analysis.ModuleInfo, trace []byte) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	size := retained(trace)
	if size > tc.EntryCap() {
		tc.stats.Skipped++
		return
	}
	if el, ok := tc.items[key]; ok {
		it := el.Value.(*traceItem)
		tc.bytes += size - retained(it.trace)
		it.info, it.trace = info, trace
		tc.ll.MoveToFront(el)
	} else {
		tc.items[key] = tc.ll.PushFront(&traceItem{key: key, info: info, trace: trace})
		tc.bytes += size
	}
	for tc.bytes > tc.budget {
		tail := tc.ll.Back()
		it := tail.Value.(*traceItem)
		tc.ll.Remove(tail)
		delete(tc.items, it.key)
		tc.bytes -= retained(it.trace)
		tc.stats.Evictions++
	}
}

// Drop removes one entry (a trace that failed to replay — corrupt or
// recorded by a different build).
func (tc *TraceCache) Drop(key string) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if el, ok := tc.items[key]; ok {
		it := el.Value.(*traceItem)
		tc.ll.Remove(el)
		delete(tc.items, it.key)
		tc.bytes -= retained(it.trace)
	}
}

// retained is the memory a stored trace keeps alive: its capacity.
func retained(trace []byte) int64 { return int64(cap(trace)) }

// Stats returns a traffic snapshot.
func (tc *TraceCache) Stats() TraceCacheStats {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	s := tc.stats
	s.Entries = tc.ll.Len()
	s.Bytes = tc.bytes
	return s
}

// cappedBuffer is the trace sink of a live run: it accepts writes up to
// cap bytes and silently discards the rest (recording a trace must never
// fail the run it rides on), flagging the overflow so the truncated trace
// is not cached.
type cappedBuffer struct {
	cap      int64
	buf      []byte
	overflow bool
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if room := b.cap - int64(len(b.buf)); room < int64(len(p)) {
		b.overflow = true
		if room > 0 {
			b.buf = append(b.buf, p[:room]...)
		}
	} else {
		b.buf = append(b.buf, p...)
	}
	return len(p), nil
}
