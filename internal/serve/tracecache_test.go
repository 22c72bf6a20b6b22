package serve

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"loopapalooza/internal/core"
)

// TestTraceCacheLRUByteBudget exercises the byte-budget store directly:
// updates, evictions in LRU order, oversize skips, and drops.
func TestTraceCacheLRUByteBudget(t *testing.T) {
	tc := NewTraceCache(100)
	if tc.EntryCap() != 25 {
		t.Fatalf("entry cap = %d, want 25", tc.EntryCap())
	}
	blob := func(n int) []byte { return make([]byte, n) }
	tc.Put("a", nil, blob(20))
	tc.Put("b", nil, blob(20))
	tc.Put("c", nil, blob(20))
	if _, _, ok := tc.Get("a"); !ok { // a is now most recently used
		t.Fatal("a missing")
	}
	tc.Put("d", nil, blob(25))
	tc.Put("e", nil, blob(25)) // 110 bytes: evicts the LRU entry (b)
	st := tc.Stats()
	if st.Evictions != 1 || st.Bytes != 90 || st.Entries != 4 {
		t.Fatalf("after eviction: %+v, want 1 eviction, 90 bytes, 4 entries", st)
	}
	if _, _, ok := tc.Get("b"); ok {
		t.Error("b should have been evicted (least recently used)")
	}
	if _, _, ok := tc.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	// Oversize entries are skipped, not stored.
	tc.Put("big", nil, blob(26))
	if st := tc.Stats(); st.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", st.Skipped)
	}
	if _, _, ok := tc.Get("big"); ok {
		t.Error("oversize trace stored")
	}
	// Updating a key in place adjusts the byte account.
	tc.Put("a", nil, blob(10))
	if st := tc.Stats(); st.Bytes != 80 {
		t.Errorf("bytes after update = %d, want 80", st.Bytes)
	}
	tc.Drop("a")
	if st := tc.Stats(); st.Bytes != 70 || st.Entries != 3 {
		t.Errorf("after drop: %+v, want 70 bytes, 3 entries", st)
	}
}

// TestTraceCacheCountsRetainedCapacity: an entry is charged the capacity
// its slice keeps alive, so traces with slack past their length (a sink
// grown by append) cannot hold more memory than the budget. By length
// the two entries below fit in 100 bytes; by capacity they do not.
func TestTraceCacheCountsRetainedCapacity(t *testing.T) {
	tc := NewTraceCache(100)
	slack := func(n, c int) []byte { return make([]byte, n, c) }
	tc.Put("a", nil, slack(10, 25))
	if st := tc.Stats(); st.Bytes != 25 {
		t.Fatalf("bytes = %d, want 25 (the capacity)", st.Bytes)
	}
	tc.Put("b", nil, slack(10, 25))
	tc.Put("c", nil, slack(10, 25))
	tc.Put("d", nil, slack(10, 25))
	if st := tc.Stats(); st.Evictions != 0 || st.Bytes != 100 {
		t.Fatalf("four full-capacity entries: %+v, want 100 bytes, no eviction", st)
	}
	tc.Put("e", nil, slack(1, 25)) // 5 bytes long, 125 retained
	st := tc.Stats()
	if st.Evictions != 1 || st.Bytes != 100 || st.Entries != 4 {
		t.Fatalf("after the fifth entry: %+v, want 1 eviction, 100 bytes, 4 entries", st)
	}
	if _, _, ok := tc.Get("a"); ok {
		t.Error("a should have been evicted (least recently used)")
	}
	// The per-entry cap applies to the retained size too.
	tc.Put("wide", nil, slack(1, 26))
	if st := tc.Stats(); st.Skipped != 1 {
		t.Errorf("skipped = %d, want 1 (capacity over the entry cap)", st.Skipped)
	}
}

// TestTraceCacheConcurrentDropDuringReplay: Drop removes an entry while
// other goroutines are replaying the trace they just Got. Get hands out
// the stored byte slice, so an in-flight replay must keep working on its
// snapshot while the entry disappears (and reappears) under it — the
// poisoned-trace fallback (Get → failed replay → Drop) races exactly
// like this in production. Run with -race.
func TestTraceCacheConcurrentDropDuringReplay(t *testing.T) {
	info, err := core.AnalyzeSource("race", okSrc)
	if err != nil {
		t.Fatal(err)
	}
	sink := &cappedBuffer{cap: 1 << 20}
	want, err := core.Run(info, core.BestHELIX(), core.RunOptions{Trace: sink})
	if err != nil || sink.overflow {
		t.Fatalf("recording run: err=%v overflow=%v", err, sink.overflow)
	}
	tc := NewTraceCache(1 << 20)
	tc.Put("k", info, sink.buf)

	// The dropper cycles Drop/Put until every reader has replayed its
	// quota, so a Get always eventually wins no matter how the goroutines
	// are scheduled — then one final Drop empties the store.
	start := make(chan struct{})
	var readers, dropper sync.WaitGroup
	var stopDrop atomic.Bool
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-start
			for replayed := 0; replayed < 10; {
				mi, trace, ok := tc.Get("k")
				if !ok {
					continue // dropped from under us: a legal miss
				}
				rep, err := core.ReplayTrace("race", mi, core.BestHELIX(), core.RunOptions{}, bytes.NewReader(trace))
				if err != nil {
					t.Errorf("replay during concurrent drops: %v", err)
					return
				}
				if !reflect.DeepEqual(want, rep) {
					t.Error("replay under concurrent drops diverged from the recording run")
					return
				}
				replayed++
			}
		}()
	}
	dropper.Add(1)
	go func() {
		defer dropper.Done()
		<-start
		for !stopDrop.Load() {
			tc.Drop("k")
			tc.Put("k", info, sink.buf)
		}
		tc.Drop("k")
	}()
	close(start)
	readers.Wait()
	stopDrop.Store(true)
	dropper.Wait()

	if st := tc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after final drop: %+v, want an empty, zero-byte store", st)
	}
}

// TestTraceCacheAccountingAfterFailedFill: fills that cannot produce a
// cacheable trace — recording overflow, failed run — must leave the byte
// account untouched, and Drop must stay idempotent so a failed replay
// can never double-subtract.
func TestTraceCacheAccountingAfterFailedFill(t *testing.T) {
	// A tier so small every recorded trace overflows the per-entry cap:
	// the analyze succeeds, the trace is discarded, the account stays 0.
	s, ts := newTestServer(t, Options{TraceCacheBytes: 40})
	status, body := postJSON(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Name: "big", Source: okSrc})
	if status != http.StatusOK {
		t.Fatalf("analyze with tiny trace tier: %d\n%s", status, body)
	}
	if st := s.traces.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("overflowed recording leaked into the store: %+v", st)
	}

	// A fill that fails outright must not store its partial trace.
	s2, ts2 := newTestServer(t, Options{})
	status, body = postJSON(t, ts2.URL+"/v1/analyze",
		AnalyzeRequest{Name: "doomed", Source: okSrc, Budgets: &Budgets{MaxSteps: 10}})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("step-limited analyze: %d, want 422\n%s", status, body)
	}
	if st := s2.traces.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("failed fill leaked a trace into the store: %+v", st)
	}

	// Drop is idempotent: ghosts and double drops leave the account exact.
	tc := NewTraceCache(100)
	tc.Put("x", nil, make([]byte, 10))
	tc.Put("y", nil, make([]byte, 7))
	tc.Drop("ghost")
	tc.Drop("x")
	tc.Drop("x")
	if st := tc.Stats(); st.Bytes != 7 || st.Entries != 1 {
		t.Fatalf("after ghost/double drops: %+v, want exactly y's 7 bytes", st)
	}
}

// TestTraceKeyConfigIndependent: the trace key ignores the configuration
// (that's the point of the tier) but separates budgets and sources.
func TestTraceKeyConfigIndependent(t *testing.T) {
	b := Budgets{MaxSteps: 100}
	k := TraceKey("p", okSrc, b)
	if k != TraceKey("p", okSrc, b) {
		t.Error("key not deterministic")
	}
	if k == TraceKey("p", okSrc, Budgets{MaxSteps: 101}) {
		t.Error("budgets not keyed")
	}
	if k == TraceKey("p", slowSrc, b) {
		t.Error("source not keyed")
	}
	if k == Key("p", okSrc, core.Config{Model: core.DOALL}, b) {
		t.Error("trace key collided with a result-cache key")
	}
}

// TestCappedBuffer: writes past the cap are discarded without error and
// flagged, so a huge trace cannot fail or bloat the run that records it.
func TestCappedBuffer(t *testing.T) {
	b := &cappedBuffer{cap: 10}
	for i := 0; i < 5; i++ {
		n, err := b.Write([]byte("abcd"))
		if n != 4 || err != nil {
			t.Fatalf("write %d: (%d, %v), want (4, nil)", i, n, err)
		}
	}
	if !b.overflow || len(b.buf) != 10 {
		t.Errorf("overflow=%v len=%d, want flagged overflow holding 10 bytes", b.overflow, len(b.buf))
	}
}

// TestAnalyzeTraceTier: the second configuration of an already-analyzed
// program is served by trace replay — no second interpretation — and the
// replayed report is identical to a live run's.
func TestAnalyzeTraceTier(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := AnalyzeRequest{Name: "tiered", Source: okSrc, Config: "reduc1-dep2-fn2 PDOALL"}
	status, body := postJSON(t, ts.URL+"/v1/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("first config: %d\n%s", status, body)
	}
	if st := s.traces.Stats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first run: %+v, want 1 miss recording 1 trace", st)
	}

	req.Config = "reduc1-dep1-fn2 HELIX"
	status, body = postJSON(t, ts.URL+"/v1/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("second config: %d\n%s", status, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Cached {
		t.Error("novel config reported as a full-cache hit")
	}
	if st := s.traces.Stats(); st.Hits != 1 {
		t.Fatalf("after second config: %+v, want a trace hit", st)
	}
	want, err := core.RunSource("tiered", okSrc, core.BestHELIX(), core.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, ar.Report) {
		t.Errorf("replayed report differs from live run:\nlive:   %+v\nreplay: %+v", want, ar.Report)
	}

	// Different budgets are a different execution: no trace hit.
	req.Config = ""
	req.Budgets = &Budgets{MaxSteps: 1 << 30}
	if status, body := postJSON(t, ts.URL+"/v1/analyze", req); status != http.StatusOK {
		t.Fatalf("budgeted request: %d\n%s", status, body)
	}
	if st := s.traces.Stats(); st.Hits != 1 || st.Entries != 2 {
		t.Errorf("budgets must partition the trace tier: %+v", st)
	}
}

// TestAnalyzeTraceTierCorruptFallback: a poisoned cache entry is dropped
// and the request is served by a live run, not an error.
func TestAnalyzeTraceTierCorruptFallback(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	tkey := TraceKey("victim", okSrc, s.effectiveBudgets(nil))
	info, err := core.AnalyzeSource("victim", okSrc)
	if err != nil {
		t.Fatal(err)
	}
	s.traces.Put(tkey, info, []byte("not a trace"))

	status, body := postJSON(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Name: "victim", Source: okSrc})
	if status != http.StatusOK {
		t.Fatalf("fallback failed: %d\n%s", status, body)
	}
	ar := decodeAnalyze(t, body)
	if ar.Report == nil || ar.Report.Speedup() <= 0 {
		t.Fatalf("no usable report after fallback: %+v", ar.Report)
	}
	// The poisoned entry was replaced by the live run's fresh trace.
	if _, trace, ok := s.traces.Get(tkey); !ok || strings.HasPrefix(string(trace), "not a trace") {
		t.Error("poisoned trace entry not replaced")
	}
}

// TestAnalyzeTraceTierDisabled: a negative budget turns the tier off and
// analyze still works.
func TestAnalyzeTraceTierDisabled(t *testing.T) {
	s, ts := newTestServer(t, Options{TraceCacheBytes: -1})
	if s.traces != nil {
		t.Fatal("trace tier should be disabled")
	}
	status, body := postJSON(t, ts.URL+"/v1/analyze",
		AnalyzeRequest{Source: okSrc})
	if status != http.StatusOK {
		t.Fatalf("analyze without trace tier: %d\n%s", status, body)
	}
}

// TestSweepSharesExecutions: /v1/sweep over several configurations runs
// each program once (the harness fan-out), visible through Stats.
func TestSweepSharesExecutions(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	status, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Benchmarks: []string{"181.mcf", "164.gzip"},
		Configs:    []string{"reduc0-dep0-fn0 DOALL", "reduc1-dep2-fn2 PDOALL", "reduc1-dep1-fn2 HELIX"},
	})
	if status != http.StatusOK {
		t.Fatalf("sweep: %d\n%s", status, body)
	}
	st := s.harness.Stats()
	if st.Executions != 2 || st.Cells != 6 || st.Saved != 4 {
		t.Errorf("harness stats = %+v, want 2 executions serving 6 cells (4 saved)", st)
	}
}
