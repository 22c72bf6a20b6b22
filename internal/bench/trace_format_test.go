package bench

// The v1 trace format pin. Traces outlive the process that records them:
// lpbench -trace-dir and lpd's disk tier keep them on disk, and a later
// build must replay them. The round-trip tests only compare a recording
// with another recording made by the same TraceWriter, so a writer change
// that alters bytes but stays self-consistent would pass them. This test
// compares every registry benchmark's trace with a SHA-256 digest
// recorded by the original streaming writer. A mismatch is a format
// change: bump the trace version and keep a reader for v1 instead of
// rewriting the digests.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"loopapalooza/internal/core"
)

// traceDigests reads testdata/trace_digests.txt: one "name bytes sha256"
// line per benchmark.
func traceDigests(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "trace_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 3 {
			t.Fatalf("bad digest line %q", sc.Text())
		}
		out[fs[0]] = [2]string{fs[1], fs[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceFormatPinned re-records every registry benchmark and compares
// the trace bytes with the pinned v1 digests.
func TestTraceFormatPinned(t *testing.T) {
	want := traceDigests(t)
	benches := All()
	if len(want) != len(benches) {
		t.Errorf("%d pinned digests for %d registry benchmarks", len(want), len(benches))
	}
	for _, b := range benches {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			pin, ok := want[b.Name]
			if !ok {
				t.Fatal("no pinned digest")
			}
			info, err := b.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := core.Run(info, core.PaperConfigs()[0], core.RunOptions{Trace: &buf}); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := [2]string{strconv.Itoa(buf.Len()), hex.EncodeToString(sum[:])}; got != pin {
				t.Errorf("trace = %s bytes sha256 %s, pinned %s bytes sha256 %s", got[0], got[1], pin[0], pin[1])
			}
		})
	}
}
