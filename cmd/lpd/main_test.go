package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/cluster"
	"loopapalooza/internal/core"
	"loopapalooza/internal/wal"
)

func TestRunRejectsBadRoleWiring(t *testing.T) {
	cases := []struct {
		name string
		cfg  config
	}{
		{"unknown role", config{role: "manager"}},
		{"worker without peers", config{role: "worker"}},
		{"coordinator with peers", config{role: "coordinator", peers: []string{"http://x:1"}}},
		{"standalone with peers", config{role: "standalone", peers: []string{"http://x:1"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rc := run(tc.cfg); rc != 2 {
				t.Fatalf("run() = %d, want usage error 2", rc)
			}
		})
	}
}

// TestWorkerHarnessHonorsBudgets: a cluster worker runs its cells under
// the process -max-steps budget, so a cell that exceeds it parks as
// step-limit instead of running on to the interpreter's default budget.
func TestWorkerHarnessHonorsBudgets(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	defer coord.Close()
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		ID:          "w0",
		Coordinator: coord,
		Harness:     workerHarness(config{maxSteps: 5000}.budgets()),
		Poll:        5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	defer func() { cancel(); <-stopped }()

	id, err := coord.Submit("t", []*bench.Benchmark{bench.ByName("181.mcf")},
		[]core.Config{core.BestHELIX()}, false)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := coord.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done == st.Total {
			c := st.Cells[0]
			if c.State != cluster.CellParked || c.Outcome != core.OutcomeStepLimit {
				t.Fatalf("cell %s/%s: state %s, outcome %s; want parked as step-limit",
					c.Bench, c.Config, c.State, c.Outcome)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %s", st.Summary)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWALDumpGolden: -wal-dump renders a journal deterministically —
// header line with generation/snapshot/record/torn counts, then every
// record payload verbatim in append order.
func TestWALDumpGolden(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"k":"admit","job":"job-000001"}`,
		`{"k":"lease","task":"task-00000001","worker":"w0"}`,
		`{"k":"commit","job":"job-000001","bench":"181.mcf"}`,
	} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := dumpWAL(&sb, dir); err != nil {
		t.Fatal(err)
	}
	golden := `wal: generation 0, snapshot 0 bytes, 3 records, 0 torn tail bytes
     0 {"k":"admit","job":"job-000001"}
     1 {"k":"lease","task":"task-00000001","worker":"w0"}
     2 {"k":"commit","job":"job-000001","bench":"181.mcf"}
`
	if sb.String() != golden {
		t.Fatalf("wal dump diverged from golden:\n--- got ---\n%s--- want ---\n%s", sb.String(), golden)
	}
}

// TestWALDumpReportsTornTail: a torn tail shows up in the header
// instead of failing the dump (the whole point of offline inspection).
func TestWALDumpReportsTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte(`{"k":"admit"}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	tearJournal(t, dir)

	var sb strings.Builder
	if err := dumpWAL(&sb, dir); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(sb.String(), "\n")
	if want := "wal: generation 0, snapshot 0 bytes, 1 records, 3 torn tail bytes"; header != want {
		t.Fatalf("torn dump header = %q, want %q", header, want)
	}
}

// tearJournal appends a 3-byte partial header to the gen-0 journal —
// the debris of a crash mid-write.
func tearJournal(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "journal-00000000.wal"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
}

func TestWALDumpRejectsMissingDir(t *testing.T) {
	if rc := run(config{walDump: t.TempDir() + "/nonexistent"}); rc != 1 {
		t.Fatalf("run(-wal-dump missing) = %d, want 1", rc)
	}
}
