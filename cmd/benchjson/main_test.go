package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestParseStampsMachine: the cpu header line and the benchmark names'
// GOMAXPROCS suffix land in the record's machine stamp, and the suffix is
// stripped from the series names.
func TestParseStampsMachine(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: loopapalooza/internal/core
cpu: Example CPU @ 2.00GHz
BenchmarkSweepFanout/fanout-4   	       3	 146500611 ns/op	    419479 probe-calls/op	11260248 B/op	    6327 allocs/op
PASS
`
	benches, mach, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if mach.CPU != "Example CPU @ 2.00GHz" || mach.GOMAXPROCS != 4 {
		t.Errorf("machine = %+v, want cpu line and GOMAXPROCS 4", mach)
	}
	if len(benches) != 1 || benches[0].Name != "BenchmarkSweepFanout/fanout" ||
		benches[0].Iterations != 3 || benches[0].Metrics["probe-calls/op"] != 419479 {
		t.Errorf("benchmarks = %+v", benches)
	}
	// Without a suffix, go test ran at GOMAXPROCS 1.
	_, mach, err = parse(strings.NewReader("BenchmarkX 10 5 ns/op\n"))
	if err != nil || mach.GOMAXPROCS != 1 {
		t.Errorf("unsuffixed: machine %+v, err %v; want GOMAXPROCS 1", mach, err)
	}
}

// TestProbeCensusGate: the probe census is a gated work count, except the
// summary-skip count, where more is better.
func TestProbeCensusGate(t *testing.T) {
	base := []Benchmark{{Name: "B", Iterations: 1, Metrics: map[string]float64{
		"probe-calls/op": 100, "probe-skips/op": 100}}}
	cur := []Benchmark{{Name: "B", Iterations: 1, Metrics: map[string]float64{
		"probe-calls/op": 150, "probe-skips/op": 150}}}
	regs, _ := compare(base, cur, 20)
	if len(regs) != 1 || !strings.HasPrefix(regs[0], "B probe-calls/op") {
		t.Errorf("regressions = %q, want only probe-calls/op", regs)
	}
}

// TestNoCrossMachineTable: the record holds only tables whose both sides
// come from the run itself; numbers measured on another machine at an
// earlier commit (the old seed_vs_current table) are not compared.
func TestNoCrossMachineTable(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkEngineLoadStore/shadow", Iterations: 10, Metrics: map[string]float64{"ns/op": 30}},
		{Name: "BenchmarkEngineLoadStore/legacy-map", Iterations: 10, Metrics: map[string]float64{"ns/op": 250}},
		{Name: "BenchmarkInterpreter", Iterations: 10, Metrics: map[string]float64{"ns/op": 1e6}},
	}
	buf, err := json.Marshal(summarize(benches, Machine{GOMAXPROCS: 2}))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["seed_vs_current"]; ok {
		t.Error("record carries a seed_vs_current table")
	}
	if got := string(doc["schema"]); got != `"loopapalooza-bench/v6"` {
		t.Errorf("schema = %s, want loopapalooza-bench/v6", got)
	}
	if _, ok := doc["shadow_vs_legacy"]; !ok {
		t.Error("record lost its same-run shadow_vs_legacy table")
	}
}
