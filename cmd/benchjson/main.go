// Command benchjson converts `go test -bench` output into a
// machine-readable JSON summary (a BENCH_PR<n>.json record). It parses
// every benchmark line, keeps all reported metrics (ns/op, B/op,
// allocs/op, and custom metrics like instrs/sec), stamps the machine the
// run was measured on (nproc, GOMAXPROCS, Go version, the `cpu:` header
// line), and derives two ratio tables:
//
//   - shadow_vs_legacy: for each benchmark with /shadow and /legacy-map
//     sub-benchmarks, the legacy÷shadow time ratio and the per-op bytes
//     saved — the cost of the differential oracle's map tracker relative
//     to the production shadow memory.
//   - bytecode_vs_treewalk: for each benchmark with /bytecode and
//     /treewalk sub-benchmarks, the treewalk÷bytecode time ratio — the
//     dispatch cost the register-based bytecode VM compiles away
//     relative to the tree-walking oracle.
//
// Both sides of every ratio come from the same input, so the same machine;
// benchjson compares nothing against numbers recorded elsewhere.
//
// It also extracts BenchmarkBytecodeLowering's custom "op/<mnemonic>"
// metrics into a bytecode_lowering table: the suite-wide static opcode
// mix and superinstruction coverage of the bytecode compiler.
//
// With -compare, benchjson additionally loads a previous BENCH_*.json and
// exits non-zero when any gated series regressed past -tolerance percent
// against it. Per-op cost series (ns/op, sec/run, B/op, allocs/op) are
// gated only when both the baseline and the current run measured more
// than one iteration — a -benchtime=1x smoke folds one-time warm-up into
// its single op, which pollutes allocation counts as badly as timings.
// Deterministic work-census metrics (instruction counts, opcode mix) are
// exact at any iteration count and always gated, so the 1x CI smoke still
// catches the compiler or interpreter silently emitting more work while a
// full `make bench` run gates costs too.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson -o BENCH_PR14.json
//	go run ./cmd/benchjson -o BENCH_PR14.json bench.out
//	go test -bench=. -benchtime=1x -benchmem ./... | go run ./cmd/benchjson -compare BENCH_PR14.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name       string             `json:"name"` // GOMAXPROCS suffix stripped
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op": 16.9
}

// Ratio compares two measurements of the same quantity. Speedup is
// baseline/current (>1 means current is better); it is omitted and
// Eliminated set when the current cost dropped to exactly zero, where
// the ratio is undefined.
type Ratio struct {
	Baseline   float64  `json:"baseline"`
	Current    float64  `json:"current"`
	Speedup    *float64 `json:"speedup,omitempty"`
	Eliminated bool     `json:"eliminated,omitempty"`
}

// extraCurrent holds macro measurements that do not come from `go test
// -bench` output and are injected into the report alongside the parsed
// lines. Measured as the wall time of `lpbench > /dev/null` (all
// figures), best of seven alternating with the previous commit's binary
// (best 0.414 s), on a 2-vCPU Xeon VM, GOMAXPROCS 2, go1.24.
var extraCurrent = map[string]map[string]float64{
	"lpbench-all-figures": {"sec/run": 0.366},
}

// Machine names the box a record was measured on. NumCPU and GoVersion
// come from benchjson itself, which runs on the measuring machine with
// the measuring toolchain (`go run`); GOMAXPROCS is the benchmark names'
// -N suffix (absent means 1) and CPU the `cpu:` line of the go test
// header.
type Machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu,omitempty"`
}

type output struct {
	Schema             string                      `json:"schema"`
	Note               string                      `json:"note"`
	Machine            Machine                     `json:"machine"`
	Benchmarks         []Benchmark                 `json:"benchmarks"`
	ShadowVsLegacy     map[string]map[string]Ratio `json:"shadow_vs_legacy"`
	BytecodeVsTreewalk map[string]map[string]Ratio `json:"bytecode_vs_treewalk"`
	BytecodeLowering   *loweringStats              `json:"bytecode_lowering,omitempty"`
}

// loweringStats is the static opcode mix of the bytecode compiler over
// the whole registered suite, pulled from BenchmarkBytecodeLowering's
// custom metrics.
type loweringStats struct {
	Insts       float64            `json:"insts"`
	FusedInsts  float64            `json:"fusedInsts"`
	FusedPct    float64            `json:"fusedPct"`
	OpcodeCount map[string]float64 `json:"opcodeCounts"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parse reads the benchmark lines of go test output, and the machine
// fields the output itself carries (GOMAXPROCS and CPU).
func parse(r io.Reader) ([]Benchmark, Machine, error) {
	var out []Benchmark
	mach := Machine{GOMAXPROCS: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			mach.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			continue
		}
		if procs, err := strconv.Atoi(m[2]); err == nil {
			mach.GOMAXPROCS = procs
		}
		fields := strings.Fields(m[4])
		if len(fields)%2 != 0 {
			return nil, mach, fmt.Errorf("odd metric fields in %q", sc.Text())
		}
		metrics := make(map[string]float64, len(fields)/2)
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, mach, fmt.Errorf("bad metric value in %q: %v", sc.Text(), err)
			}
			metrics[fields[i+1]] = v
		}
		out = append(out, Benchmark{Name: m[1], Iterations: iters, Metrics: metrics})
	}
	return out, mach, sc.Err()
}

// ratios builds a Ratio per shared metric. For per-op costs (ns/op,
// B/op, allocs/op, sec/run) speedup is baseline/current; for rates
// (anything per second) it is current/baseline so >1 always means
// "current is better".
func ratios(base, cur map[string]float64) map[string]Ratio {
	out := map[string]Ratio{}
	for unit, b := range base {
		c, ok := cur[unit]
		if !ok {
			continue
		}
		r := Ratio{Baseline: b, Current: c}
		set := func(v float64) { r.Speedup = &v }
		switch {
		case strings.HasSuffix(unit, "/sec"):
			if b != 0 {
				set(c / b)
			}
		case c != 0:
			set(b / c)
		case b == 0:
			set(1)
		default: // c == 0, b > 0: the cost was eliminated entirely
			r.Eliminated = true
		}
		out[unit] = r
	}
	return out
}

// baselineDoc is the subset of a previous BENCH_*.json the regression
// gate needs.
type baselineDoc struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

// gatedUnit reports whether a metric series participates in the
// regression gate.
func gatedUnit(unit string, baseIters, curIters int64) bool {
	switch unit {
	case "ns/op", "sec/run", "B/op", "allocs/op":
		// Per-op cost series only carry signal when both runs measured
		// more than one iteration: a -benchtime=1x smoke folds one-time
		// warm-up (pool growth, memoization caches, lazily sized tables)
		// into its single op, so neither its timings nor its allocation
		// counts are comparable to a steady-state measurement.
		return baseIters > 1 && curIters > 1
	case "fused-insts", "fused-pct", "probe-skips/op":
		// Fusion coverage and span-summary skips: higher is better, so
		// the higher-is-worse gate below would fire on improvements.
		// Recorded, not gated.
		return false
	}
	// The remaining custom metrics are deterministic work censuses
	// (instruction counts, opcode mix) — exact at any iteration count,
	// and emitting more work is a real regression — except throughput
	// rates, which are wall-time derived and as noisy as ns/op.
	return !strings.HasSuffix(unit, "/sec")
}

// compare checks the current results against a previous run's benchmarks,
// returning one line per gated series that regressed past tolerance
// percent. All gated series are per-op costs, so higher is worse.
func compare(base, cur []Benchmark, tolerance float64) (regressions, notes []string) {
	curBy := make(map[string]Benchmark, len(cur))
	for _, b := range cur {
		curBy[b.Name] = b
	}
	for _, ob := range base {
		cb, ok := curBy[ob.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not in current run", ob.Name))
			continue
		}
		for _, unit := range sortedKeys(ob.Metrics) {
			ov := ob.Metrics[unit]
			cv, ok := cb.Metrics[unit]
			if !ok || ov <= 0 || !gatedUnit(unit, ob.Iterations, cb.Iterations) {
				continue
			}
			if worse := (cv - ov) / ov * 100; worse > tolerance {
				regressions = append(regressions, fmt.Sprintf("%s %s: %.4g -> %.4g (+%.1f%%, tolerance %.0f%%)",
					ob.Name, unit, ov, cv, worse, tolerance))
			}
		}
	}
	return regressions, notes
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func run() error {
	outPath := flag.String("o", "", "write JSON here instead of stdout")
	comparePath := flag.String("compare", "", "previous BENCH_*.json to gate against; exit non-zero on regression past -tolerance")
	tolerance := flag.Float64("tolerance", 20, "regression gate threshold in percent (with -compare)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	benches, mach, err := parse(in)
	if err != nil {
		return err
	}
	mach.NumCPU = runtime.NumCPU()
	mach.GoVersion = runtime.Version()
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	doc := summarize(benches, mach)

	if *outPath != "" || *comparePath == "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if *outPath == "" {
			if _, err := os.Stdout.Write(buf); err != nil {
				return err
			}
		} else if err := os.WriteFile(*outPath, buf, 0o644); err != nil {
			return err
		}
	}

	if *comparePath != "" {
		raw, err := os.ReadFile(*comparePath)
		if err != nil {
			return err
		}
		var base baselineDoc
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("parsing baseline %s: %v", *comparePath, err)
		}
		regressions, notes := compare(base.Benchmarks, doc.Benchmarks, *tolerance)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "benchjson: note:", n)
		}
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
			}
			return fmt.Errorf("%d series regressed past %.0f%% against %s", len(regressions), *tolerance, *comparePath)
		}
		fmt.Fprintf(os.Stderr, "benchjson: no regression past %.0f%% against %s\n", *tolerance, *comparePath)
	}
	return nil
}

// summarize builds the record of one run: the parsed benchmarks plus the
// injected macro measurements, sorted by name, and the ratio tables
// derived from them.
func summarize(benches []Benchmark, mach Machine) output {
	byName := map[string]map[string]float64{}
	for _, b := range benches {
		byName[b.Name] = b.Metrics
	}
	for name, metrics := range extraCurrent {
		byName[name] = metrics
		benches = append(benches, Benchmark{Name: name, Iterations: 1, Metrics: metrics})
	}
	sort.Slice(benches, func(i, j int) bool { return benches[i].Name < benches[j].Name })

	shadowVsLegacy := map[string]map[string]Ratio{}
	for name, shadow := range byName {
		root, ok := strings.CutSuffix(name, "/shadow")
		if !ok {
			continue
		}
		legacy, ok := byName[root+"/legacy-map"]
		if !ok {
			continue
		}
		shadowVsLegacy[root] = ratios(legacy, shadow)
	}

	bytecodeVsTreewalk := map[string]map[string]Ratio{}
	for name, bc := range byName {
		root, ok := strings.CutSuffix(name, "/bytecode")
		if !ok {
			continue
		}
		tw, ok := byName[root+"/treewalk"]
		if !ok {
			continue
		}
		bytecodeVsTreewalk[root] = ratios(tw, bc)
	}

	var lowering *loweringStats
	if m, ok := byName["BenchmarkBytecodeLowering"]; ok {
		lowering = &loweringStats{
			Insts:       m["insts"],
			FusedInsts:  m["fused-insts"],
			FusedPct:    m["fused-pct"],
			OpcodeCount: map[string]float64{},
		}
		for unit, v := range m {
			if op, ok := strings.CutPrefix(unit, "op/"); ok {
				lowering.OpcodeCount[op] = v
			}
		}
	}

	return output{
		Schema:             "loopapalooza-bench/v6",
		Note:               "speedup >1 means shadow/bytecode is better",
		Machine:            mach,
		Benchmarks:         benches,
		ShadowVsLegacy:     shadowVsLegacy,
		BytecodeVsTreewalk: bytecodeVsTreewalk,
		BytecodeLowering:   lowering,
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
