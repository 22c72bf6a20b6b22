// Command lpperf is the repository benchmark. It drives the limit-study
// product through its public surfaces — the lpbench figure path, the
// loopapalooza.Study facade and the lpd HTTP handler — checks every output
// against a reference that never comes from the timed call, and prints one
// JSON result line. README.md explains the workloads, the metrics and the
// layer predictions.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash lpperf/run.sh --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced passes. --trace 1
// alternates untraced and traced passes of the workload, probes every
// layer on the workload's inputs, reports the per-layer metrics and writes
// the recorded spans to .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The default seed is the one the recorded study-small digest belongs to;
// the held-out seed is kept back for confirming later performance claims.
const (
	defaultSeed = 1
	heldOutSeed = 2021
)

// setupRepeats is how many times a run repeats its product set-up; setup_s
// is the median, so one slow set-up does not move it.
const setupRepeats = 15

// workload is one set of inputs driven through one public surface.
type workload interface {
	// setup runs the product work a user pays before the first operation
	// and returns its time. It runs setupRepeats times, each call
	// replacing what the previous one set up; input drawing and fixture
	// loading happen in the constructor, outside this timer.
	setup() (time.Duration, error)
	// pass runs timed pass k and checks its outputs afterwards. Passes
	// with the same k get the same inputs. tr is nil on untraced passes.
	pass(tr *tracer, k int) (passStats, error)
	// probe lists the programs whose layers the traced run times
	// directly, with the configurations the workload runs each under.
	probe() []program
	// close releases what the workload holds (servers, connections).
	close()
}

// passStats is what one pass measured and checked.
type passStats struct {
	ops     int             // operations completed
	failed  int             // operations that errored or produced a wrong output
	elapsed time.Duration   // wall time of the timed region
	cpu     time.Duration   // user+sys CPU of the process over the timed region
	lat     []time.Duration // per-operation latencies; nil when the pass is the operation
	// layers holds per-layer values the workload's own path measured
	// (traced passes only); the probe skips the layers they cover.
	layers map[string]float64
}

// passSeeds derives one seed per pass from the workload seed, so pass k
// gets the same inputs however often it runs.
type passSeeds struct {
	src   *rand.Rand
	seeds []int64
}

func newPassSeeds(seed int64) passSeeds { return passSeeds{src: rand.New(rand.NewSource(seed))} }

// rng returns a generator seeded for pass k.
func (s *passSeeds) rng(k int) *rand.Rand {
	for len(s.seeds) <= k {
		s.seeds = append(s.seeds, s.src.Int63())
	}
	return rand.New(rand.NewSource(s.seeds[k]))
}

var workloads = map[string]func(seed int64) (workload, error){
	"paper-grid":  newPaperGrid,
	"study-small": newStudySmall,
	"lpd-analyze": newLPDAnalyze,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: paper-grid, study-small or lpd-analyze")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; %d is held out for confirming claims)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	newW, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lpperf: usage: --workload {paper-grid|study-small|lpd-analyze} --seed N --seconds N --trace {0|1}\n")
		return 2
	}
	m := currentMachine()
	fmt.Printf("# machine: %s\n", m)

	var (
		res *result
		err error
	)
	budget := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		res, err = measureTraced(*name, newW, *seed, budget, m)
	} else {
		res, err = measure(newW, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpperf:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpperf:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// setup builds the workload, then runs its product set-up setupRepeats
// times, each after a forced GC, and returns the median set-up time.
func setup(newW func(int64) (workload, error), seed int64) (workload, float64, error) {
	w, err := newW(seed)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		d, err := w.setup()
		if err != nil {
			w.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
	}
	return w, median(times), nil
}

// measure is the untraced run: whole passes until the budget is spent.
func measure(newW func(int64) (workload, error), seed int64, budget time.Duration) (*result, error) {
	w, setupS, err := setup(newW, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var passes []passStats
	for deadline := time.Now().Add(budget); len(passes) == 0 || time.Now().Before(deadline); {
		runtime.GC() // every pass starts from a collected heap, as a fresh process does
		ps, err := w.pass(nil, len(passes))
		if err != nil {
			return nil, err
		}
		passes = append(passes, ps)
	}
	res := &result{Metrics: map[string]metric{}}
	var rates, cpus, lats []float64
	for _, ps := range passes {
		res.Attempted += ps.ops
		res.Failed += ps.failed
		rates = append(rates, float64(ps.ops)/ps.elapsed.Seconds())
		cpus = append(cpus, ps.cpu.Seconds())
		if ps.lat == nil {
			lats = append(lats, ms(ps.elapsed))
		}
		for _, d := range ps.lat {
			lats = append(lats, ms(d))
		}
	}
	tailP, tail, beyond := tailPercentile(lats)
	fmt.Printf("# %d passes, %d operations; latency_tail_ms is p%s over %d samples (%d beyond it)\n",
		len(passes), res.Attempted, tailP, len(lats), beyond)
	res.Correct = res.Failed == 0
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", setupS, "s")
	put("ops_per_s", median(rates), "1/s")
	put("latency_p50_ms", percentile(lats, 0.5), "ms")
	put("latency_tail_ms", tail, "ms")
	put("cpu_s", median(cpus), "s")
	put("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// perLayer names every per-layer metric with its unit. Every traced run
// reports all of them: each workload probes every layer on its own inputs.
var perLayer = []struct{ name, unit string }{
	{"lang.compile_s", "s"},
	{"lang.ir_instrs", "count"},
	{"analysis.analyze_s", "s"},
	{"analysis.loops", "count"},
	{"bytecode.lower_s", "s"},
	{"bytecode.static_insts", "count"},
	{"bytecode.fused_share", "ratio"},
	{"bytecode.exec_s", "s"},
	{"bytecode.steps", "count"},
	{"bytecode.steps_per_s", "1/s"},
	{"core.multirun_s", "s"},
	{"core.fanout_replay_s", "s"},
	{"core.run_s", "s"},
	{"core.record_s", "s"},
	{"core.trace_bytes", "bytes"},
	{"core.replay_s", "s"},
	{"bench.sweep_s", "s"},
	{"bench.executions", "count"},
	{"bench.saved_ratio", "ratio"},
	{"bench.render_s", "s"},
	{"serve.handler_s", "s"},
	{"serve.transport_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.trace_hit_ratio", "ratio"},
	{"serve.live_runs", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.replay_p50_ms", "ms"},
	{"serve.live_p50_ms", "ms"},
	{"tracing.overhead_ratio", "ratio"},
}

// measureTraced is the traced run, in two halves of the budget. The first
// half runs pairs of one untraced and one traced pass of the same inputs;
// the traced pass wraps the workload's public calls in spans. The second
// half repeats the layer probe. Per-layer metrics are medians over traced
// passes or probe rounds. tracing.overhead_ratio divides the time per
// operation summed over all traced passes by that over all untraced
// passes. An unrecorded warm-up pass comes first, and the order within a
// pair alternates over an even number of pairs, so neither a cold first
// pass nor pass order favours one side.
func measureTraced(name string, newW func(int64) (workload, error), seed int64, budget time.Duration, m machine) (*result, error) {
	w, _, err := setup(newW, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	tr := newTracer()
	res := &result{Metrics: map[string]metric{}}
	rounds := map[string][]float64{}
	count := func(ops, failed int) {
		res.Attempted += ops
		res.Failed += failed
	}
	t0 := time.Now()

	runtime.GC()
	warm, err := w.pass(nil, 0)
	if err != nil {
		return nil, err
	}
	count(warm.ops, warm.failed)
	var (
		elapsed [2]time.Duration // summed over passes: untraced, traced
		ops     [2]int
		pairs   int
		own     map[string]float64
	)
	for half := t0.Add(budget / 2); pairs < 2 || pairs%2 == 1 || time.Now().Before(half); pairs++ {
		for i := 0; i < 2; i++ {
			t := (i + pairs) % 2 // odd pairs run the traced pass first
			var ptr *tracer
			if t == 1 {
				ptr = tr
			}
			runtime.GC()
			ps, err := w.pass(ptr, pairs)
			if err != nil {
				return nil, err
			}
			count(ps.ops, ps.failed)
			elapsed[t] += ps.elapsed
			ops[t] += ps.ops
			if t == 1 {
				own = ps.layers
				for name, v := range own {
					rounds[name] = append(rounds[name], v)
				}
			}
		}
	}
	perOp := func(t int) float64 { return elapsed[t].Seconds() / float64(ops[t]) }
	overhead := perOp(1) / perOp(0)
	rounds["tracing.overhead_ratio"] = []float64{overhead}

	probes := 0
	for deadline := t0.Add(budget); probes == 0 || time.Now().Before(deadline); probes++ {
		progs := w.probe()
		layers, failed, err := probeLayers(tr, progs, own)
		if err != nil {
			return nil, err
		}
		count(len(progs), failed)
		for name, v := range layers {
			rounds[name] = append(rounds[name], v)
		}
	}
	for _, l := range perLayer {
		vs, ok := rounds[l.name]
		if !ok {
			return nil, fmt.Errorf("traced run measured no %s", l.name)
		}
		res.Metrics[l.name] = metric{median(vs), l.unit}
	}
	res.Correct = res.Failed == 0
	path, err := tr.write(name, seed, m)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# tracing.overhead_ratio %.4f over %d pairs of one traced and one untraced pass; %d probe rounds\n", overhead, pairs, probes)
	fmt.Printf("# %d spans written to %s\n", tr.len(), path)
	return res, nil
}

// cpuTime returns the user+sys CPU the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timed runs f and returns its wall and CPU time.
func timed(f func()) (wall, cpu time.Duration) {
	c0, t0 := cpuTime(), time.Now()
	f()
	return time.Since(t0), cpuTime() - c0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(float64(len(s))*p+0.999999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailPercentile picks the higher of p99 and p90 that has at least ten
// samples beyond it (the median when neither has), and returns its label,
// value and the number of samples beyond it. p99.9 is not a candidate:
// over the few dozen samples a run puts beyond it, it moved by more than
// its own median from run to run.
func tailPercentile(xs []float64) (string, float64, int) {
	for _, c := range []struct {
		label string
		p     float64
	}{{"99", 0.99}, {"90", 0.9}} {
		rank := int(float64(len(xs))*c.p + 0.999999999)
		if beyond := len(xs) - rank; beyond >= 10 {
			return c.label, percentile(xs, c.p), beyond
		}
	}
	return "50", median(xs), len(xs) / 2
}

// machine stamps every result with where it was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func currentMachine() machine {
	return machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel()}
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", m.NProc, m.GOMAXPROCS, m.GoVersion, m.CPU)
}
