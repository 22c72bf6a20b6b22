package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
)

// Request stream shape. Nothing in the repository records real lpd
// traffic, so this mix is an assumption, not a measurement: the
// parameters below were picked, and the class shares follow from them.
// Each pass sends lpdRequests requests from lpdClients closed-loop clients
// to a fresh server. Program k of the registry gets a fixed quota of a
// pass's requests, in proportion to (lpdZipfV+k)^-lpdZipfS: 19 requests
// for the hottest program, 2 for the coldest. The seed draws each
// request's configuration, uniform over the 14 paper configurations, and
// the order of the pass. Fixed quotas keep the work of a pass steady. The
// class shares of a pass, judged from key history:
//   - live runs: one per program, so 57 of lpdRequests (19%), fixed by
//     the registry size and lpdRequests;
//   - cache hits: a program with quota q gets 14(1-(13/14)^q) distinct
//     configurations on average, so the skew (lpdZipfS, lpdZipfV) sets the
//     hit share: 20.7% expected (14% with no skew, 35% at lpdZipfS = 2);
//   - trace replays: the rest, 60%.
//
// These shares put the median request in the replay class and the p99
// tail among live runs; another mix could put them elsewhere.
const (
	lpdRequests = 300
	lpdClients  = 2
	lpdZipfS    = 1.1
	lpdZipfV    = 8
)

// lpdAnalyze sends POST /v1/analyze over loopback to an in-process server
// configured like a standalone lpd.
type lpdAnalyze struct {
	benches []*bench.Benchmark
	quotas  []int // requests per pass for each benchmark
	seeds   passSeeds
	k       int        // the pass cur belongs to
	cur     []request  // pass k's stream
	srv     *lpdServer // started before the pass that uses it
	last    []request  // the previous pass's stream, for the layer probe
	// refs holds the reference report JSON per (program, configuration),
	// computed in-process outside the timed region.
	refs map[refKey][]byte
}

type refKey struct {
	prog int
	cfg  core.Config
}

// newLPDAnalyze draws the first pass's stream. The server starts in setup.
func newLPDAnalyze(seed int64) (workload, error) {
	w := &lpdAnalyze{
		benches: bench.All(),
		quotas:  lpdQuotas(len(bench.All())),
		seeds:   newPassSeeds(seed),
		refs:    map[refKey][]byte{},
	}
	reqs, err := w.stream(0)
	if err != nil {
		return nil, err
	}
	n := map[string]int{}
	for _, r := range reqs {
		n[r.class]++
	}
	fmt.Printf("# lpd-analyze assumed request mix, pass 0: %d live, %d replay, %d hit\n", n["live"], n["replay"], n["hit"])
	return w, nil
}

// setup stops the current server, if any, and times what an lpd start
// pays before its first request: serve.New, the loopback listener and the
// first answer to GET /healthz.
func (w *lpdAnalyze) setup() (time.Duration, error) {
	if w.srv != nil {
		err := w.srv.stop()
		w.srv = nil
		if err != nil {
			return 0, err
		}
	}
	t0 := time.Now()
	srv, err := startServer()
	if err != nil {
		return 0, err
	}
	w.srv = srv
	if err := srv.ready(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// stream returns pass k's requests, drawn from the k-th stream seed.
func (w *lpdAnalyze) stream(k int) ([]request, error) {
	if w.cur != nil && w.k == k {
		return w.cur, nil
	}
	rng := w.seeds.rng(k)
	cfgs := core.PaperConfigs()
	reqs := make([]request, 0, lpdRequests)
	for p, n := range w.quotas {
		b := w.benches[p]
		for j := 0; j < n; j++ {
			r, err := newRequest(p, b.Name, b.Source, cfgs[rng.Intn(len(cfgs))])
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	classify(reqs)
	w.k, w.cur = k, reqs
	return reqs, nil
}

// lpdQuotas splits lpdRequests over n programs in proportion to
// (lpdZipfV+k)^-lpdZipfS, handing the rounding remainder to the largest
// fractions.
func lpdQuotas(n int) []int {
	q := make([]int, n)
	frac := make([]float64, n)
	var sum float64
	for k := range frac {
		frac[k] = math.Pow(lpdZipfV+float64(k), -lpdZipfS)
		sum += frac[k]
	}
	left := lpdRequests
	for k := range q {
		exact := lpdRequests * frac[k] / sum
		q[k] = int(exact)
		frac[k] = exact - float64(q[k])
		left -= q[k]
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] > frac[order[j]] })
	for _, k := range order[:left] {
		q[k]++
	}
	return q
}

func (w *lpdAnalyze) pass(tr *tracer, k int) (passStats, error) {
	reqs, err := w.stream(k)
	if err != nil {
		return passStats{}, err
	}
	root := tr.begin("lpd", 0, k)
	resps, wall, cpu := w.srv.send(tr, root, reqs, lpdClients)
	tr.end(root)
	ps := passStats{ops: len(reqs), elapsed: wall, cpu: cpu, lat: make([]time.Duration, len(resps))}
	for i, r := range resps {
		ps.lat[i] = r.lat
	}
	if tr != nil {
		scraped, err := w.srv.scrape()
		if err != nil {
			return passStats{}, err
		}
		ps.layers = serveLayers(reqs, resps, scraped)
	}
	// Each pass starts from a fresh server: caches and trace tier empty.
	if _, err := w.setup(); err != nil {
		return passStats{}, err
	}
	if ps.failed, err = w.check(reqs, resps); err != nil {
		return passStats{}, err
	}
	w.last = reqs
	return ps, nil
}

// check counts responses that are not 200 or whose report differs from
// the in-process reference for the same program and configuration.
func (w *lpdAnalyze) check(reqs []request, resps []response) (int, error) {
	missing := map[int][]core.Config{}
	for _, r := range reqs {
		k := refKey{r.prog, r.cfg}
		if _, ok := w.refs[k]; !ok && !containsConfig(missing[r.prog], r.cfg) {
			missing[r.prog] = append(missing[r.prog], r.cfg)
		}
	}
	for p, cfgs := range missing {
		b := w.benches[p]
		info, err := core.AnalyzeSource(b.Name, b.Source)
		if err != nil {
			return 0, fmt.Errorf("reference for %s: %w", b.Name, err)
		}
		reps, err := core.MultiRun(info, cfgs, core.RunOptions{})
		if err != nil {
			return 0, fmt.Errorf("reference for %s: %w", b.Name, err)
		}
		for i, c := range cfgs {
			if w.refs[refKey{p, c}], err = json.Marshal(reps[i]); err != nil {
				return 0, err
			}
		}
	}
	failed := 0
	for i, r := range reqs {
		if resps[i].status != 200 || !bytes.Equal(resps[i].report, w.refs[refKey{r.prog, r.cfg}]) {
			failed++
		}
	}
	return failed, nil
}

func containsConfig(cs []core.Config, c core.Config) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// probe lists the previous pass's programs, each with the configurations
// it was requested under, in first-request order.
func (w *lpdAnalyze) probe() []program {
	var out []program
	index := map[int]int{}
	for _, r := range w.last {
		i, ok := index[r.prog]
		if !ok {
			i = len(out)
			index[r.prog] = i
			b := w.benches[r.prog]
			out = append(out, program{name: b.Name, src: b.Source})
		}
		if !containsConfig(out[i].cfgs, r.cfg) {
			out[i].cfgs = append(out[i].cfgs, r.cfg)
		}
	}
	return out
}

func (w *lpdAnalyze) close() {
	if w.srv == nil {
		return
	}
	if err := w.srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "lpperf: stopping server:", err)
	}
	w.srv = nil
}
