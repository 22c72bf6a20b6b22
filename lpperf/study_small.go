package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	lp "loopapalooza"
	"loopapalooza/internal/bench"
	"loopapalooza/internal/core"
	"loopapalooza/internal/lang/lpcgen"
)

// studyPrograms is the number of programs one study-small pass runs.
const studyPrograms = 1000

// studyDigest is the digest of the first pass's reports under the default
// seed, recorded when the benchmark was written.
const studyDigest = "2c58ab8c047ddc122991009cefb6cc9d9d01face6d4c93a08580d66bc20b6894"

// studySmall is one closed-loop caller running loopapalooza.Study on a
// stream of small generated programs, each under one paper configuration.
// Every pass draws new programs and configurations from its own stream
// seed, which the workload seed determines, so a run covers many
// thousands of distinct programs.
type studySmall struct {
	seeds   passSeeds
	k       int       // the pass progs belongs to
	progs   []program // pass k's programs
	digests map[int]string
}

// studyWarmup names the registry benchmark whose Study is study-small's
// set-up. The facade keeps no state, so the only product work a caller
// pays before its first operation is a first call's cold path.
const studyWarmup = "181.mcf"

// setup runs one Study of the warm-up benchmark under the best HELIX
// configuration and checks its report outside the timer.
func (w *studySmall) setup() (time.Duration, error) {
	b := bench.ByName(studyWarmup)
	t0 := time.Now()
	r, err := lp.Study(b.Name, b.Source, core.BestHELIX())
	d := time.Since(t0)
	if err == nil {
		err = core.VerifyReport(r)
	}
	return d, err
}

// newStudySmall draws the first pass's programs.
func newStudySmall(seed int64) (workload, error) {
	w := &studySmall{seeds: newPassSeeds(seed), digests: map[int]string{}}
	if seed == defaultSeed {
		w.digests[0] = studyDigest
	}
	w.draw(0)
	return w, nil
}

// draw makes pass k's programs current.
func (w *studySmall) draw(k int) {
	if w.progs != nil && w.k == k {
		return
	}
	rng := w.seeds.rng(k)
	cfgs := core.PaperConfigs()
	w.k, w.progs = k, make([]program, studyPrograms)
	for i := range w.progs {
		b := make([]byte, 96)
		rng.Read(b)
		c := rng.Intn(len(cfgs))
		// The second configuration is for the layer probe, which replays
		// a recorded trace under it.
		w.progs[i] = program{
			name: fmt.Sprintf("gen%04d.lpc", i),
			src:  lpcgen.Program(b),
			cfgs: []core.Config{cfgs[c], cfgs[(c+1)%len(cfgs)]},
		}
	}
}

func (w *studySmall) pass(tr *tracer, k int) (passStats, error) {
	w.draw(k)
	reports := make([]*core.Report, len(w.progs))
	errs := make([]error, len(w.progs))
	lat := make([]time.Duration, len(w.progs))
	wall, cpu := timed(func() {
		for i, p := range w.progs {
			id := tr.begin("study", 0, i)
			t0 := time.Now()
			reports[i], errs[i] = lp.Study(p.name, p.src, p.cfgs[0])
			lat[i] = time.Since(t0)
			tr.end(id)
		}
	})
	ps := passStats{ops: len(w.progs), elapsed: wall, cpu: cpu, lat: lat}
	h := sha256.New()
	for i, r := range reports {
		if errs[i] != nil || core.VerifyReport(r) != nil {
			ps.failed++
			continue
		}
		data, err := json.Marshal(r)
		if err != nil {
			return passStats{}, err
		}
		h.Write(data)
	}
	// A pass whose inputs ran before must repeat that pass's digest.
	digest := hex.EncodeToString(h.Sum(nil))
	if want, ok := w.digests[k]; !ok {
		w.digests[k] = digest
	} else if digest != want {
		fmt.Printf("# study-small pass %d digest %s, want %s\n", k, digest, want)
		ps.failed = ps.ops
	}
	return ps, nil
}

func (w *studySmall) probe() []program { return w.progs }

func (w *studySmall) close() {}
