package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"loopapalooza/internal/analysis"
)

// traceSeed is one recorded sample program: its analysis, its trace, and
// the live reports the trace must replay to.
type traceSeed struct {
	info  *analysis.ModuleInfo
	trace []byte
	want  []*Report
}

// traceFuzzSamples are the fuzz seed programs: a few iterations each, so
// their traces stay a few hundred bytes (the mutator and the input
// minimizer crawl on traces of tens of kilobytes). Together they emit
// every record kind and both value encodings: memory recurrences across
// nested loops, integer and float loop-carried observations, and stack
// memory reused by a call inside a loop.
var traceFuzzSamples = []string{`
var a [8]int;
func main() int {
	var i int;
	var j int;
	a[0] = 1;
	for (i = 1; i < 6; i = i + 1) {
		for (j = 0; j < 3; j = j + 1) { a[i] = a[i-1] + j; }
	}
	return a[5];
}`, `
var a [8]int;
func main() int {
	var s int = 0;
	var f float = 0.5;
	var i int;
	for (i = 0; i < 6; i = i + 1) {
		s = s + a[i] + i;
		f = f * 1.5 + float(s);
	}
	return s + int(f);
}`, `
var out [6]int;
func scratch(seed int) int {
	var buf [3]int;
	var j int;
	for (j = 0; j < 3; j = j + 1) { buf[j] = seed + j; }
	return buf[0] + buf[2];
}
func main() int {
	var i int;
	for (i = 0; i < 6; i = i + 1) { out[i] = scratch(i); }
	return out[5];
}`}

// fuzzReplayCfgs are two configurations of different models, so they
// never coalesce: replaying both takes the chunk tee, replaying one the
// lone-engine feed.
var fuzzReplayCfgs = []Config{BestPDOALL(), BestHELIX()}

// FuzzTraceReplay drives the slice trace decoder with arbitrary and
// mutated bytes. The seeds are recorded traces of traceFuzzSamples; the
// fuzzer picks the module by index. Properties:
//
//   - any input gives an error or reports, never a recovered panic;
//   - the lone-engine feed (ReplayTraceBytes) and the chunk tee
//     (ReplayTraceMulti) accept and reject the same inputs and agree on
//     every report;
//   - an unmutated seed replays to the reports of a live Run.
func FuzzTraceReplay(f *testing.F) {
	seeds := make([]traceSeed, len(traceFuzzSamples))
	for i, src := range traceFuzzSamples {
		info, trace, want := record(f, fmt.Sprintf("seed%d", i), src, fuzzReplayCfgs)
		seeds[i] = traceSeed{info: info, trace: trace, want: want}
		f.Add(uint8(i), trace)
	}
	f.Add(uint8(0), []byte(nil))
	f.Add(uint8(0), []byte("LPTr\x01\x04fuzz\x00\x06\x00"))

	f.Fuzz(func(t *testing.T, prog uint8, data []byte) {
		s := seeds[int(prog)%len(seeds)]
		name := s.info.Mod.Name
		one, err := ReplayTraceBytes(name, s.info, fuzzReplayCfgs[1], RunOptions{}, data)
		multi, merr := ReplayTraceMulti(name, s.info, fuzzReplayCfgs, RunOptions{}, bytes.NewReader(data))
		for _, e := range []error{err, merr} {
			if errors.Is(e, ErrPanic) {
				t.Fatalf("replay panicked: %v", e)
			}
		}
		if (err == nil) != (merr == nil) {
			t.Fatalf("feeds disagree on validity: lone engine %v, chunk tee %v", err, merr)
		}
		if err != nil {
			return
		}
		if cerr := CompareReports(multi[1], one); cerr != nil {
			t.Fatalf("lone engine vs chunk tee: %v", cerr)
		}
		if !bytes.Equal(data, s.trace) {
			return
		}
		for i, rep := range multi {
			if cerr := CompareReports(s.want[i], rep); cerr != nil {
				t.Fatalf("seed replay vs Run under %s: %v", fuzzReplayCfgs[i], cerr)
			}
		}
	})
}
