# Tier-1 gate: build + vet + tests + race. `make ci` is what a PR must
# keep green; `make quick` is the short edit loop (-short skips the
# figure-shape sweep).

GO ?= go

.PHONY: ci quick build vet test race bench benchsmoke fuzz fuzz-smoke figures cover golden chaos-smoke vuln clean

ci: build vet test race cover benchsmoke fuzz-smoke chaos-smoke vuln

quick: build vet
	$(GO) test -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# Statement-coverage gate over the service and taxonomy layers. Atomic
# mode so the gate composes with concurrent handler code; fails ci when
# either package drops below COVER_MIN%.
COVER_MIN ?= 80
cover:
	$(GO) test -short -covermode=atomic -coverprofile=cover.out \
		-coverpkg=loopapalooza/internal/serve,loopapalooza/internal/core \
		./internal/serve ./internal/core
	@$(GO) tool cover -func=cover.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { pct = $$3 + 0; printf "coverage: %s (gate %d%%)\n", $$3, min; \
		  if (pct < min) { print "FAIL: coverage below gate"; exit 1 } }'
	@rm -f cover.out

# Regenerate the golden report fixtures after an intentional engine
# change, then review the diff like any other code change.
golden:
	$(GO) test ./internal/bench -run TestGolden -update

# One iteration of every benchmark — catches bit-rot in benchmark code
# without paying for stable measurements. Includes the fan-out smoke:
# BenchmarkSweepFanout runs the full paper grid through core.MultiRun and
# fails outright if any cell of the shared-execution sweep diverges.
# The run is then gated against the newest checked-in BENCH_*.json:
# benchjson -compare fails on >20% regression of the gated series. At
# 1x iteration only the deterministic work censuses (instruction counts,
# opcode mix) are gated — per-op costs fold one-time warm-up into the
# single op; a full multi-iteration run gates time and allocations too.
BENCH_BASE ?= $(shell ls BENCH_PR*.json 2>/dev/null | sort -V | tail -1)
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./... | tee benchsmoke.out
	@if [ -n "$(BENCH_BASE)" ]; then \
		$(GO) run ./cmd/benchjson -compare $(BENCH_BASE) benchsmoke.out; \
	else \
		echo "benchsmoke: no BENCH_*.json baseline; skipping regression gate"; \
	fi
	@rm -f benchsmoke.out

# Short coverage-guided runs of every fuzz target (go test allows one
# -fuzz per invocation, hence the separate lines). Part of `make ci`:
# ~10s per target catches shallow regressions in the crash-proofing
# without a dedicated fuzz box.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzLexer$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzCompile$$' -fuzztime=$(FUZZTIME) ./internal/lang
	$(GO) test -run='^$$' -fuzz='^FuzzCompileAndRun$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzBytecodeDifferential$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzTrackerDifferential$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzTraceReplay$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME) ./internal/wal

# Longer fuzzing session (override FUZZTIME for overnight runs).
fuzz:
	$(MAKE) fuzz-smoke FUZZTIME=2m

# ~45 seconds of seeded fault waves (panic, crash, hang, corrupt, slow,
# dropped heartbeats) through a live worker fleet, every wave checked
# against the chaos contract: jobs terminate, no cell is lost or
# double-committed, completed cells are bit-identical to a single-process
# run. The Restart variant additionally SIGKILLs the durable coordinator
# mid-wave (with torn WAL tails injected) and recovers it from its
# journal. See internal/cluster/chaos.
chaos-smoke:
	LPD_CHAOS_SMOKE=1 $(GO) test -run='^TestChaosSmoke(Restart)?$$' -count=1 -v \
		-timeout 300s ./internal/cluster/chaos

# Known-vulnerability scan. govulncheck is not vendored with the
# toolchain, so the target degrades to a warning where it is missing
# rather than failing ci on a tool gap.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Full measurement run: the perf suite (engine hot path, interpreter
# dispatch, end-to-end sweeps; shadow vs legacy-map and bytecode vs
# treewalk sub-benchmarks, the paper-grid fan-out sweep, plus the bytecode
# compiler's opcode-mix census) and the root interpreter benchmark,
# rendered to BENCH_PR10.json with the speedup-ratio tables.
bench:
	$(GO) test -run='^$$' -bench='EngineLoadStore|EngineNestedLoadStore|EngineEnterExit|InterpDispatch|SweepSuite|SweepFanout|SweepEngines|BytecodeLowering' \
		-benchmem -count=1 ./internal/core ./internal/interp ./internal/bench | tee bench.out
	$(GO) test -run='^$$' -bench='^BenchmarkInterpreter$$' -benchmem -count=1 . | tee -a bench.out
	$(GO) run ./cmd/benchjson -o BENCH_PR10.json bench.out
	rm -f bench.out

figures:
	$(GO) run ./cmd/lpbench

# Remove stray run artifacts: recorded traces, journal generations and
# snapshots left by local lpd -data-dir runs, and coverage/bench scratch.
clean:
	find . -name '*.lptrace' -delete -o -name '*.wal' -delete -o -name '*.snap' -delete
	rm -f cover.out bench.out benchsmoke.out
