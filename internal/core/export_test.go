package core

// The test-only seam of the differential oracles. The tree-walking
// interpreter and the legacy map tracker stay in the package as reference
// implementations, but no production option reaches them: the external
// core_test tracker oracle and engine benchmarks select them through these
// hooks, which exist only in test builds.

// EngineKind and TrackerKind name the oracle selectors for core_test.
type (
	EngineKind  = engineKind
	TrackerKind = trackerKind
)

// The selectable engines and trackers; the first of each is production.
const (
	EngineBytecode   = engineBytecode
	EngineTreewalk   = engineTreewalk
	TrackerShadow    = trackerShadow
	TrackerLegacyMap = trackerLegacyMap
)

// WithEngine returns opts running on the given execution engine.
func (opts RunOptions) WithEngine(k EngineKind) RunOptions {
	opts.engine = k
	return opts
}

// WithTracker returns opts tracking dependences with the given tracker.
func (opts RunOptions) WithTracker(k TrackerKind) RunOptions {
	opts.tracker = k
	return opts
}

// String names the engine kind in subtest and benchmark names.
func (k engineKind) String() string {
	if k == engineTreewalk {
		return "treewalk"
	}
	return "bytecode"
}

// String names the tracker kind in subtest and benchmark names.
func (k trackerKind) String() string {
	if k == trackerLegacyMap {
		return "legacy-map"
	}
	return "shadow"
}

// ProbeWork is the chunk tee's dependence-probe work census.
type ProbeWork = probeWork

// ReadProbeCensus returns the probe work of every chunk tee finished since
// the last ResetProbeCensus.
func ReadProbeCensus() ProbeWork {
	probeCensus.mu.Lock()
	defer probeCensus.mu.Unlock()
	return probeCensus.w
}

// ResetProbeCensus zeroes the probe census.
func ResetProbeCensus() {
	probeCensus.mu.Lock()
	defer probeCensus.mu.Unlock()
	probeCensus.w = probeWork{}
}
