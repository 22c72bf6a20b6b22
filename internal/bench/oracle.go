package bench

import "loopapalooza/internal/core"

// OracleConfigs are the configurations the differential oracles run: one
// per execution model, at the most permissive flag settings (maximum
// tracker activity), plus, outside short mode, the remaining dep variants
// that change conflict handling. The engine, fan-out and tracker oracles
// of this package and of internal/core all draw on this one list.
func OracleConfigs(short bool) []core.Config {
	cfgs := []core.Config{
		{Model: core.DOALL, Reduc: 1, Dep: 0, Fn: 2},
		{Model: core.PDOALL, Reduc: 1, Dep: 2, Fn: 2},
		{Model: core.HELIX, Reduc: 1, Dep: 2, Fn: 2},
	}
	if !short {
		cfgs = append(cfgs,
			core.Config{Model: core.PDOALL, Reduc: 0, Dep: 0, Fn: 1},
			core.Config{Model: core.HELIX, Reduc: 1, Dep: 1, Fn: 2},
		)
	}
	return cfgs
}

// OrderingPairs are the (DOALL, PDOALL) flag pairings the metamorphic
// battery checks for model dominance. DOALL only validates with dep0, so
// the pairs span the reduc/fn axes.
func OrderingPairs() [][2]core.Config {
	return [][2]core.Config{
		{{Model: core.DOALL, Reduc: 0, Dep: 0, Fn: 0}, {Model: core.PDOALL, Reduc: 0, Dep: 0, Fn: 0}},
		{{Model: core.DOALL, Reduc: 1, Dep: 0, Fn: 2}, {Model: core.PDOALL, Reduc: 1, Dep: 0, Fn: 2}},
	}
}
