package core

import (
	"loopapalooza/internal/analysis"
	"loopapalooza/internal/bytecode"
	"loopapalooza/internal/interp"
)

// engineKind selects the execution engine that produces the
// instrumentation event stream. The two engines are semantically
// identical — the tree-walker is kept as the differential oracle for the
// bytecode VM, reachable only from tests — so the choice only affects
// performance.
type engineKind int

const (
	// engineBytecode is the production engine: each function lowers once
	// (cached on the ModuleInfo) to register-based bytecode with
	// type-specialized opcodes and fused superinstructions, executed by a
	// flat dispatch loop.
	engineBytecode engineKind = iota
	// engineTreewalk is the original per-instruction walk over the IR,
	// retained as the correctness oracle.
	engineTreewalk
)

// execute runs main under the selected engine. Both paths construct their
// execution context fresh (globals laid out under the memory budget) and
// fire the identical hook stream into hooks.
func execute(info *analysis.ModuleInfo, kind engineKind, cfg interp.Config, args []interp.Val) (interp.Result, error) {
	if kind == engineTreewalk {
		return interp.New(info, cfg).Run("main", args...)
	}
	prog, err := bytecode.For(info)
	if err != nil {
		return interp.Result{}, err
	}
	return bytecode.NewVM(prog, cfg).Run("main", args...)
}
