package core

// Binary event traces: the instrumentation stream of one execution
// (paper §III-A) serialized to a compact varint format, so a program
// recorded once can be replayed into any future configuration without
// re-executing. Budgets (steps, heap, wall-clock) are enforced at record
// time by the interpreter; replay consumes the recorded stream and cannot
// fail on them — only successful executions produce complete traces.
//
// Layout (all integers varint unless noted):
//
//	magic "LPTr", version byte
//	uvarint len(module name), name bytes
//	uvarint loop count (must match the replaying module's analysis)
//	records:
//	  0x00 tick   uvarint n
//	  0x01 enter  uvarint seq, uvarint sp, uvarint k, k × val
//	  0x02 iter   uvarint seq, uvarint sp, uvarint k, k × (val, zigzag defTick)
//	  0x03 exit   uvarint seq
//	  0x04 load   zigzag delta from the previous load/store address
//	  0x05 store  zigzag delta from the previous load/store address
//	  0x06 end    uvarint total ticks (truncation + corruption check);
//	              nothing may follow it
//	val: kind byte; KFloat → 8 bytes little-endian IEEE bits, else zigzag I
//
// The codec works on byte slices: TraceWriter appends records to its own
// buffer and hands it on in blocks, and TraceReader walks a trace held
// whole in memory, so a cached trace replays in place, without a copy.
//
// Loops are addressed by their stable per-module Seq ordinal, so a trace
// is only meaningful against the module analysis that recorded it (the
// bench harness and the serve trace tier key traces by a source hash to
// guarantee that).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"

	"loopapalooza/internal/analysis"
	"loopapalooza/internal/interp"
	"loopapalooza/internal/ir"
)

// traceMagic opens every trace, followed by traceVersion.
var traceMagic = [4]byte{'L', 'P', 'T', 'r'}

// traceVersion is the current format version.
const traceVersion = 1

// Trace opcodes.
const (
	opTick byte = iota
	opEnter
	opIter
	opExit
	opLoad
	opStore
	opEnd
)

// traceBlock is the size of the blocks TraceWriter hands its io.Writer.
const traceBlock = 1 << 16

// errVarintOverflow reports a varint longer than 64 bits.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// zigzag maps signed to unsigned so small-magnitude deltas stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint is binary.AppendUvarint with a one-byte fast path: most
// trace integers (tick counts, address deltas, ordinals) are below 128.
func appendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// appendVal encodes one runtime value: kind byte, then either the IEEE
// bits (floats, fixed 8 bytes — random mantissas varint badly) or a
// zigzag varint of the integer payload.
func appendVal(b []byte, v interp.Val) []byte {
	b = append(b, byte(v.K))
	if v.K == ir.KFloat {
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	}
	return appendUvarint(b, zigzag(v.I))
}

// TraceWriter serializes the instrumentation event stream. It implements
// interp.Hooks and copies event payloads immediately (by encoding them),
// so it is safe to wire directly to the interpreter or behind the fan-out
// tee. Events append to the writer's own buffer, which goes to the
// underlying io.Writer in blocks of about traceBlock bytes. Errors from
// the underlying writer are sticky and surface at Close.
type TraceWriter struct {
	w     io.Writer
	info  *analysis.ModuleInfo
	buf   []byte
	err   error
	last  int64 // previous load/store address (delta base)
	ticks int64 // Σ tick n, written by Close as the end-record checksum
}

// NewTraceWriter starts a trace of one execution of info's module. The
// header is buffered like any record.
func NewTraceWriter(w io.Writer, info *analysis.ModuleInfo) *TraceWriter {
	name := info.Mod.Name
	b := make([]byte, 0, traceBlock+1024)
	b = append(b, traceMagic[:]...)
	b = append(b, traceVersion)
	b = appendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = appendUvarint(b, uint64(len(info.Loops)))
	return &TraceWriter{w: w, info: info, buf: b}
}

// spill hands a full block to the underlying writer.
func (tw *TraceWriter) spill() {
	if len(tw.buf) >= traceBlock {
		tw.flush()
	}
}

// flush writes the buffer out and empties it. After the first error the
// buffer is discarded instead, so a failed sink costs no memory.
func (tw *TraceWriter) flush() {
	if tw.err == nil && len(tw.buf) > 0 {
		n, err := tw.w.Write(tw.buf)
		if err == nil && n < len(tw.buf) {
			err = io.ErrShortWrite
		}
		tw.err = err
	}
	tw.buf = tw.buf[:0]
}

// seqOf resolves a loop meta to its trace ordinal, failing the trace for
// metas outside the module's dense numbering (hand-built test metas).
func (tw *TraceWriter) seqOf(lm *analysis.LoopMeta) uint64 {
	if lm.Seq < 0 || lm.Seq >= len(tw.info.Loops) || tw.info.Loops[lm.Seq] != lm {
		if tw.err == nil {
			tw.err = fmt.Errorf("core: trace: loop meta (seq %d) is not addressable in this module", lm.Seq)
		}
		return 0
	}
	return uint64(lm.Seq)
}

// Tick implements interp.Hooks.
func (tw *TraceWriter) Tick(n int64) {
	tw.buf = appendUvarint(append(tw.buf, opTick), uint64(n))
	tw.ticks += n
	tw.spill()
}

// EnterLoop implements interp.Hooks.
func (tw *TraceWriter) EnterLoop(lm *analysis.LoopMeta, sp int64, init []interp.Val) {
	b := appendUvarint(append(tw.buf, opEnter), tw.seqOf(lm))
	b = appendUvarint(appendUvarint(b, uint64(sp)), uint64(len(init)))
	for _, v := range init {
		b = appendVal(b, v)
	}
	tw.buf = b
	tw.spill()
}

// IterLoop implements interp.Hooks.
func (tw *TraceWriter) IterLoop(lm *analysis.LoopMeta, sp int64, obs []interp.LCDObs) {
	b := appendUvarint(append(tw.buf, opIter), tw.seqOf(lm))
	b = appendUvarint(appendUvarint(b, uint64(sp)), uint64(len(obs)))
	for _, o := range obs {
		b = appendUvarint(appendVal(b, o.Val), zigzag(o.DefTick))
	}
	tw.buf = b
	tw.spill()
}

// ExitLoop implements interp.Hooks.
func (tw *TraceWriter) ExitLoop(lm *analysis.LoopMeta) {
	tw.buf = appendUvarint(append(tw.buf, opExit), tw.seqOf(lm))
	tw.spill()
}

// Load implements interp.Hooks.
func (tw *TraceWriter) Load(addr int64) {
	tw.buf = appendUvarint(append(tw.buf, opLoad), zigzag(addr-tw.last))
	tw.last = addr
	tw.spill()
}

// Store implements interp.Hooks.
func (tw *TraceWriter) Store(addr int64) {
	tw.buf = appendUvarint(append(tw.buf, opStore), zigzag(addr-tw.last))
	tw.last = addr
	tw.spill()
}

// Close writes the end record and flushes, returning the first error the
// trace hit. A trace without a successful Close is truncated and will be
// rejected at replay.
func (tw *TraceWriter) Close() error {
	tw.buf = appendUvarint(append(tw.buf, opEnd), uint64(tw.ticks))
	tw.flush()
	return tw.err
}

// Failure indexes of uvarintAt.
const (
	varintShort    = -1 // the bytes end inside the varint
	varintOverflow = -2 // longer than 64 bits
)

// uvarintAt decodes the varint at b[i:], returning it and the index after
// it, or a negative index on failure (see varintErr).
func uvarintAt(b []byte, i int) (uint64, int) {
	if i >= len(b) {
		return 0, varintShort
	}
	if c := b[i]; c < 0x80 { // most trace integers fit one byte
		return uint64(c), i + 1
	}
	v, n := binary.Uvarint(b[i:])
	switch {
	case n > 0:
		return v, i + n
	case n == 0:
		return 0, varintShort
	default:
		return 0, varintOverflow
	}
}

// varintErr names a uvarintAt failure.
func varintErr(i int) error {
	if i == varintOverflow {
		return errVarintOverflow
	}
	return io.ErrUnexpectedEOF
}

// valAt decodes the runtime value at b[i:] (see appendVal).
func valAt(b []byte, i int) (interp.Val, int, error) {
	if i >= len(b) {
		return interp.Val{}, i, io.ErrUnexpectedEOF
	}
	v := interp.Val{K: ir.Kind(b[i])}
	i++
	if v.K > ir.KPtr {
		return interp.Val{}, i, fmt.Errorf("core: trace: bad value kind %d", v.K)
	}
	if v.K == ir.KFloat {
		if len(b)-i < 8 {
			return interp.Val{}, i, io.ErrUnexpectedEOF
		}
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
		return v, i + 8, nil
	}
	u, i := uvarintAt(b, i)
	if i < 0 {
		return interp.Val{}, i, varintErr(i)
	}
	v.I = unzigzag(u)
	return v, i, nil
}

// TraceReader decodes a recorded trace held in memory and replays it into
// any interp.Hooks consumer — typically one or more Engines, which then
// produce Reports bit-identical to a live run.
type TraceReader struct {
	data  []byte
	pos   int // first record byte
	metas []*analysis.LoopMeta
	name  string
}

// NewTraceReader reads a whole trace from r and validates its header
// against the module analysis that will consume the replay.
func NewTraceReader(r io.Reader, info *analysis.ModuleInfo) (*TraceReader, error) {
	data, err := readTrace(r)
	if err != nil {
		return nil, fmt.Errorf("core: trace: reading: %w", err)
	}
	return parseTrace(data, info)
}

// readTrace reads r to the end, sized up front when r knows its length.
func readTrace(r io.Reader) ([]byte, error) {
	l, ok := r.(interface{ Len() int })
	if !ok {
		return io.ReadAll(r)
	}
	data := make([]byte, l.Len())
	_, err := io.ReadFull(r, data)
	return data, err
}

// parseTrace validates the header of the trace in data — without copying
// it; the reader aliases data — against the module analysis that will
// consume the replay.
func parseTrace(data []byte, info *analysis.ModuleInfo) (*TraceReader, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("core: trace: reading header: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(data[:4]) != traceMagic {
		return nil, fmt.Errorf("core: trace: bad magic %q", data[:4])
	}
	if data[4] != traceVersion {
		return nil, fmt.Errorf("core: trace: unsupported version %d (want %d)", data[4], traceVersion)
	}
	nameLen, i := uvarintAt(data, 5)
	if i < 0 || nameLen > 1<<20 {
		return nil, fmt.Errorf("core: trace: bad module name length %d", nameLen)
	}
	if uint64(len(data)-i) < nameLen {
		return nil, fmt.Errorf("core: trace: reading module name: %w", io.ErrUnexpectedEOF)
	}
	tr := &TraceReader{data: data, metas: info.Loops, name: string(data[i : i+int(nameLen)])}
	loops, i := uvarintAt(data, i+int(nameLen))
	if i < 0 {
		return nil, fmt.Errorf("core: trace: reading loop count: %w", varintErr(i))
	}
	if loops != uint64(len(info.Loops)) {
		return nil, fmt.Errorf("core: trace: recorded against %d loops, module has %d (stale trace?)",
			loops, len(info.Loops))
	}
	tr.pos = i
	return tr, nil
}

// ModuleName returns the module name recorded in the header.
func (tr *TraceReader) ModuleName() string { return tr.name }

// metaAt resolves the loop ordinal at b[i:].
func (tr *TraceReader) metaAt(b []byte, i int) (*analysis.LoopMeta, int, error) {
	seq, i := uvarintAt(b, i)
	if i < 0 {
		return nil, i, fmt.Errorf("core: trace: truncated loop ordinal: %w", varintErr(i))
	}
	if seq >= uint64(len(tr.metas)) {
		return nil, i, fmt.Errorf("core: trace: loop ordinal %d out of range (module has %d)", seq, len(tr.metas))
	}
	return tr.metas[seq], i, nil
}

// Replay walks every recorded event into h, in order. It fails on a
// truncated or corrupt trace and on bytes after the end record; budgets
// were enforced at record time, so a complete trace always replays to
// completion. Scratch slices passed to h are reused across events,
// exactly like a live interpreter.
func (tr *TraceReader) Replay(h interp.Hooks) error {
	var (
		b           = tr.data
		i           = tr.pos
		last, ticks int64
		vals        []interp.Val
		obs         []interp.LCDObs
		u           uint64
		err         error
	)
	for i < len(b) {
		op := b[i]
		i++
		switch op {
		case opTick:
			if u, i = uvarintAt(b, i); i < 0 {
				return fmt.Errorf("core: trace: truncated tick: %w", varintErr(i))
			}
			ticks += int64(u)
			h.Tick(int64(u))
		case opLoad:
			if u, i = uvarintAt(b, i); i < 0 {
				return fmt.Errorf("core: trace: truncated load: %w", varintErr(i))
			}
			last += unzigzag(u)
			h.Load(last)
		case opStore:
			if u, i = uvarintAt(b, i); i < 0 {
				return fmt.Errorf("core: trace: truncated store: %w", varintErr(i))
			}
			last += unzigzag(u)
			h.Store(last)
		case opEnter:
			var lm *analysis.LoopMeta
			if lm, i, err = tr.metaAt(b, i); err != nil {
				return err
			}
			var sp, k uint64
			if sp, i = uvarintAt(b, i); i < 0 {
				return fmt.Errorf("core: trace: truncated enter: %w", varintErr(i))
			}
			if k, i = uvarintAt(b, i); i < 0 || k > uint64(len(lm.Observed)) {
				return fmt.Errorf("core: trace: bad enter payload count %d for %s", k, lm.ID())
			}
			vals = vals[:0]
			for ; k > 0; k-- {
				var v interp.Val
				if v, i, err = valAt(b, i); err != nil {
					return fmt.Errorf("core: trace: truncated enter value: %w", err)
				}
				vals = append(vals, v)
			}
			h.EnterLoop(lm, int64(sp), vals)
		case opIter:
			var lm *analysis.LoopMeta
			if lm, i, err = tr.metaAt(b, i); err != nil {
				return err
			}
			var sp, k uint64
			if sp, i = uvarintAt(b, i); i < 0 {
				return fmt.Errorf("core: trace: truncated iter: %w", varintErr(i))
			}
			if k, i = uvarintAt(b, i); i < 0 || k > uint64(len(lm.Observed)) {
				return fmt.Errorf("core: trace: bad iter payload count %d for %s", k, lm.ID())
			}
			obs = obs[:0]
			for ; k > 0; k-- {
				var v interp.Val
				if v, i, err = valAt(b, i); err != nil {
					return fmt.Errorf("core: trace: truncated observation: %w", err)
				}
				if u, i = uvarintAt(b, i); i < 0 {
					return fmt.Errorf("core: trace: truncated def tick: %w", varintErr(i))
				}
				obs = append(obs, interp.LCDObs{Val: v, DefTick: unzigzag(u)})
			}
			h.IterLoop(lm, int64(sp), obs)
		case opExit:
			var lm *analysis.LoopMeta
			if lm, i, err = tr.metaAt(b, i); err != nil {
				return err
			}
			h.ExitLoop(lm)
		case opEnd:
			if u, i = uvarintAt(b, i); i < 0 {
				return fmt.Errorf("core: trace: truncated end record: %w", varintErr(i))
			}
			if int64(u) != ticks {
				return fmt.Errorf("core: trace: tick checksum mismatch: replayed %d, recorded %d", ticks, u)
			}
			if i != len(b) {
				return fmt.Errorf("core: trace: %d trailing bytes after the end record", len(b)-i)
			}
			return nil
		default:
			return fmt.Errorf("core: trace: unknown opcode %#x", op)
		}
	}
	return fmt.Errorf("core: trace: truncated (missing end record): %w", io.ErrUnexpectedEOF)
}

// ReplayTrace replays one recorded trace under one configuration and
// returns a report bit-identical to the Run that recorded it. The
// resource budgets in opts are ignored: they were enforced when the trace
// was recorded.
func ReplayTrace(name string, info *analysis.ModuleInfo, cfg Config, opts RunOptions, r io.Reader) (*Report, error) {
	return only(ReplayTraceMulti(name, info, []Config{cfg}, opts, r))
}

// ReplayTraceBytes is ReplayTrace on a trace held in memory. It reads
// data in place and retains nothing of it, so a caller that caches traces
// replays them without a copy.
func ReplayTraceBytes(name string, info *analysis.ModuleInfo, cfg Config, opts RunOptions, data []byte) (*Report, error) {
	return only(replayTrace(name, info, []Config{cfg}, opts, func() ([]byte, error) { return data, nil }))
}

// ReplayTraceMulti reads a whole trace from r, decodes it once and
// evaluates every configuration against it — the replay-side equivalent
// of MultiRun, with the same engine feed (engineSet.feed).
func ReplayTraceMulti(name string, info *analysis.ModuleInfo, cfgs []Config, opts RunOptions, r io.Reader) ([]*Report, error) {
	return replayTrace(name, info, cfgs, opts, func() ([]byte, error) {
		data, err := readTrace(r)
		if err != nil {
			return nil, fmt.Errorf("core: trace: reading: %w", err)
		}
		return data, nil
	})
}

// replayTrace builds the engines, then fetches the trace bytes and
// replays them.
func replayTrace(name string, info *analysis.ModuleInfo, cfgs []Config, opts RunOptions, fetch func() ([]byte, error)) (reps []*Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			reps, err = nil, fmt.Errorf("core: %s: %w", name,
				&PanicError{Val: p, Stack: string(debug.Stack())})
		}
	}()
	set, err := prepareEngines(info, cfgs, opts.tracker)
	if err != nil {
		return nil, err
	}
	data, err := fetch()
	if err != nil {
		return nil, err
	}
	tr, err := parseTrace(data, info)
	if err != nil {
		return nil, err
	}
	h, drain := set.feed()
	if err := tr.Replay(h); err != nil {
		return nil, err
	}
	drain()
	return set.reports(cfgs, name), nil
}
