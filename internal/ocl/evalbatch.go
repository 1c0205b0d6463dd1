package ocl

// Vectorized evaluation: run one compiled Program over a whole batch of
// rows with a single reused Frame. Per row, the only work beyond the
// program body is one slot write per bound column — no frame pool
// round-trip, no map lookups, no per-row allocation. The semantics are
// exactly "EvalSelf per row": the differential tests pin EvalBatch
// against the per-record path and the interpreter.

// BoundColumn binds one frame slot to a column of per-row values. Slot
// comes from Program.Slot; Values must hold at least as many entries as
// the out slice passed to EvalBatch.
type BoundColumn struct {
	Slot   int
	Values []any
}

// BatchResult is one row's outcome from Program.EvalBatch.
type BatchResult struct {
	Val any
	Err error
}

// BoolResult is one row's outcome from Program.EvalBoolBatch.
type BoolResult struct {
	OK  bool
	Err error
}

// EvalBatch evaluates the program once per row of out, with each bound
// column's row value written into its slot first. Declared variables not
// covered by cols stay unbound and fall back to env.Vars lookups, exactly
// as in Eval. The frame is reused across rows: a row's slot writes replace
// the previous row's values, and let and iterator slots are written
// before they are read.
func (p *Program) EvalBatch(env *Env, cols []BoundColumn, out []BatchResult) {
	if env == nil {
		env = &Env{}
	}
	fr := p.NewFrame(env)
	defer fr.Release()
	for _, bc := range cols {
		fr.bound[bc.Slot] = true
	}
	for row := range out {
		for _, bc := range cols {
			fr.slots[bc.Slot] = bc.Values[row]
		}
		v, err := p.run(fr)
		out[row] = BatchResult{Val: v, Err: err}
	}
}

// EvalBoolBatch is EvalBatch with the constraint-semantics Boolean
// coercion (null is false) applied per row — the batch sibling of
// Frame.EvalBool and the entry point OCLCheck's vectorized path uses.
func (p *Program) EvalBoolBatch(env *Env, cols []BoundColumn, out []BoolResult) {
	if env == nil {
		env = &Env{}
	}
	fr := p.NewFrame(env)
	defer fr.Release()
	for _, bc := range cols {
		fr.bound[bc.Slot] = true
	}
	for row := range out {
		for _, bc := range cols {
			fr.slots[bc.Slot] = bc.Values[row]
		}
		v, err := p.run(fr)
		if err != nil {
			out[row] = BoolResult{Err: err}
			continue
		}
		ok, err := coerceBool(p.src, v)
		out[row] = BoolResult{OK: ok, Err: err}
	}
}
