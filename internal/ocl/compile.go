package ocl

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file lowers a parsed AST into a tree of Go closures for
// compile-once/execute-many evaluation. The tree-walking interpreter in
// eval.go stays the reference semantics ("the oracle"); compiled Programs
// reuse the same shared helpers (dispatchCall, evalArrowOp, runIterator,
// navigateValue, resolveTypeName, ...) so the two paths cannot drift, and a
// differential harness replays the fuzz corpus through both to prove it.
//
// Compilation only lowers: each node becomes one closure that evaluates at
// run time, in the interpreter's order, and type and enum names resolve
// against the frame's Env, so one Program is correct under any Env. What
// that buys over interpretation:
//   - no per-call map[string]any copy: variables live in slot-indexed
//     frames, so binding self or an iterator item is one array write;
//   - closure dispatch instead of an AST type-switch per node;
//   - a per-Program sync.Pool of frames, so steady-state evaluation is
//     allocation-free.
//
// The one value computed at compile time is a sign on a literal (-3,
// not true): boxing a negative number allocates, and predicates such as
// `-3 <= overall_evaluation` would otherwise pay that once per record.

// code is a compiled expression: it evaluates against a Frame.
type code func(fr *Frame) (any, error)

// Program is a compiled OCL expression, safe for concurrent use: all
// evaluation state lives in per-call Frames.
type Program struct {
	run     code
	src     string
	nslots  int
	externs []string
	extSlot map[string]int
	// spare is a one-item frame cache in front of pool. sync.Pool
	// deliberately drops items at random when the race detector is on,
	// which would make "zero allocations in steady state" unprovable
	// under -race; the atomic spare slot keeps the common
	// acquire/release cycle deterministic (and saves the pool's
	// pin/unpin on the hot path).
	spare atomic.Pointer[Frame]
	pool  sync.Pool
}

// Frame holds the variable slots for one evaluation of a Program. Frames
// are pooled; use NewFrame/Release, or the Eval* helpers which manage the
// frame for you.
type Frame struct {
	prog  *Program
	env   *Env
	slots []any
	bound []bool
}

// binding is a compile-time scope entry for a let/iterator variable.
type binding struct {
	name string
	slot int
	// condSelf marks the implicit-iterator "self" alias, which defers to an
	// already-bound outer self at run time.
	condSelf bool
}

type compiler struct {
	externs []string
	extSlot map[string]int
	scope   []binding
	nslots  int
}

// Compile lowers a parsed expression. vars declares the external variables
// the program may read beyond "self", which is always declared: declared
// variables get fixed frame slots, and undeclared names fall back to
// Env.Vars lookups at run time. Compilation is total over parseable input;
// semantic problems (unknown operations, type errors, unknown types)
// surface at run time with the interpreter's exact error strings.
func Compile(expr Expr, vars ...string) *Program {
	c := &compiler{extSlot: make(map[string]int)}
	// "self" always occupies slot 0 so EvalSelf is valid for every Program;
	// remaining declared variables get slots in sorted order.
	declared := append([]string{"self"}, vars...)
	sort.Strings(declared[1:])
	for _, name := range declared {
		if _, dup := c.extSlot[name]; dup || name == "" {
			continue
		}
		c.extSlot[name] = c.nslots
		c.externs = append(c.externs, name)
		c.nslots++
	}
	run := c.compile(expr)
	p := &Program{
		run:     run,
		src:     expr.String(),
		nslots:  c.nslots,
		externs: c.externs,
		extSlot: c.extSlot,
	}
	p.pool.New = func() any {
		return &Frame{
			prog:  p,
			slots: make([]any, p.nslots),
			bound: make([]bool, len(p.externs)),
		}
	}
	return p
}

// CompileString parses and compiles src through a process-wide cache, so
// hot paths that meet the same (source, vars) pair repeatedly — validation
// rules, batch checks, transform guards — compile exactly once.
func CompileString(src string, vars ...string) (*Program, error) {
	key := cacheKey{src: src, vars: strings.Join(vars, "\x00")}
	if v, ok := progCache.Load(key); ok {
		return v.(*Program), nil
	}
	expr, err := Parse(src)
	if err != nil {
		return nil, err
	}
	p := Compile(expr, vars...)
	// Bounded insert: past the cap we still compile, we just stop caching.
	if progCacheSize.Load() < progCacheCap {
		if _, loaded := progCache.LoadOrStore(key, p); !loaded {
			progCacheSize.Add(1)
		}
	}
	return p, nil
}

type cacheKey struct {
	src  string
	vars string
}

var (
	progCache     sync.Map
	progCacheSize atomic.Int64
)

const progCacheCap = 4096

// Source returns the normalized source of the compiled expression.
func (p *Program) Source() string { return p.src }

// Slot returns the frame slot of a declared variable.
func (p *Program) Slot(name string) (int, bool) {
	i, ok := p.extSlot[name]
	return i, ok
}

// NewFrame takes a frame from the pool and binds it to env. The caller must
// Release it.
func (p *Program) NewFrame(env *Env) *Frame {
	fr := p.spare.Swap(nil)
	if fr == nil {
		fr = p.pool.Get().(*Frame)
	}
	fr.env = env
	for i := range fr.bound {
		fr.bound[i] = false
	}
	return fr
}

// Release clears the frame (so pooled frames don't pin objects) and returns
// it to the pool.
func (fr *Frame) Release() {
	for i := range fr.slots {
		fr.slots[i] = nil
	}
	fr.env = nil
	if fr.prog.spare.CompareAndSwap(nil, fr) {
		return
	}
	fr.prog.pool.Put(fr)
}

// SetSlot binds a variable by slot index.
func (fr *Frame) SetSlot(i int, v any) {
	fr.slots[i] = v
	if i < len(fr.bound) {
		fr.bound[i] = true
	}
}

// SetVar binds a declared variable by name, reporting whether the name was
// declared at compile time.
func (fr *Frame) SetVar(name string, v any) bool {
	i, ok := fr.prog.extSlot[name]
	if !ok {
		return false
	}
	fr.SetSlot(i, v)
	return true
}

// Eval runs the program against the frame's current bindings.
func (fr *Frame) Eval() (any, error) {
	return fr.prog.run(fr)
}

// EvalBool runs the program and coerces to constraint semantics (null is
// false).
func (fr *Frame) EvalBool() (bool, error) {
	v, err := fr.prog.run(fr)
	if err != nil {
		return false, err
	}
	return coerceBool(fr.prog.src, v)
}

// Eval evaluates the program with variables taken from env.Vars — the
// drop-in replacement for ocl.Eval on a pre-parsed expression.
func (p *Program) Eval(env *Env) (any, error) {
	if env == nil {
		env = &Env{}
	}
	fr := p.NewFrame(env)
	defer fr.Release()
	if len(env.Vars) > 0 {
		for i, name := range p.externs {
			if v, ok := env.Vars[name]; ok {
				fr.slots[i] = v
				fr.bound[i] = true
			}
		}
	}
	return p.run(fr)
}

// EvalSelf evaluates the program with self bound, without touching any
// maps: the constraint-checking hot path.
func (p *Program) EvalSelf(self any, env *Env) (any, error) {
	if env == nil {
		env = &Env{}
	}
	fr := p.NewFrame(env)
	defer fr.Release()
	fr.slots[0] = self
	fr.bound[0] = true
	if len(env.Vars) > 0 {
		for i, name := range p.externs {
			if i == 0 {
				continue
			}
			if v, ok := env.Vars[name]; ok {
				fr.slots[i] = v
				fr.bound[i] = true
			}
		}
	}
	return p.run(fr)
}

// EvalBoolSelf evaluates with self bound and coerces to constraint
// semantics (null is false), mirroring ocl.EvalBool.
func (p *Program) EvalBoolSelf(self any, env *Env) (bool, error) {
	v, err := p.EvalSelf(self, env)
	if err != nil {
		return false, err
	}
	return coerceBool(p.src, v)
}

func coerceBool(src string, v any) (bool, error) {
	switch t := v.(type) {
	case bool:
		return t, nil
	case nil:
		return false, nil
	default:
		return false, fmt.Errorf("ocl: expression %q yields %T, not Boolean", src, v)
	}
}

// --- compilation ---

func (c *compiler) push(b binding) { c.scope = append(c.scope, b) }
func (c *compiler) pop()           { c.scope = c.scope[:len(c.scope)-1] }
func (c *compiler) newSlot() int   { s := c.nslots; c.nslots++; return s }
func (c *compiler) lookupScope(name string) *binding {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return &c.scope[i]
		}
	}
	return nil
}

// scopeHas reports whether name is lexically bound — by a let, an iterator,
// or the implicit-iterator self alias. Lexically bound names are always
// bound at run time too, mirroring the interpreter's ev.vars.
func (c *compiler) scopeHas(name string) bool { return c.lookupScope(name) != nil }

// varLookup builds the run-time "is this name bound to a value?" probe used
// where the interpreter distinguishes variables from type names: declared
// variables check their slot first, then Env.Vars; undeclared names check
// Env.Vars only.
func (c *compiler) varLookup(name string) func(fr *Frame) (any, bool) {
	if slot, ok := c.extSlot[name]; ok {
		return func(fr *Frame) (any, bool) {
			if fr.bound[slot] {
				return fr.slots[slot], true
			}
			v, ok := fr.env.Vars[name]
			return v, ok
		}
	}
	return func(fr *Frame) (any, bool) {
		v, ok := fr.env.Vars[name]
		return v, ok
	}
}

// compile lowers e into a closure tree. Operands run in source order, the
// order the interpreter evaluates them in, so both report the same error.
func (c *compiler) compile(e Expr) code {
	switch n := e.(type) {
	case *LitExpr:
		v := n.Val
		return func(*Frame) (any, error) { return v, nil }

	case *VarExpr:
		if b := c.lookupScope(n.Name); b != nil {
			slot := b.slot
			if !b.condSelf {
				// Lexical binder: guaranteed written before the body runs.
				return func(fr *Frame) (any, error) { return fr.slots[slot], nil }
			}
			// Implicit-iterator self: an outer binding wins when present.
			selfSlot := c.extSlot["self"]
			return func(fr *Frame) (any, error) {
				if fr.bound[selfSlot] {
					return fr.slots[selfSlot], nil
				}
				if v, ok := fr.env.Vars["self"]; ok {
					return v, nil
				}
				return fr.slots[slot], nil
			}
		}
		// Declared and undeclared variables read inline rather than
		// through varLookup: this is the hottest node of a predicate.
		name := n.Name
		if slot, ok := c.extSlot[name]; ok {
			return func(fr *Frame) (any, error) {
				if fr.bound[slot] {
					return fr.slots[slot], nil
				}
				if v, ok := fr.env.Vars[name]; ok {
					return v, nil
				}
				return resolveTypeName(fr.env, name)
			}
		}
		return func(fr *Frame) (any, error) {
			if v, ok := fr.env.Vars[name]; ok {
				return v, nil
			}
			return resolveTypeName(fr.env, name)
		}

	case *EnumExpr:
		enum, lit := n.Enum, n.Literal
		return func(fr *Frame) (any, error) { return resolveEnumLit(fr.env, enum, lit) }

	case *NavExpr:
		recv := c.compile(n.Recv)
		name := n.Name
		return func(fr *Frame) (any, error) {
			rv, err := recv(fr)
			if err != nil {
				return nil, err
			}
			return navigateValue(rv, name)
		}

	case *CallExpr:
		return c.compileCall(n)

	case *ArrowExpr:
		return c.compileArrow(n)

	case *UnExpr:
		op := n.Op
		if lit, ok := n.E.(*LitExpr); ok {
			// A sign on a literal: computed once, so a negative number is
			// boxed once rather than on every evaluation.
			v, err := evalUnary(op, lit.Val)
			return func(*Frame) (any, error) { return v, err }
		}
		operand := c.compile(n.E)
		return func(fr *Frame) (any, error) {
			v, err := operand(fr)
			if err != nil {
				return nil, err
			}
			return evalUnary(op, v)
		}

	case *IfExpr:
		cond, then, els := c.compile(n.Cond), c.compile(n.Then), c.compile(n.Else)
		return func(fr *Frame) (any, error) {
			cv, err := cond(fr)
			if err != nil {
				return nil, err
			}
			b, ok := cv.(bool)
			if !ok {
				return nil, fmt.Errorf("ocl: if-condition must be Boolean, got %s", typeName(cv))
			}
			if b {
				return then(fr)
			}
			return els(fr)
		}

	case *CollectionExpr:
		items := c.compileArgs(n.Items)
		isSet := n.Kind == "Set"
		return func(fr *Frame) (any, error) {
			out := make([]any, 0, len(items))
			for _, item := range items {
				v, err := item(fr)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			if isSet {
				return dedupe(out), nil
			}
			return out, nil
		}

	case *LetExpr:
		init := c.compile(n.Init)
		slot := c.newSlot()
		c.push(binding{name: n.Name, slot: slot})
		body := c.compile(n.Body)
		c.pop()
		return func(fr *Frame) (any, error) {
			v, err := init(fr)
			if err != nil {
				return nil, err
			}
			fr.slots[slot] = v
			return body(fr)
		}

	case *BinExpr:
		return c.compileBinary(n)

	default:
		err := fmt.Errorf("ocl: unhandled expression node %T", e)
		return func(*Frame) (any, error) { return nil, err }
	}
}

func (c *compiler) compileBinary(n *BinExpr) code {
	op := n.Op
	l, r := c.compile(n.L), c.compile(n.R)
	switch op {
	case "and", "or", "implies":
		// Specialized short-circuit closures, one per operator.
		leftBool := func(fr *Frame) (bool, error) {
			lv, err := l(fr)
			if err != nil {
				return false, err
			}
			lb, ok := lv.(bool)
			if !ok {
				return false, fmt.Errorf("ocl: %q needs Boolean operands, got %s", op, typeName(lv))
			}
			return lb, nil
		}
		evalRight := func(fr *Frame) (any, error) {
			rv, err := r(fr)
			if err != nil {
				return nil, err
			}
			rb, ok := rv.(bool)
			if !ok {
				return nil, fmt.Errorf("ocl: %q needs Boolean operands, got %s", op, typeName(rv))
			}
			return rb, nil
		}
		switch op {
		case "and":
			return func(fr *Frame) (any, error) {
				lb, err := leftBool(fr)
				if err != nil {
					return nil, err
				}
				if !lb {
					return false, nil
				}
				return evalRight(fr)
			}
		case "or":
			return func(fr *Frame) (any, error) {
				lb, err := leftBool(fr)
				if err != nil {
					return nil, err
				}
				if lb {
					return true, nil
				}
				return evalRight(fr)
			}
		default: // implies
			return func(fr *Frame) (any, error) {
				lb, err := leftBool(fr)
				if err != nil {
					return nil, err
				}
				if !lb {
					return true, nil
				}
				return evalRight(fr)
			}
		}
	}
	return func(fr *Frame) (any, error) {
		lv, err := l(fr)
		if err != nil {
			return nil, err
		}
		rv, err := r(fr)
		if err != nil {
			return nil, err
		}
		return evalStrictBinary(op, lv, rv)
	}
}

func (c *compiler) compileCall(n *CallExpr) code {
	name := n.Name
	// Type-level T.allInstances(): the receiver is a bare identifier that is
	// not lexically bound. Whether it is a *variable* can still depend on
	// run-time bindings, so the probe picks the path.
	if v, ok := n.Recv.(*VarExpr); ok && name == "allInstances" && !c.scopeHas(v.Name) {
		tname := v.Name
		lookup := c.varLookup(tname)
		args := c.compileArgs(n.Args)
		return func(fr *Frame) (any, error) {
			if rv, bound := lookup(fr); bound {
				argv, err := evalArgs(fr, args)
				if err != nil {
					return nil, err
				}
				return dispatchCall(fr.env, rv, "allInstances", argv)
			}
			return evalAllInstances(fr.env, tname)
		}
	}
	recv := c.compile(n.Recv)
	isTypeOp := name == "oclIsKindOf" || name == "oclIsTypeOf" || name == "oclAsType"
	args := make([]code, len(n.Args))
	for i, a := range n.Args {
		// Type arguments stay unevaluated names, resolved against the
		// metamodel — unless the name is lexically bound, in which case the
		// interpreter evaluates it as a variable.
		if v, ok := a.(*VarExpr); ok && isTypeOp && !c.scopeHas(v.Name) {
			args[i] = c.compileTypeArg(v.Name)
			continue
		}
		args[i] = c.compile(a)
	}
	return func(fr *Frame) (any, error) {
		rv, err := recv(fr)
		if err != nil {
			return nil, err
		}
		argv, err := evalArgs(fr, args)
		if err != nil {
			return nil, err
		}
		return dispatchCall(fr.env, rv, name, argv)
	}
}

// compileTypeArg builds a type-argument operand: a run-time variable
// binding wins, otherwise the name resolves as a type.
func (c *compiler) compileTypeArg(name string) code {
	lookup := c.varLookup(name)
	return func(fr *Frame) (any, error) {
		if v, ok := lookup(fr); ok {
			return v, nil
		}
		return resolveTypeArg(fr.env, name)
	}
}

func (c *compiler) compileArgs(exprs []Expr) []code {
	args := make([]code, len(exprs))
	for i, a := range exprs {
		args[i] = c.compile(a)
	}
	return args
}

func evalArgs(fr *Frame, args []code) ([]any, error) {
	if len(args) == 0 {
		return nil, nil
	}
	argv := make([]any, len(args))
	for i, a := range args {
		v, err := a(fr)
		if err != nil {
			return nil, err
		}
		argv[i] = v
	}
	return argv, nil
}

func (c *compiler) compileArrow(n *ArrowExpr) code {
	name := n.Name
	recv := c.compile(n.Recv)
	if iteratorOps[name] {
		slot := c.newSlot()
		iterName := n.Iter
		implicit := iterName == ""
		if implicit {
			iterName = "$implicit"
		}
		c.push(binding{name: iterName, slot: slot})
		// The implicit iterator also stands in for an unbound self, unless
		// an enclosing scope already binds self.
		aliasSelf := implicit && !c.scopeHas("self")
		if aliasSelf {
			c.push(binding{name: "self", slot: slot, condSelf: true})
		}
		body := c.compile(n.Body)
		if aliasSelf {
			c.pop()
		}
		c.pop()
		return func(fr *Frame) (any, error) {
			rv, err := recv(fr)
			if err != nil {
				return nil, err
			}
			coll := asCollection(rv)
			return runIterator(name, coll, func(item any) (any, error) {
				fr.slots[slot] = item
				return body(fr)
			})
		}
	}
	args := c.compileArgs(n.Args)
	nargs := len(args)
	return func(fr *Frame) (any, error) {
		rv, err := recv(fr)
		if err != nil {
			return nil, err
		}
		coll := asCollection(rv)
		return evalArrowOp(name, coll, nargs, func(i int) (any, error) {
			return args[i](fr)
		})
	}
}

// FreeVars returns the sorted names a compiled expression expects to be
// supplied externally: variable references that are not bound by a let or
// an iterator and do not occupy a type-name position (allInstances
// receivers, oclIsKindOf/oclIsTypeOf/oclAsType arguments). Inside an
// implicit iterator body, "self" is satisfied by the iterated element and
// is therefore not free.
func FreeVars(expr Expr) []string {
	seen := map[string]bool{}
	var walk func(e Expr, scope []string)
	inScope := func(scope []string, name string) bool {
		for _, s := range scope {
			if s == name {
				return true
			}
		}
		return false
	}
	walk = func(e Expr, scope []string) {
		switch n := e.(type) {
		case *VarExpr:
			if !inScope(scope, n.Name) {
				seen[n.Name] = true
			}
		case *NavExpr:
			walk(n.Recv, scope)
		case *CallExpr:
			isTypeOp := n.Name == "oclIsKindOf" || n.Name == "oclIsTypeOf" || n.Name == "oclAsType"
			if v, ok := n.Recv.(*VarExpr); !(ok && n.Name == "allInstances" && !inScope(scope, v.Name)) {
				walk(n.Recv, scope)
			}
			for _, a := range n.Args {
				if v, ok := a.(*VarExpr); ok && isTypeOp && !inScope(scope, v.Name) {
					continue
				}
				walk(a, scope)
			}
		case *ArrowExpr:
			walk(n.Recv, scope)
			if n.Body != nil {
				inner := scope
				if n.Iter != "" {
					inner = append(inner, n.Iter)
				} else {
					inner = append(inner, "$implicit", "self")
				}
				walk(n.Body, inner)
			}
			for _, a := range n.Args {
				walk(a, scope)
			}
		case *LetExpr:
			walk(n.Init, scope)
			walk(n.Body, append(scope, n.Name))
		case *BinExpr:
			walk(n.L, scope)
			walk(n.R, scope)
		case *UnExpr:
			walk(n.E, scope)
		case *IfExpr:
			walk(n.Cond, scope)
			walk(n.Then, scope)
			walk(n.Else, scope)
		case *CollectionExpr:
			for _, item := range n.Items {
				walk(item, scope)
			}
		}
	}
	walk(expr, nil)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
