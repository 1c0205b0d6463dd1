package ocl

import (
	"fmt"
	"sort"
	"strings"

	"github.com/modeldriven/dqwebre/internal/metamodel"
)

// Env supplies the evaluation context for an OCL expression: the model
// (for allInstances), the metamodel (for type-name resolution), variable
// bindings (at minimum "self") and optional profile hooks.
type Env struct {
	// Model provides class extents for Type.allInstances(). May be nil for
	// expressions that do not use allInstances.
	Model *metamodel.Model
	// Meta resolves type names in oclIsKindOf/allInstances; defaults to
	// Model.Metamodel() when nil.
	Meta *metamodel.Package
	// Vars holds variable bindings; Eval copies it, so shared Envs are safe.
	Vars map[string]any
	// Stereotypes, when non-nil, backs the hasStereotype('N') extension: it
	// returns the stereotype names applied to an object.
	Stereotypes func(*metamodel.Object) []string
	// TaggedValue, when non-nil, backs the taggedValue('N') extension: it
	// returns the tagged value of any applied stereotype, or nil.
	TaggedValue func(*metamodel.Object, string) metamodel.Value
}

func (e *Env) meta() *metamodel.Package {
	if e.Meta != nil {
		return e.Meta
	}
	if e.Model != nil {
		return e.Model.Metamodel()
	}
	return nil
}

// Eval evaluates a parsed expression. Results use the native domain:
// bool, int64, float64, string, *metamodel.Object, metamodel.EnumLit,
// []any (collections) and nil (OclVoid).
func Eval(expr Expr, env *Env) (any, error) {
	if env == nil {
		env = &Env{}
	}
	ev := &evaluator{env: env}
	// Copy the bindings so shared Envs stay safe under the evaluator's
	// let/iterator mutations — but only when there is something to copy; a
	// nil or empty Vars must not cost a map allocation per call.
	if len(env.Vars) > 0 {
		ev.vars = make(map[string]any, len(env.Vars))
		for k, v := range env.Vars {
			ev.vars[k] = v
		}
	}
	return ev.eval(expr)
}

// EvalString parses and evaluates src in one step.
func EvalString(src string, env *Env) (any, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Eval(e, env)
}

// EvalBool evaluates src and requires a boolean result; OCL's null is
// treated as false with ok reporting, matching constraint-check semantics
// where an undefined constraint does not hold.
func EvalBool(src string, env *Env) (bool, error) {
	v, err := EvalString(src, env)
	if err != nil {
		return false, err
	}
	switch t := v.(type) {
	case bool:
		return t, nil
	case nil:
		return false, nil
	default:
		return false, fmt.Errorf("ocl: expression %q yields %T, not Boolean", src, v)
	}
}

type evaluator struct {
	env *Env
	// vars is lazily allocated: expressions without bindings never touch it.
	vars map[string]any
}

// setVar binds a variable, allocating the map on first write.
func (ev *evaluator) setVar(name string, v any) {
	if ev.vars == nil {
		ev.vars = make(map[string]any, 4)
	}
	ev.vars[name] = v
}

func (ev *evaluator) eval(e Expr) (any, error) {
	switch n := e.(type) {
	case *LitExpr:
		return n.Val, nil
	case *VarExpr:
		if v, ok := ev.vars[n.Name]; ok {
			return v, nil
		}
		// A bare identifier that is not a variable denotes a type.
		return resolveTypeName(ev.env, n.Name)
	case *EnumExpr:
		return resolveEnumLit(ev.env, n.Enum, n.Literal)
	case *NavExpr:
		recv, err := ev.eval(n.Recv)
		if err != nil {
			return nil, err
		}
		return navigateValue(recv, n.Name)
	case *CallExpr:
		return ev.call(n)
	case *ArrowExpr:
		return ev.arrow(n)
	case *UnExpr:
		v, err := ev.eval(n.E)
		if err != nil {
			return nil, err
		}
		return evalUnary(n.Op, v)
	case *IfExpr:
		c, err := ev.eval(n.Cond)
		if err != nil {
			return nil, err
		}
		b, ok := c.(bool)
		if !ok {
			return nil, fmt.Errorf("ocl: if-condition must be Boolean, got %s", typeName(c))
		}
		if b {
			return ev.eval(n.Then)
		}
		return ev.eval(n.Else)
	case *CollectionExpr:
		out := make([]any, 0, len(n.Items))
		for _, item := range n.Items {
			v, err := ev.eval(item)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		if n.Kind == "Set" {
			return dedupe(out), nil
		}
		return out, nil
	case *LetExpr:
		v, err := ev.eval(n.Init)
		if err != nil {
			return nil, err
		}
		old, had := ev.vars[n.Name]
		ev.setVar(n.Name, v)
		out, err := ev.eval(n.Body)
		if had {
			ev.vars[n.Name] = old
		} else {
			delete(ev.vars, n.Name)
		}
		return out, err
	case *BinExpr:
		return ev.binary(n)
	default:
		return nil, fmt.Errorf("ocl: unhandled expression node %T", e)
	}
}

// typeRef is the evaluation result of a bare type name.
type typeRef struct{ c *metamodel.Class }

// resolveTypeName resolves a bare identifier that is not a variable; the
// error message covers both readings.
func resolveTypeName(env *Env, name string) (any, error) {
	if mm := env.meta(); mm != nil {
		if c, ok := mm.FindClass(name); ok {
			return typeRef{c: c}, nil
		}
	}
	return nil, fmt.Errorf("ocl: unknown variable or type %q", name)
}

// resolveTypeArg resolves a type argument of oclIsKindOf/oclIsTypeOf/
// oclAsType.
func resolveTypeArg(env *Env, name string) (any, error) {
	if mm := env.meta(); mm != nil {
		if c, ok := mm.FindClass(name); ok {
			return typeRef{c: c}, nil
		}
	}
	return nil, fmt.Errorf("ocl: unknown type %q", name)
}

// resolveEnumLit resolves Enum::Literal against the env's metamodel.
func resolveEnumLit(env *Env, enum, literal string) (any, error) {
	mm := env.meta()
	if mm == nil {
		return nil, fmt.Errorf("ocl: no metamodel to resolve %s::%s", enum, literal)
	}
	cl, ok := mm.FindClassifier(enum)
	if !ok {
		return nil, fmt.Errorf("ocl: unknown enumeration %q", enum)
	}
	en, ok := cl.(*metamodel.Enumeration)
	if !ok {
		return nil, fmt.Errorf("ocl: %q is not an enumeration", enum)
	}
	if !en.Has(literal) {
		return nil, fmt.Errorf("ocl: %q is not a literal of %q", literal, enum)
	}
	return metamodel.EnumLit{Enum: en, Literal: literal}, nil
}

// evalAllInstances implements the type-level T.allInstances() call.
func evalAllInstances(env *Env, name string) (any, error) {
	mm := env.meta()
	if mm == nil {
		return nil, fmt.Errorf("ocl: no metamodel for %s.allInstances()", name)
	}
	c, ok := mm.FindClass(name)
	if !ok {
		return nil, fmt.Errorf("ocl: unknown type %q", name)
	}
	return instancesOf(env, c, name)
}

// instancesOf materializes a class extent from the model, which memoizes
// it until the model next changes.
func instancesOf(env *Env, c *metamodel.Class, name string) (any, error) {
	if env.Model == nil {
		return nil, fmt.Errorf("ocl: no model for %s.allInstances()", name)
	}
	objs := env.Model.AllInstances(c)
	out := make([]any, len(objs))
	for i, o := range objs {
		out[i] = o
	}
	return out, nil
}

// navigateValue implements dot navigation with implicit collect over
// collections.
func navigateValue(recv any, name string) (any, error) {
	switch r := recv.(type) {
	case nil:
		return nil, nil // navigation over null yields null
	case *metamodel.Object:
		return objectProperty(r, name)
	case []any:
		var out []any
		for _, item := range r {
			v, err := navigateValue(item, name)
			if err != nil {
				return nil, err
			}
			switch t := v.(type) {
			case nil:
				// skip nulls, as OCL collect over navigation flattens them away
			case []any:
				out = append(out, t...)
			default:
				out = append(out, t)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("ocl: cannot navigate %q on %s", name, typeName(recv))
	}
}

// objectProperty reads a slot and converts to the native domain. Set and
// Append fill only declared properties, so a slot holding a value needs
// no class lookup.
func objectProperty(o *metamodel.Object, name string) (any, error) {
	if v, set := o.Get(name); set {
		return toNative(v), nil
	}
	p, ok := o.Class().Property(name)
	if !ok {
		return nil, fmt.Errorf("ocl: %s has no property %q", o.Class().QualifiedName(), name)
	}
	if p.IsMany() {
		return []any{}, nil
	}
	return nil, nil
}

// toNative converts a metamodel.Value to the evaluator's native domain.
func toNative(v metamodel.Value) any {
	switch t := v.(type) {
	case metamodel.String:
		return string(t)
	case metamodel.Int:
		return int64(t)
	case metamodel.Bool:
		return bool(t)
	case metamodel.Real:
		return float64(t)
	case metamodel.EnumLit:
		return t
	case metamodel.Ref:
		return t.Target
	case *metamodel.List:
		out := make([]any, 0, len(t.Items))
		for _, item := range t.Items {
			out = append(out, toNative(item))
		}
		return out
	default:
		return nil
	}
}

// call dispatches dot calls: type operations, object operations, string and
// numeric operations and the profile extensions.
func (ev *evaluator) call(n *CallExpr) (any, error) {
	// Type-level: T.allInstances()
	if v, ok := n.Recv.(*VarExpr); ok && n.Name == "allInstances" {
		if _, bound := ev.vars[v.Name]; !bound {
			return evalAllInstances(ev.env, v.Name)
		}
	}
	recv, err := ev.eval(n.Recv)
	if err != nil {
		return nil, err
	}
	argv := make([]any, len(n.Args))
	for i, a := range n.Args {
		// Type arguments to oclIsKindOf / oclIsTypeOf stay unevaluated names.
		if v, ok := a.(*VarExpr); ok && (n.Name == "oclIsKindOf" || n.Name == "oclIsTypeOf" || n.Name == "oclAsType") {
			if _, bound := ev.vars[v.Name]; !bound {
				tr, err := resolveTypeArg(ev.env, v.Name)
				if err != nil {
					return nil, err
				}
				argv[i] = tr
				continue
			}
		}
		val, err := ev.eval(a)
		if err != nil {
			return nil, err
		}
		argv[i] = val
	}
	return dispatchCall(ev.env, recv, n.Name, argv)
}

// dispatchCall executes a dot call on an evaluated receiver and arguments.
// It needs the env only for the hasStereotype/taggedValue profile hooks.
func dispatchCall(env *Env, recv any, name string, args []any) (any, error) {
	switch name {
	case "oclIsUndefined":
		return recv == nil, nil
	case "oclIsKindOf", "oclIsTypeOf":
		if len(args) != 1 {
			return nil, fmt.Errorf("ocl: %s takes one type argument", name)
		}
		tr, ok := args[0].(typeRef)
		if !ok {
			return nil, fmt.Errorf("ocl: %s needs a type argument", name)
		}
		o, ok := recv.(*metamodel.Object)
		if !ok {
			return false, nil
		}
		if name == "oclIsTypeOf" {
			return o.Class() == tr.c, nil
		}
		return o.IsA(tr.c), nil
	case "oclAsType":
		if len(args) != 1 {
			return nil, fmt.Errorf("ocl: oclAsType takes one type argument")
		}
		tr, ok := args[0].(typeRef)
		if !ok {
			return nil, fmt.Errorf("ocl: oclAsType needs a type argument")
		}
		o, ok := recv.(*metamodel.Object)
		if !ok || !o.IsA(tr.c) {
			return nil, nil
		}
		return o, nil
	case "hasStereotype":
		if env.Stereotypes == nil {
			return nil, fmt.Errorf("ocl: hasStereotype unavailable: no stereotype resolver in Env")
		}
		if len(args) != 1 {
			return nil, fmt.Errorf("ocl: hasStereotype takes one string argument")
		}
		want, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("ocl: hasStereotype argument must be a string")
		}
		o, ok := recv.(*metamodel.Object)
		if !ok {
			return false, nil
		}
		for _, s := range env.Stereotypes(o) {
			if s == want {
				return true, nil
			}
		}
		return false, nil
	case "taggedValue":
		if env.TaggedValue == nil {
			return nil, fmt.Errorf("ocl: taggedValue unavailable: no tagged-value resolver in Env")
		}
		if len(args) != 1 {
			return nil, fmt.Errorf("ocl: taggedValue takes one string argument")
		}
		want, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("ocl: taggedValue argument must be a string")
		}
		o, ok := recv.(*metamodel.Object)
		if !ok {
			return nil, nil
		}
		v := env.TaggedValue(o, want)
		if v == nil {
			return nil, nil
		}
		return toNative(v), nil
	}
	// String operations.
	if s, ok := recv.(string); ok {
		switch name {
		case "size":
			return int64(len(s)), nil
		case "toUpper", "toUpperCase":
			return strings.ToUpper(s), nil
		case "toLower", "toLowerCase":
			return strings.ToLower(s), nil
		case "concat":
			if len(args) == 1 {
				if t, ok := args[0].(string); ok {
					return s + t, nil
				}
			}
			return nil, fmt.Errorf("ocl: concat takes one string argument")
		case "substring":
			// OCL substring is 1-based and inclusive on both ends.
			if len(args) == 2 {
				lo, ok1 := args[0].(int64)
				hi, ok2 := args[1].(int64)
				if ok1 && ok2 && lo >= 1 && hi <= int64(len(s)) && lo <= hi {
					return s[lo-1 : hi], nil
				}
			}
			return nil, fmt.Errorf("ocl: substring(lower, upper) out of range")
		case "indexOf":
			if len(args) == 1 {
				if t, ok := args[0].(string); ok {
					return int64(strings.Index(s, t) + 1), nil
				}
			}
			return nil, fmt.Errorf("ocl: indexOf takes one string argument")
		case "contains":
			if len(args) == 1 {
				if t, ok := args[0].(string); ok {
					return strings.Contains(s, t), nil
				}
			}
			return nil, fmt.Errorf("ocl: contains takes one string argument")
		case "startsWith":
			if len(args) == 1 {
				if t, ok := args[0].(string); ok {
					return strings.HasPrefix(s, t), nil
				}
			}
			return nil, fmt.Errorf("ocl: startsWith takes one string argument")
		}
	}
	// Numeric operations.
	switch name {
	case "abs":
		switch t := recv.(type) {
		case int64:
			if t < 0 {
				return -t, nil
			}
			return t, nil
		case float64:
			if t < 0 {
				return -t, nil
			}
			return t, nil
		}
	case "max", "min":
		if len(args) == 1 {
			a, aok := numOf(recv)
			b, bok := numOf(args[0])
			if aok && bok {
				if (name == "max") == (a >= b) {
					return recv, nil
				}
				return args[0], nil
			}
		}
	}
	return nil, fmt.Errorf("ocl: unknown operation %q on %s", name, typeName(recv))
}

// arrow implements collection operations.
func (ev *evaluator) arrow(n *ArrowExpr) (any, error) {
	recv, err := ev.eval(n.Recv)
	if err != nil {
		return nil, err
	}
	coll := asCollection(recv)
	if iteratorOps[n.Name] {
		return ev.iterate(n, coll)
	}
	return evalArrowOp(n.Name, coll, len(n.Args), func(i int) (any, error) {
		return ev.eval(n.Args[i])
	})
}

// evalArrowOp executes a non-iterator arrow operation. nargs is the
// syntactic argument count and evalArg evaluates the i-th argument on
// demand — operations validate arity before touching any argument, and
// size/isEmpty/... never evaluate theirs, exactly like the tree-walker
// always has.
func evalArrowOp(name string, coll []any, nargs int, evalArg func(int) (any, error)) (any, error) {
	switch name {
	case "size":
		return int64(len(coll)), nil
	case "isEmpty":
		return len(coll) == 0, nil
	case "notEmpty":
		return len(coll) > 0, nil
	case "first":
		if len(coll) == 0 {
			return nil, nil
		}
		return coll[0], nil
	case "last":
		if len(coll) == 0 {
			return nil, nil
		}
		return coll[len(coll)-1], nil
	case "sum":
		var isum int64
		var fsum float64
		real := false
		for _, v := range coll {
			switch t := v.(type) {
			case int64:
				isum += t
				fsum += float64(t)
			case float64:
				real = true
				fsum += t
			default:
				return nil, fmt.Errorf("ocl: sum over non-numeric element %s", typeName(v))
			}
		}
		if real {
			return fsum, nil
		}
		return isum, nil
	case "asSet":
		return dedupe(coll), nil
	case "flatten":
		var out []any
		for _, v := range coll {
			if inner, ok := v.([]any); ok {
				out = append(out, inner...)
			} else {
				out = append(out, v)
			}
		}
		return out, nil
	case "includes", "excludes", "count":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: %s takes one argument", name)
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		cnt := int64(0)
		for _, v := range coll {
			if oclEqual(v, arg) {
				cnt++
			}
		}
		switch name {
		case "includes":
			return cnt > 0, nil
		case "excludes":
			return cnt == 0, nil
		default:
			return cnt, nil
		}
	case "includesAll", "excludesAll":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: %s takes one collection argument", name)
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		other := asCollection(arg)
		for _, want := range other {
			found := false
			for _, v := range coll {
				if oclEqual(v, want) {
					found = true
					break
				}
			}
			if (name == "includesAll") != found {
				return false, nil
			}
		}
		return true, nil
	case "union":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: union takes one collection argument")
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return append(append([]any{}, coll...), asCollection(arg)...), nil
	case "intersection":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: intersection takes one collection argument")
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		other := asCollection(arg)
		var out []any
		for _, v := range coll {
			for _, w := range other {
				if oclEqual(v, w) {
					out = append(out, v)
					break
				}
			}
		}
		return out, nil
	case "at":
		// OCL at() is 1-based.
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: at takes one index argument")
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		idx, ok := arg.(int64)
		if !ok || idx < 1 || idx > int64(len(coll)) {
			return nil, fmt.Errorf("ocl: at(%v) out of range 1..%d", arg, len(coll))
		}
		return coll[idx-1], nil
	case "indexOf":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: indexOf takes one argument")
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		for i, v := range coll {
			if oclEqual(v, arg) {
				return int64(i + 1), nil
			}
		}
		return int64(0), nil
	case "reverse":
		out := make([]any, len(coll))
		for i, v := range coll {
			out[len(coll)-1-i] = v
		}
		return out, nil
	case "including", "append":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: %s takes one argument", name)
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return append(append([]any{}, coll...), arg), nil
	case "prepend":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: prepend takes one argument")
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return append([]any{arg}, coll...), nil
	case "excluding":
		if nargs != 1 {
			return nil, fmt.Errorf("ocl: excluding takes one argument")
		}
		arg, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		var out []any
		for _, v := range coll {
			if !oclEqual(v, arg) {
				out = append(out, v)
			}
		}
		return out, nil
	case "max", "min":
		if len(coll) == 0 {
			return nil, nil
		}
		best := coll[0]
		for _, v := range coll[1:] {
			less, err := oclLess(v, best)
			if err != nil {
				return nil, err
			}
			if (name == "min") == less {
				best = v
			}
		}
		return best, nil
	case "avg":
		if len(coll) == 0 {
			return nil, nil
		}
		var sum float64
		for _, v := range coll {
			f, ok := numOf(v)
			if !ok {
				return nil, fmt.Errorf("ocl: avg over non-numeric element %s", typeName(v))
			}
			sum += f
		}
		return sum / float64(len(coll)), nil
	default:
		return nil, fmt.Errorf("ocl: unknown collection operation %q", name)
	}
}

// dedupe keeps the first occurrence of each distinct value, the shared
// semantics of asSet and Set{...} literals.
func dedupe(coll []any) []any {
	var out []any
	for _, v := range coll {
		dup := false
		for _, w := range out {
			if oclEqual(v, w) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

func (ev *evaluator) iterate(n *ArrowExpr, coll []any) (any, error) {
	iter := n.Iter
	if iter == "" {
		iter = "$implicit"
	}
	old, had := ev.vars[iter]
	defer func() {
		if had {
			ev.vars[iter] = old
		} else {
			delete(ev.vars, iter)
		}
	}()
	evalBody := func(item any) (any, error) {
		ev.setVar(iter, item)
		if n.Iter == "" {
			// Implicit iterator: body navigations start from the item via
			// "self"-like shadowing. OCL's real rule rewrites bare property
			// names; we approximate by also binding "self" when unbound.
			if _, selfBound := ev.vars["self"]; !selfBound {
				ev.setVar("self", item)
				defer delete(ev.vars, "self")
			}
		}
		return ev.eval(n.Body)
	}
	return runIterator(n.Name, coll, evalBody)
}

// runIterator executes one of the nine iterator operations over a
// collection, with the item binding abstracted behind evalBody. Both the
// tree-walking interpreter and compiled Programs funnel through this one
// implementation, so the two evaluation modes cannot drift apart.
func runIterator(name string, coll []any, evalBody func(item any) (any, error)) (any, error) {
	boolBody := func(item any) (bool, error) {
		v, err := evalBody(item)
		if err != nil {
			return false, err
		}
		b, ok := v.(bool)
		if !ok {
			return false, fmt.Errorf("ocl: %s body must be Boolean, got %s", name, typeName(v))
		}
		return b, nil
	}
	switch name {
	case "select", "reject":
		var out []any
		for _, item := range coll {
			b, err := boolBody(item)
			if err != nil {
				return nil, err
			}
			if b == (name == "select") {
				out = append(out, item)
			}
		}
		return out, nil
	case "forAll":
		for _, item := range coll {
			b, err := boolBody(item)
			if err != nil {
				return nil, err
			}
			if !b {
				return false, nil
			}
		}
		return true, nil
	case "exists":
		for _, item := range coll {
			b, err := boolBody(item)
			if err != nil {
				return nil, err
			}
			if b {
				return true, nil
			}
		}
		return false, nil
	case "one":
		cnt := 0
		for _, item := range coll {
			b, err := boolBody(item)
			if err != nil {
				return nil, err
			}
			if b {
				cnt++
			}
		}
		return cnt == 1, nil
	case "any":
		for _, item := range coll {
			b, err := boolBody(item)
			if err != nil {
				return nil, err
			}
			if b {
				return item, nil
			}
		}
		return nil, nil
	case "collect":
		var out []any
		for _, item := range coll {
			v, err := evalBody(item)
			if err != nil {
				return nil, err
			}
			if inner, ok := v.([]any); ok {
				out = append(out, inner...)
			} else if v != nil {
				out = append(out, v)
			}
		}
		return out, nil
	case "isUnique":
		var seen []any
		for _, item := range coll {
			v, err := evalBody(item)
			if err != nil {
				return nil, err
			}
			for _, w := range seen {
				if oclEqual(v, w) {
					return false, nil
				}
			}
			seen = append(seen, v)
		}
		return true, nil
	case "sortedBy":
		type pair struct {
			item any
			key  any
		}
		pairs := make([]pair, 0, len(coll))
		for _, item := range coll {
			v, err := evalBody(item)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, pair{item, v})
		}
		var sortErr error
		sort.SliceStable(pairs, func(i, j int) bool {
			less, err := oclLess(pairs[i].key, pairs[j].key)
			if err != nil && sortErr == nil {
				sortErr = err
			}
			return less
		})
		if sortErr != nil {
			return nil, sortErr
		}
		out := make([]any, len(pairs))
		for i, p := range pairs {
			out[i] = p.item
		}
		return out, nil
	}
	return nil, fmt.Errorf("ocl: unknown iterator %q", name)
}

// evalUnary applies "not" or unary "-" to an evaluated operand.
func evalUnary(op string, v any) (any, error) {
	switch op {
	case "not":
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("ocl: 'not' needs Boolean, got %s", typeName(v))
		}
		return !b, nil
	case "-":
		switch t := v.(type) {
		case int64:
			return -t, nil
		case float64:
			return -t, nil
		}
		return nil, fmt.Errorf("ocl: unary '-' needs a number, got %s", typeName(v))
	}
	return nil, fmt.Errorf("ocl: unknown unary operator %q", op)
}

func (ev *evaluator) binary(n *BinExpr) (any, error) {
	// Short-circuit booleans first.
	switch n.Op {
	case "and", "or", "implies":
		l, err := ev.eval(n.L)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(bool)
		if !ok {
			return nil, fmt.Errorf("ocl: %q needs Boolean operands, got %s", n.Op, typeName(l))
		}
		switch n.Op {
		case "and":
			if !lb {
				return false, nil
			}
		case "or":
			if lb {
				return true, nil
			}
		case "implies":
			if !lb {
				return true, nil
			}
		}
		r, err := ev.eval(n.R)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, fmt.Errorf("ocl: %q needs Boolean operands, got %s", n.Op, typeName(r))
		}
		return rb, nil
	}
	l, err := ev.eval(n.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(n.R)
	if err != nil {
		return nil, err
	}
	return evalStrictBinary(n.Op, l, r)
}

// evalStrictBinary applies a non-short-circuiting binary operator to two
// evaluated operands.
func evalStrictBinary(op string, l, r any) (any, error) {
	switch op {
	case "xor":
		lb, lok := l.(bool)
		rb, rok := r.(bool)
		if !lok || !rok {
			return nil, fmt.Errorf("ocl: 'xor' needs Boolean operands")
		}
		return lb != rb, nil
	case "=":
		return oclEqual(l, r), nil
	case "<>":
		return !oclEqual(l, r), nil
	case "<", "<=", ">", ">=":
		return oclCompare(op, l, r)
	case "+", "-", "*", "/", "mod", "div":
		return oclArith(op, l, r)
	}
	return nil, fmt.Errorf("ocl: unknown operator %q", op)
}

// asCollection wraps scalars into singleton collections, per OCL's implicit
// conversion for arrow calls on single objects; null becomes the empty
// collection.
func asCollection(v any) []any {
	switch t := v.(type) {
	case nil:
		return nil
	case []any:
		return t
	default:
		return []any{v}
	}
}

// oclEqual implements OCL value equality; objects compare by identity.
func oclEqual(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case *metamodel.Object:
		y, ok := b.(*metamodel.Object)
		return ok && x == y
	case metamodel.EnumLit:
		y, ok := b.(metamodel.EnumLit)
		return ok && x.Enum == y.Enum && x.Literal == y.Literal
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !oclEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case int64:
		if y, ok := b.(float64); ok {
			return float64(x) == y
		}
	case float64:
		if y, ok := b.(int64); ok {
			return x == float64(y)
		}
	}
	return a == b
}

func numOf(v any) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case float64:
		return t, true
	}
	return 0, false
}

func oclLess(a, b any) (bool, error) {
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return as < bs, nil
		}
	}
	an, aok := numOf(a)
	bn, bok := numOf(b)
	if aok && bok {
		return an < bn, nil
	}
	return false, fmt.Errorf("ocl: cannot order %s and %s", typeName(a), typeName(b))
}

func oclCompare(op string, l, r any) (any, error) {
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			switch op {
			case "<":
				return ls < rs, nil
			case "<=":
				return ls <= rs, nil
			case ">":
				return ls > rs, nil
			case ">=":
				return ls >= rs, nil
			}
		}
	}
	ln, lok := numOf(l)
	rn, rok := numOf(r)
	if !lok || !rok {
		return nil, fmt.Errorf("ocl: %q needs two numbers or two strings, got %s and %s",
			op, typeName(l), typeName(r))
	}
	switch op {
	case "<":
		return ln < rn, nil
	case "<=":
		return ln <= rn, nil
	case ">":
		return ln > rn, nil
	case ">=":
		return ln >= rn, nil
	}
	return nil, fmt.Errorf("ocl: unknown comparison %q", op)
}

func oclArith(op string, l, r any) (any, error) {
	// String concatenation via '+', a common OCL dialect convenience.
	if op == "+" {
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		}
	}
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("ocl: division by zero")
			}
			// OCL '/' yields a Real even on integers.
			return float64(li) / float64(ri), nil
		case "mod":
			if ri == 0 {
				return nil, fmt.Errorf("ocl: mod by zero")
			}
			return li % ri, nil
		case "div":
			if ri == 0 {
				return nil, fmt.Errorf("ocl: div by zero")
			}
			return li / ri, nil
		}
	}
	ln, lok := numOf(l)
	rn, rok := numOf(r)
	if !lok || !rok {
		return nil, fmt.Errorf("ocl: %q needs numeric operands, got %s and %s",
			op, typeName(l), typeName(r))
	}
	switch op {
	case "+":
		return ln + rn, nil
	case "-":
		return ln - rn, nil
	case "*":
		return ln * rn, nil
	case "/":
		if rn == 0 {
			return nil, fmt.Errorf("ocl: division by zero")
		}
		return ln / rn, nil
	case "mod", "div":
		return nil, fmt.Errorf("ocl: %q needs Integer operands", op)
	}
	return nil, fmt.Errorf("ocl: unknown arithmetic %q", op)
}

// typeName names a native value's OCL type for error messages.
func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "OclVoid"
	case bool:
		return "Boolean"
	case int64:
		return "Integer"
	case float64:
		return "Real"
	case string:
		return "String"
	case *metamodel.Object:
		return "Object"
	case metamodel.EnumLit:
		return "EnumLiteral"
	case []any:
		return "Collection"
	case typeRef:
		return "Type"
	default:
		return fmt.Sprintf("%T", v)
	}
}
