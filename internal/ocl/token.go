// Package ocl implements a small OCL 2.x expression language: enough of the
// standard to express and machine-check the well-formedness constraints of
// the WebRE and DQ_WebRE metamodels (paper Table 3), evaluated reflectively
// over metamodel.Object graphs.
//
// Supported constructs: boolean/integer/real/string literals, self and let
// variables, property navigation with implicit collect over collections,
// arrow operations (size, isEmpty, notEmpty, includes, excludes, count,
// first, sum, asSet, select, reject, collect, forAll, exists, any, one),
// comparison and arithmetic operators, and/or/xor/implies/not,
// if-then-else-endif, let-in, Type.allInstances(), oclIsKindOf/oclIsTypeOf,
// enumeration literals (Enum::Literal) and — as an extension for profile
// models — hasStereotype('Name') and taggedValue('Name').
//
// Two evaluators share these semantics. Eval walks the AST directly and is
// the reference implementation — the oracle: its behavior, including exact
// error text, defines the language. Compile lowers the AST to Go closures
// with slot-indexed variable frames and pooled frames for the hot paths;
// compiled Programs must agree with Eval on every input, value or error, a
// contract enforced by the differential tests and the FuzzParse harness.
// CompileString adds a process-wide cache so every consumer of the same
// (source, variables) pair shares one compiled Program.
package ocl

import "fmt"

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokReal
	tokString
	tokArrow   // ->
	tokDot     // .
	tokDColon  // ::
	tokLParen  // (
	tokRParen  // )
	tokBar     // |
	tokComma   // ,
	tokEq      // =
	tokNe      // <>
	tokLt      // <
	tokLe      // <=
	tokGt      // >
	tokGe      // >=
	tokPlus    // +
	tokMinus   // -
	tokStar    // *
	tokSlash   // /
	tokKwAnd   // and
	tokKwOr    // or
	tokKwXor   // xor
	tokKwNot   // not
	tokKwImpl  // implies
	tokKwIf    // if
	tokKwThen  // then
	tokKwElse  // else
	tokKwEndif // endif
	tokKwLet   // let
	tokKwIn    // in
	tokKwTrue  // true
	tokKwFalse // false
	tokKwNull  // null
	tokKwSelf  // self
	tokKwMod   // mod
	tokKwDiv   // div
	tokLBrace  // {
	tokRBrace  // }
)

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of expression"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords maps reserved words to their token kinds.
var keywords = map[string]tokKind{
	"and":     tokKwAnd,
	"or":      tokKwOr,
	"xor":     tokKwXor,
	"not":     tokKwNot,
	"implies": tokKwImpl,
	"if":      tokKwIf,
	"then":    tokKwThen,
	"else":    tokKwElse,
	"endif":   tokKwEndif,
	"let":     tokKwLet,
	"in":      tokKwIn,
	"true":    tokKwTrue,
	"false":   tokKwFalse,
	"null":    tokKwNull,
	"self":    tokKwSelf,
	"mod":     tokKwMod,
	"div":     tokKwDiv,
}

// Error is a lexing, parsing or evaluation error with a byte position into
// the source expression.
type Error struct {
	// Pos is the byte offset into the expression, or -1 when unknown.
	Pos int
	// Msg describes the problem.
	Msg string
	// Expr is the offending source expression.
	Expr string
}

// Error renders the message with a position marker.
func (e *Error) Error() string {
	if e.Pos < 0 {
		return fmt.Sprintf("ocl: %s", e.Msg)
	}
	return fmt.Sprintf("ocl: %s at offset %d in %q", e.Msg, e.Pos, e.Expr)
}

func errAt(expr string, pos int, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), Expr: expr}
}
