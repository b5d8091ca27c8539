package query

import (
	"encoding/binary"
	"slices"

	"scdb/internal/model"
)

// A statement's shape is its token stream with each lifted literal cut out:
// a string or number that is a whole comparison operand, col OP literal.
// Texts that differ only in those literals, in whitespace, comments or
// keyword case share one shape, so they share one plan: nothing the
// optimizer reads by value is ever lifted (a folded constant, a call's
// argument, LIMIT, LIKE, IN, UNDER FUZZY, a negated number, NULL, TRUE,
// FALSE), and a statement that renders its plan (EXPLAIN, TRACE) lifts
// nothing, so its plan text stays its own.

// renders reports whether the statement renders its plan: it begins with
// EXPLAIN or TRACE.
func renders(toks []token) bool {
	t := toks[0]
	return t.kind == tokKeyword && (t.text == "EXPLAIN" || t.text == "TRACE")
}

// liftedValue returns the value of toks[i] when it is a lifted literal: a
// string or number following a comparison operator that follows a name
// (plain, quoted or the column of a qualified one), with no arithmetic
// operator after it. toks ends with its EOF token.
func liftedValue(toks []token, i int) (model.Value, bool) {
	if t := toks[i]; i < 2 || t.kind != tokNumber && t.kind != tokString ||
		!isOp(toks[i-1], "=", "!=", "<", "<=", ">", ">=") || // the lexer spells <> as !=
		toks[i-2].kind != tokIdent && toks[i-2].kind != tokQuoted ||
		isOp(toks[i+1], "+", "-", "*", "/") {
		return model.Value{}, false
	}
	v, _, err := tokenValue(toks[i])
	return v, err == nil
}

// isOp reports whether t is one of the operators ops.
func isOp(t token, ops ...string) bool {
	return t.kind == tokOp && slices.Contains(ops, t.text)
}

// AppendShape lexes src once, appends its shape to dst and the values of
// its lifted literals, in slot order, to args. A lexical error is Parse's.
// ParseShape(src) plans the shape: its Params bound to args, it is
// Parse(src). A token is written as its kind and its length-prefixed text,
// a lifted literal as one byte above every token kind, tagged with its
// value's kind (string, int or float).
func AppendShape(dst []byte, args []model.Value, src string) ([]byte, []model.Value, error) {
	var buf [64]token
	toks, err := lexAppend(buf[:0], src)
	if err != nil {
		return dst, args, err
	}
	lift := !renders(toks)
	for i, t := range toks[:len(toks)-1] {
		if lift {
			if v, ok := liftedValue(toks, i); ok {
				dst = append(dst, 0x80|byte(v.Kind()))
				args = append(args, v)
				continue
			}
		}
		dst = append(dst, byte(t.kind))
		dst = binary.AppendUvarint(dst, uint64(len(t.text)))
		dst = append(dst, t.text...)
	}
	return dst, args, nil
}

// ParseShape parses src as Parse does, with each lifted literal a Param of
// the slot AppendShape gives its value.
func ParseShape(src string) (*SelectStmt, error) { return parse(src, true) }
