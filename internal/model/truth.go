package model

import "fmt"

// Truth is Codd's three-valued logic, the foundation for the paper's
// "systematic treatment of null values" rule: any predicate over a null
// evaluates to Unknown, and Unknown propagates through boolean connectives
// by the Kleene truth tables.
type Truth int8

// The three truth values. The numeric encoding (False < Unknown < True)
// makes And = min and Or = max, mirroring the Kleene semantics.
const (
	False   Truth = 0
	Unknown Truth = 1
	True    Truth = 2
)

// TruthOf lifts a Go bool into a Truth.
func TruthOf(b bool) Truth {
	if b {
		return True
	}
	return False
}

// And is three-valued conjunction (Kleene): min of the operands.
func (t Truth) And(o Truth) Truth {
	if t < o {
		return t
	}
	return o
}

// Or is three-valued disjunction (Kleene): max of the operands.
func (t Truth) Or(o Truth) Truth {
	if t > o {
		return t
	}
	return o
}

// Not is three-valued negation: Unknown stays Unknown.
func (t Truth) Not() Truth { return 2 - t }

// Bool collapses Truth to bool under the usual query semantics: only True
// selects a tuple (Unknown behaves like False in a WHERE clause).
func (t Truth) Bool() bool { return t == True }

// String renders the truth value.
func (t Truth) String() string {
	switch t {
	case False:
		return "false"
	case Unknown:
		return "unknown"
	case True:
		return "true"
	}
	return fmt.Sprintf("truth(%d)", int8(t))
}

// Fuzzy is a fuzzy-logic truth degree in [0,1]. The paper motivates fuzzy
// truth for "soft" sources ("a sudden stomach bleed was attributed to the
// recent intake of Ibuprofen") and for the notion of a dosage being "close"
// to an effective dose given a narrow therapeutic range (Section 4.2).
type Fuzzy float64

// Clamp forces f into [0,1].
func (f Fuzzy) Clamp() Fuzzy {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// And is the Gödel t-norm (minimum), the standard conjunction for fuzzy
// degrees that must remain idempotent.
func (f Fuzzy) And(o Fuzzy) Fuzzy {
	if f < o {
		return f
	}
	return o
}

// Or is the Gödel s-norm (maximum).
func (f Fuzzy) Or(o Fuzzy) Fuzzy {
	if f > o {
		return f
	}
	return o
}

// Not is the standard fuzzy negation 1-f.
func (f Fuzzy) Not() Fuzzy { return 1 - f }

// AtLeast reports whether the degree clears threshold t; it is how fuzzy
// answers are collapsed to crisp answers ("UNDER FUZZY(t)" in SCQL).
func (f Fuzzy) AtLeast(t float64) bool { return float64(f) >= t }

// Truth collapses a fuzzy degree to three-valued logic using the common
// (0, 1) cut: exactly 0 is False, exactly 1 is True, anything between is
// Unknown.
func (f Fuzzy) Truth() Truth {
	switch {
	case f <= 0:
		return False
	case f >= 1:
		return True
	}
	return Unknown
}

// Closeness returns the fuzzy degree to which got is "close" to want given
// a tolerance band: 1 at got==want, decaying linearly to 0 at |got-want| >=
// tol. It operationalizes the paper's fuzzy reading of "close to 5.0 mg"
// for a drug with a narrow therapeutic range.
func Closeness(got, want, tol float64) Fuzzy {
	if tol <= 0 {
		if got == want {
			return 1
		}
		return 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	if d >= tol {
		return 0
	}
	return Fuzzy(1 - d/tol)
}
