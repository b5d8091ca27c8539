package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// refLex is the rune-slice lexer lex replaced, kept as its oracle: it
// converts the whole source to runes and builds every token text afresh.
func refLex(src string) ([]token, error) {
	var toks []token
	runes := []rune(src)
	i := 0
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '-' && i+1 < len(runes) && runes[i+1] == '-':
			for i < len(runes) && runes[i] != '\n' {
				i++
			}
		case unicode.IsLetter(r) || r == '_':
			start := i
			for i < len(runes) && (unicode.IsLetter(runes[i]) || unicode.IsDigit(runes[i]) || runes[i] == '_') {
				i++
			}
			word := string(runes[start:i])
			up := strings.ToUpper(word)
			if keywords[up] != "" {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case unicode.IsDigit(r) || (r == '.' && i+1 < len(runes) && unicode.IsDigit(runes[i+1])):
			start := i
			seenDot := false
			for i < len(runes) && (unicode.IsDigit(runes[i]) || (runes[i] == '.' && !seenDot)) {
				if runes[i] == '.' {
					if i+1 >= len(runes) || !unicode.IsDigit(runes[i+1]) {
						break
					}
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, string(runes[start:i]), start})
		case r == '\'':
			i++
			var sb strings.Builder
			closed := false
			for i < len(runes) {
				if runes[i] == '\'' {
					if i+1 < len(runes) && runes[i+1] == '\'' {
						sb.WriteRune('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteRune(runes[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("query: unterminated string literal at %d", i)
			}
			toks = append(toks, token{tokString, sb.String(), i})
		case r == '"':
			i++
			start := i
			for i < len(runes) && runes[i] != '"' {
				i++
			}
			if i >= len(runes) {
				return nil, fmt.Errorf("query: unterminated quoted identifier at %d", start)
			}
			toks = append(toks, token{tokQuoted, string(runes[start:i]), start})
			i++
		case strings.ContainsRune("=+-*/(),.", r):
			toks = append(toks, token{tokOp, string(r), i})
			i++
		case r == '!' || r == '<' || r == '>':
			start := i
			i++
			if i < len(runes) && runes[i] == '=' {
				i++
			}
			op := string(runes[start:i])
			if op == "!" {
				return nil, fmt.Errorf("query: unexpected '!' at %d (use !=)", start)
			}
			if op == "<" && i < len(runes) && runes[i] == '>' {
				op = "!="
				i++
			}
			toks = append(toks, token{tokOp, op, start})
		default:
			return nil, fmt.Errorf("query: unexpected character %q at %d", r, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(runes)})
	return toks, nil
}

// lexCases are inputs whose tokens, positions or errors a byte-wise lexer
// could get wrong: non-ASCII letters and digits before and inside words,
// keywords that only Unicode case mapping spells (ſ, ı), comments, quote
// escapes, invalid UTF-8 and every unterminated form.
var lexCases = []string{
	"SELECT * FROM t",
	"select Name, gène AS g FROM tàble WHERE x >= 1.5 AND y <> 'a''b' OR z != .5",
	"SELECT a FROM t -- comment with ünïcode\nWHERE b = 1",
	"SELECT a FROM t -- comment to the end",
	"ſelect a from t",
	"SELECT a FROM t WHERE a lıke 'x%'",
	"SELECT ſemanticſ FROM t WITH SEMANTİCS",
	"SELECT 名前, x٣ FROM データ WHERE n = ٣٤.٥",
	"SELECT 'naïve ''quoted'' text' FROM t",
	"SELECT 'unterminated FROM t",
	"SELECT 'ends in escape''",
	"SELECT \"quoted näme\" FROM \"ta ble\"",
	"SELECT \"unterminated FROM t",
	"SELECT a FROM t WHERE a ! b",
	"SELECT a FROM t WHERE a <> b AND c <= d AND e >= f AND g < h AND i > j",
	"SELECT 1.2.3, t.a, 3.x, .x FROM t",
	"SELECT a FROM t WHERE b = 'é' -- trailing ü",
	"SELECT # FROM t",
	"SELECT ü# FROM t",
	"\x00\xff garbage",
	"SELECT '\xff\xfe' FROM \"\xc3\"",
	"SELECT a FROM t",
	"SELECT ǅungla, ǈ FROM t",
	"SELECT COUNT(*) FROM t UNDER FUZZY(0.5)",
	"",
	"   ",
	"'",
	"\"",
	"--",
	"-",
}

func checkLex(t *testing.T, src string) {
	t.Helper()
	got, gerr := lex(src)
	want, werr := refLex(src)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("lex(%q) error = %v, reference %v", src, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lex(%q) =\n%v\nreference\n%v", src, got, want)
	}
}

// TestLexMatchesReference: the byte-wise lexer yields the rune-slice
// lexer's tokens, texts, rune positions and errors.
func TestLexMatchesReference(t *testing.T) {
	for _, src := range lexCases {
		checkLex(t, src)
	}
}

// FuzzLex: lex and refLex agree on any input. Runs its seeds under plain
// `go test`; `go test -fuzz=FuzzLex` explores further.
func FuzzLex(f *testing.F) {
	for _, src := range lexCases {
		f.Add(src)
	}
	f.Fuzz(checkLex)
}

// TestKeywordCheckAllocatesNothing: an ASCII word is matched against the
// keywords on the stack, whatever its case.
func TestKeywordCheckAllocatesNothing(t *testing.T) {
	words := []string{"select", "SeLeCt", "semantics", "region", "a_very_long_identifier"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			keywordOf(w)
		}
	})
	if allocs != 0 {
		t.Errorf("keywordOf allocates %.0f objects per run of %d ASCII words", allocs, len(words))
	}
	if kw, ok := keywordOf("ſelect"); !ok || kw != "SELECT" {
		t.Errorf(`keywordOf("ſelect") = %q, %v; want SELECT`, kw, ok)
	}
}
