package query

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokOp     // = != < <= > >= + - * / ( ) , .
	tokQuoted // "double quoted identifier"
)

// keywords maps each keyword, recognized case-insensitively, to its
// canonical upper-case spelling.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "JOIN", "ON", "AS", "AND", "OR", "NOT",
		"GROUP", "BY", "ORDER", "LIMIT", "ASC", "DESC", "IS", "NULL", "IN",
		"LIKE", "WITH", "DISTINCT", "HAVING", "EXPLAIN", "ANALYZE", "TRACE",
		"SEMANTICS", "UNDER", "CERTAIN", "FUZZY", "TRUE", "FALSE",
	} {
		m[k] = k
	}
	return m
}()

// maxKeywordLen is the byte length of the longest keyword, SEMANTICS.
const maxKeywordLen = 9

// keywordOf returns word's keyword in canonical spelling. An ASCII word is
// upper-cased on the stack; a word with a non-ASCII byte goes through
// strings.ToUpper, because Unicode case mapping takes some non-ASCII letters
// to ASCII ones (ſ to S, ı to I).
func keywordOf(word string) (string, bool) {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			kw, ok := keywords[strings.ToUpper(word)]
			return kw, ok
		}
	}
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

type token struct {
	kind tokKind
	text string // keywords upper-cased; strings unquoted
	pos  int    // offset in runes
}

// runeAt decodes the rune at byte offset i of s.
func runeAt(s string, i int) (rune, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}

// runeText is s with each byte of invalid UTF-8 read as U+FFFD, the text a
// rune-by-rune reading of s yields; valid text is returned as it is.
func runeText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// lex tokenizes the input. It returns a descriptive error on malformed
// input (unterminated string, unexpected rune). Token texts are substrings
// of src except for keywords (their canonical spelling), string literals
// holding a doubled quote, and literals or quoted names holding invalid
// UTF-8. Positions count runes, not bytes.
func lex(src string) ([]token, error) { return lexAppend(make([]token, 0, len(src)/4+2), src) }

// lexAppend is lex appending to toks, so a caller may lex into a buffer of
// its own.
func lexAppend(toks []token, src string) ([]token, error) {
	i, pos := 0, 0 // byte and rune offsets of the same point
	for i < len(src) {
		r, w := runeAt(src, i)
		switch {
		case unicode.IsSpace(r):
			i += w
			pos++
		case r == '-' && i+1 < len(src) && src[i+1] == '-':
			// SQL line comment: skip to end of line.
			end := strings.IndexByte(src[i:], '\n')
			if end < 0 {
				end = len(src) - i
			}
			pos += utf8.RuneCountInString(src[i : i+end])
			i += end
		case unicode.IsLetter(r) || r == '_':
			start, startPos := i, pos
			for i < len(src) {
				r, w := runeAt(src, i)
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
					break
				}
				i += w
				pos++
			}
			word := src[start:i]
			if kw, ok := keywordOf(word); ok {
				toks = append(toks, token{tokKeyword, kw, startPos})
			} else {
				toks = append(toks, token{tokIdent, word, startPos})
			}
		case unicode.IsDigit(r) || (r == '.' && i+1 < len(src) && digitAt(src, i+1)):
			start, startPos := i, pos
			seenDot := false
			for i < len(src) {
				r, w := runeAt(src, i)
				if r == '.' && !seenDot {
					// A dot not followed by a digit is a qualifier, not a
					// decimal point.
					if i+1 >= len(src) || !digitAt(src, i+1) {
						break
					}
					seenDot = true
				} else if !unicode.IsDigit(r) {
					break
				}
				i += w
				pos++
			}
			toks = append(toks, token{tokNumber, src[start:i], startPos})
		case r == '\'':
			i++
			pos++
			start, escaped, closed := i, false, false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' { // escaped ''
						escaped = true
						i += 2
						pos += 2
						continue
					}
					closed = true
					break
				}
				_, w := runeAt(src, i)
				i += w
				pos++
			}
			if !closed {
				return nil, fmt.Errorf("query: unterminated string literal at %d", pos)
			}
			text := src[start:i]
			i++
			pos++
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{tokString, runeText(text), pos})
		case r == '"':
			i++
			pos++
			end := strings.IndexByte(src[i:], '"')
			if end < 0 {
				return nil, fmt.Errorf("query: unterminated quoted identifier at %d", pos)
			}
			text := src[i : i+end]
			toks = append(toks, token{tokQuoted, runeText(text), pos})
			pos += utf8.RuneCountInString(text) + 1
			i += end + 1
		case strings.ContainsRune("=+-*/(),.", r):
			toks = append(toks, token{tokOp, src[i : i+1], pos})
			i++
			pos++
		case r == '!' || r == '<' || r == '>':
			start := i
			i++
			if i < len(src) && src[i] == '=' {
				i++
			}
			op := src[start:i]
			if op == "!" {
				return nil, fmt.Errorf("query: unexpected '!' at %d (use !=)", pos)
			}
			if op == "<" && i < len(src) && src[i] == '>' {
				op = "!="
				i++
			}
			toks = append(toks, token{tokOp, op, pos})
			pos += i - start
		default:
			return nil, fmt.Errorf("query: unexpected character %q at %d", r, pos)
		}
	}
	toks = append(toks, token{tokEOF, "", pos})
	return toks, nil
}

// digitAt reports whether the rune at byte offset i of s is a digit.
func digitAt(s string, i int) bool {
	r, _ := runeAt(s, i)
	return unicode.IsDigit(r)
}
