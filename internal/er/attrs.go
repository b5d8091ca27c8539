package er

import (
	"cmp"
	"encoding/json"
	"slices"
	"unicode/utf8"
)

// AttrText is one attribute of an indexed entity: its name and its
// normalized text.
type AttrText struct {
	Name string
	Text string
}

// Attrs is what the resolver keeps of an entity's attributes: the normalized
// text of each attribute that has any, sorted by name, names unique. It is
// a slice, not a map, because an entity has a handful of attributes and the
// resolver holds one set per entity it has ever indexed. Its JSON is the
// object a map[string]string marshals to, byte for byte, so a digest reads
// the same on the wire as it always has.
type Attrs []AttrText

// sortAttrs sorts a by name; the names must already be unique.
func sortAttrs(a Attrs) {
	slices.SortFunc(a, func(x, y AttrText) int { return cmp.Compare(x.Name, y.Name) })
}

// MarshalJSON writes the object encoding/json writes for the equivalent
// map: keys in byte order, strings escaped as it escapes them.
func (a Attrs) MarshalJSON() ([]byte, error) {
	if a == nil {
		return []byte("null"), nil
	}
	size := 2
	for _, at := range a {
		size += len(at.Name) + len(at.Text) + 6
	}
	buf := append(make([]byte, 0, size), '{')
	for i, at := range a {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, at.Name)
		buf = append(buf, ':')
		buf = appendJSONString(buf, at.Text)
	}
	return append(buf, '}'), nil
}

// appendJSONString appends s as a JSON string. A string that encoding/json
// copies verbatim — valid UTF-8 without control characters, quotes,
// backslashes, the HTML-sensitive <, > and &, or the two JavaScript line
// separators — is copied here too; any other goes through encoding/json,
// which decides how to escape it.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c < ' ' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return appendEscaped(dst, s)
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			return appendEscaped(dst, s)
		}
		i += n
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendEscaped(dst []byte, s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return append(dst, b...)
}

// UnmarshalJSON reads an object of strings the way a map[string]string
// reads it, then sorts it by name.
func (a *Attrs) UnmarshalJSON(b []byte) error {
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	if m == nil {
		*a = nil
		return nil
	}
	out := make(Attrs, 0, len(m))
	for name, text := range m {
		out = append(out, AttrText{Name: name, Text: text})
	}
	sortAttrs(out)
	*a = out
	return nil
}
