package er

// The textbook forms of the similarity measures: the quadratic
// dynamic-programming edit distance, Jaccard over string sets, one string
// per trigram, and StringSim composed from them exactly as it was before
// the scoring kernel replaced them. Beside them, the textbook index: each
// value normalized through strings.ToLower and a Builder, split by
// strings.Fields, and derived into slices of its own. Nothing outside the
// tests runs them; they are what TestKernelEqualsTextbook, FuzzKernel,
// TestIndexMatchesReference and FuzzNormalize hold the kernel and the
// index to.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"scdb/internal/model"
)

// textbookNormalize is Normalize as it was written before appendNormal.
func textbookNormalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := true
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
			lastSpace = false
		} else if !lastSpace {
			b.WriteByte(' ')
			lastSpace = true
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// textbookSet returns the distinct members of xs, sorted, in a slice of
// their own.
func textbookSet(xs []string) []string {
	set := map[string]bool{}
	for _, x := range xs {
		set[x] = true
	}
	out := make([]string, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

// textbookVal derives one value as attrVal holds it. Its trigrams are
// 63-bit keys, 21 bits a rune, packed as attrVal packs them: those of three
// runes below U+0400 in 30 bits, first, and every other as its key's high
// and low words.
func textbookVal(text string) attrVal {
	v := attrVal{text: text, runes: int32(len([]rune(text))), tokens: textbookSet(strings.Fields(text))}
	for _, t := range v.tokens {
		if strings.ContainsAny(t, "0123456789") {
			v.digits = append(v.digits, t)
		}
	}
	set := map[uint64]bool{}
	for _, tri := range textbookTrigrams(text) {
		r := []rune(tri)
		set[uint64(r[0])<<42|uint64(r[1])<<21|uint64(r[2])] = true
	}
	var keys []uint64
	for w := range set {
		keys = append(keys, w)
	}
	slices.Sort(keys)
	narrow := func(w uint64) bool { return w>>42 < 0x400 && w>>21&0x1fffff < 0x400 && w&0x1fffff < 0x400 }
	for _, w := range keys {
		if narrow(w) {
			v.tris = append(v.tris, uint32(w>>42)<<20|uint32(w>>21&0x1fffff)<<10|uint32(w&0x1fffff))
			v.narrow++
		}
	}
	for _, w := range keys {
		if !narrow(w) {
			v.tris = append(v.tris, uint32(w>>32), uint32(w))
		}
	}
	return v
}

// trigramKeys decodes a value's packed trigram set back to 63-bit keys, in
// the order it holds them: the narrow ones, then the wide ones.
func trigramKeys(v *attrVal) []uint64 {
	var keys []uint64
	for _, k := range v.tris[:v.narrow] {
		keys = append(keys, uint64(k>>20)<<42|uint64(k>>10&0x3ff)<<21|uint64(k&0x3ff))
	}
	for i := int(v.narrow); i+1 < len(v.tris); i += 2 {
		keys = append(keys, uint64(v.tris[i])<<32|uint64(v.tris[i+1]))
	}
	return keys
}

// textbookIndex is index as the textbook derives it. withTokens is false
// for a digest, which brings its own token set.
func textbookIndex(attrs Attrs, tokens []string, withTokens bool) indexed {
	ix := indexed{attrs: attrs, tokens: tokens}
	var all []string
	for _, at := range attrs {
		all = append(all, strings.Fields(at.Text)...)
		if len(at.Text) >= minIdentifyingLen {
			ix.vals = append(ix.vals, textbookVal(at.Text))
		}
	}
	if withTokens && len(all) > 0 {
		ix.tokens = textbookSet(all)
	}
	return ix
}

// textbookDigest is what an exchange keeps of a digest: the textbook index
// of its texts, whose token set is the one a resolver exports with them
// (Digest.Tokens), and no attrs.
func textbookDigest(d Digest) indexed {
	ix := textbookIndex(d.Attrs, d.Tokens, false)
	ix.attrs = nil
	return ix
}

// textbookAttrs normalizes an entity's attributes one value at a time.
func textbookAttrs(e *model.Entity) Attrs {
	var attrs Attrs
	for k, v := range e.Attrs {
		if t := textbookNormalize(v.Text()); !v.IsNull() && t != "" {
			attrs = append(attrs, AttrText{Name: k, Text: t})
		}
	}
	slices.SortFunc(attrs, func(x, y AttrText) int { return strings.Compare(x.Name, y.Name) })
	return attrs
}

// sameIndex reports how got differs from want, or "" when the attributes,
// the token set and every value's text, rune count, tokens, digits and
// trigrams are equal, the trigrams compared as 63-bit keys decoded from the
// packed set.
func sameIndex(got, want *indexed) string {
	switch {
	case !slices.Equal(got.attrs, want.attrs):
		return fmt.Sprintf("attrs %q, want %q", got.attrs, want.attrs)
	case !slices.Equal(got.tokens, want.tokens):
		return fmt.Sprintf("tokens %q, want %q", got.tokens, want.tokens)
	case len(got.vals) != len(want.vals):
		return fmt.Sprintf("%d vals, want %d", len(got.vals), len(want.vals))
	}
	for i := range got.vals {
		g, w := &got.vals[i], &want.vals[i]
		if g.text != w.text || g.runes != w.runes || !slices.Equal(g.tokens, w.tokens) ||
			!slices.Equal(g.digits, w.digits) || g.narrow != w.narrow || len(g.tris) != len(w.tris) ||
			!slices.Equal(trigramKeys(g), trigramKeys(w)) {
			return fmt.Sprintf("val %d = %+v with trigrams %x, want %+v with %x", i, *g, trigramKeys(g), *w, trigramKeys(w))
		}
	}
	return ""
}

// indexAlphabet is what TestIndexMatchesReference's values are drawn from:
// ASCII of both cases, digits and punctuation, multi-byte and astral-plane
// letters, upper-case letters whose lower case changes length (İ, ẞ, Ⱥ),
// space runes strings.Fields splits on, and bytes of invalid UTF-8.
var indexAlphabet = []string{
	"a", "b", "e", "s", "x", "Z", "Q", "0", "7", "9", " ", " ", "  ", "-", ".", ",", "'",
	"é", "ü", "Ω", "ж", "Ж", "日", "𐐨", "𝐁", "İ", "ẞ", "Ⱥ", "K",
	"\t", "\u00a0", "\u0085", "\u2003", "\xff", "\xc3", "\xed\xa0\x80",
}

func randomText(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		b.WriteString(indexAlphabet[rng.Intn(len(indexAlphabet))])
	}
	return b.String()
}

// TestIndexMatchesReference holds the arenas to the textbook index: every
// entity a resolver indexes (through Prepare and Commit, so the pooled
// Prepared is in the loop) and every digest an exchange rebuilds equals what
// the textbook derives. A thousand of each are indexed before any is
// compared, so an arena one entity's slices share with another's, or an
// append that writes into a neighbour's range, shows as a mismatch. The
// digests' texts are raw, not normal forms, so they reach the field
// splitter with every space rune, and each digest's token set is the one a
// resolver exports with its texts, which the exchange derives again. Each entity is also indexed as its
// stored row, with _key and _types beside its attributes, by a resolver of
// its own, and must index exactly as without them.
func TestIndexMatchesReference(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(40))
	names := []string{"name", "city", "code", "alias", "note"}
	es := make([]*model.Entity, n)
	for i := range es {
		rec := model.Record{}
		for _, name := range names[:rng.Intn(len(names)+1)] {
			switch rng.Intn(8) {
			case 0:
				rec[name] = model.Null()
			case 1:
				rec[name] = model.Int(int64(rng.Intn(100000)))
			case 2:
				rec[name] = model.String("")
			case 3:
				rec[name] = model.String("--- ... ,")
			default:
				rec[name] = model.String(randomText(rng))
			}
		}
		es[i] = &model.Entity{ID: model.EntityID(i + 1), Key: fmt.Sprintf("k%d", i), Source: fmt.Sprintf("s%d", i%3), Attrs: rec}
	}
	r, rows := NewResolver(Config{}), NewResolver(Config{})
	for i, e := range es {
		r.Add(e)
		row := e.Attrs.Clone()
		row[model.KeyAttr] = model.String(e.Key)
		if i%2 == 0 {
			row[model.TypesAttr] = model.List(model.String("Drug"), model.String("Chemical"))
		}
		rows.Add(&model.Entity{ID: e.ID, Key: e.Key, Source: e.Source, Attrs: row})
	}
	x := NewExchange(BlockingToken, false)
	digests := make([]Digest, n)
	for i := range digests {
		d := Digest{Source: "d", Key: fmt.Sprintf("d%d", i)}
		for j, name := range names[:rng.Intn(len(names)+1)] {
			if text := randomText(rng); j%2 == 0 {
				d.Attrs = append(d.Attrs, AttrText{Name: name, Text: text})
			} else {
				d.Attrs = append(d.Attrs, AttrText{Name: name, Text: textbookNormalize(text)})
			}
		}
		d.Tokens = textbookIndex(d.Attrs, nil, true).tokens
		digests[i] = d
		x.AddBatch(i%3, DigestBatch{Digests: []Digest{d}})
	}

	for i, e := range es {
		want := textbookIndex(textbookAttrs(e), nil, true)
		if diff := sameIndex(&r.ents[i], &want); diff != "" {
			t.Fatalf("index(%v): %s", e.Attrs, diff)
		}
		if diff := sameIndex(&rows.ents[i], &want); diff != "" {
			t.Fatalf("index of %v's stored row: %s", e.Attrs, diff)
		}
	}
	for i, d := range digests {
		want := textbookDigest(d)
		if diff := sameIndex(&x.res.ents[i], &want); diff != "" {
			t.Fatalf("digestIndexed(%q): %s", d.Attrs, diff)
		}
	}
}

// FuzzNormalize holds appendNormal to the textbook Normalize, appending
// after bytes already in the buffer, and Normalize with it.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{"", " ", "Warfarin", "  Ibuprofen (Advil)  ", "İstanbul ẞtraße", "Ⱥb", "\xff\xc3", "a\u00a0b", "𐐨𝐁 7", "--", "A-B_C 0.5"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := textbookNormalize(s)
		if got := string(appendNormal([]byte("x "), s)); got != "x "+want {
			t.Errorf("appendNormal(%q) = %q, want %q", s, got[min(2, len(got)):], want)
		}
		if got := Normalize(s); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", s, got, want)
		}
		if !utf8.ValidString(want) {
			t.Errorf("normal form %q of %q is not valid UTF-8", want, s)
		}
	})
}

// textbookJaccard returns |A∩B| / |A∪B| over two token multisets (treated
// as sets). Two empty sets are identical (1); one empty set matches nothing.
func textbookJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	seen := make(map[string]bool, len(b))
	for _, t := range b {
		if seen[t] {
			continue
		}
		seen[t] = true
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(seen) - inter
	return float64(inter) / float64(union)
}

// textbookLevenshtein returns the edit distance between two strings (runes).
func textbookLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// textbookLevenshteinSim normalizes edit distance into a similarity in [0,1].
func textbookLevenshteinSim(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	maxLen := max(len([]rune(a)), len([]rune(b)))
	return 1 - float64(textbookLevenshtein(a, b))/float64(maxLen)
}

// textbookTrigrams returns the character trigrams of a text padded with two
// spaces on either side, one string each.
func textbookTrigrams(text string) []string {
	if text == "" {
		return nil
	}
	runes := []rune("  " + text + "  ")
	var out []string
	for i := 0; i+3 <= len(runes); i++ {
		out = append(out, string(runes[i:i+3]))
	}
	return out
}

// textbookTrigramSim is Jaccard similarity over the character trigrams of
// the normalized strings.
func textbookTrigramSim(a, b string) float64 {
	return textbookJaccard(textbookTrigrams(textbookNormalize(a)), textbookTrigrams(textbookNormalize(b)))
}

// textbookStringSim is StringSim as the textbook measures compose it.
func textbookStringSim(a, b string) float64 {
	na, nb := textbookNormalize(a), textbookNormalize(b)
	if na == nb {
		return 1
	}
	ta, tb := strings.Fields(na), strings.Fields(nb)
	s := textbookJaccard(ta, tb)
	if !digitTokensAgree(ta, tb) {
		return s
	}
	if t := textbookTrigramSim(na, nb); t > s {
		s = t
	}
	if len(na) <= 64 && len(nb) <= 64 {
		if l := textbookLevenshteinSim(na, nb); l > s {
			s = l
		}
	}
	return s
}

// digitTokensAgree reports whether the digit-bearing token sets of the two
// token lists are equal (vacuously true when either has none).
func digitTokensAgree(a, b []string) bool {
	da, db := digitTokens(a), digitTokens(b)
	if len(da) == 0 || len(db) == 0 {
		return true
	}
	if len(da) != len(db) {
		return false
	}
	for t := range da {
		if !db[t] {
			return false
		}
	}
	return true
}

func digitTokens(tokens []string) map[string]bool {
	var out map[string]bool
	for _, t := range tokens {
		if strings.ContainsAny(t, "0123456789") {
			if out == nil {
				out = map[string]bool{}
			}
			out[t] = true
		}
	}
	return out
}
