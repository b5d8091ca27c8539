// Package er implements entity resolution for the relation layer (paper
// FS.1): deciding which instance records from independently produced
// sources denote the same real-world entity, without manual ETL or prior
// schema alignment.
//
// The package provides the classical batch formulation (all candidate
// pairs within blocks) and the incremental formulation the paper calls for
// — each arriving entity is compared only against the candidates its
// blocking keys select, so integrating a new source never re-resolves the
// whole database. Cross-schema matching uses value-overlap attribute
// alignment (see Align) so no a-priori knowledge of the external source's
// schema is required.
package er

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lower-cases, trims, and collapses non-alphanumeric runs into
// single spaces — the canonical form all similarity measures operate on.
func Normalize(s string) string {
	var buf [64]byte
	return string(appendNormal(buf[:0], s))
}

// appendNormal appends the normal form of s to dst: each rune lower-cased as
// strings.ToLower does, letters and digits kept, every other run (invalid
// UTF-8 among it) one space, and no space at either end. It is the one
// normalizer; Normalize and the resolver's index both call it.
func appendNormal(dst []byte, s string) []byte {
	start := len(dst)
	lastSpace := true
	for _, r := range s {
		if r = unicode.ToLower(r); unicode.IsLetter(r) || unicode.IsDigit(r) {
			dst = utf8.AppendRune(dst, r)
			lastSpace = false
		} else if !lastSpace {
			dst = append(dst, ' ')
			lastSpace = true
		}
	}
	if len(dst) > start && dst[len(dst)-1] == ' ' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// Tokens splits a normalized string into its word tokens.
func Tokens(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// StringSim is the combined string similarity the resolver uses: the
// maximum of token Jaccard, trigram, and normalized edit similarity, so
// that reordered tokens ("Arthritis, Rheumatoid"), typos, and short codes
// are each handled by the measure that suits them.
//
// Digit-bearing tokens act as identifiers: when the two strings carry
// different digit tokens ("sensor unit 0033" vs "sensor unit 0054"), the
// fuzzy measures are withheld and only token overlap counts — serial
// numbers differing by one digit are different things, not typos.
//
// It is valSim, the resolver's scorer, over two values derived as the
// resolver derives them.
func StringSim(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	va, _, _ := deriveVal(na, nil, nil)
	vb, _, _ := deriveVal(nb, nil, nil)
	var m matchMasks
	m.build(na)
	return valSim(&va, &m, &vb, 0)
}

// maxEditLen bounds the values edit similarity is computed for, in bytes:
// it is meaningless for long text, and a value of at most 64 bytes has at
// most 64 runes, so its match masks fit one machine word.
const maxEditLen = 64

// attrVal caches every per-value derivation the fuzzy measures need —
// sorted unique tokens, the digit-bearing token subset, sorted unique
// padded trigrams and the rune count — so the resolver's pair-scoring hot
// path computes them once per entity instead of once per candidate pair.
// text must already be normalized.
type attrVal struct {
	text   string
	tokens []string // sorted, unique
	digits []string // sorted, unique digit-bearing tokens
	tris   []uint32 // the trigram set: narrow keys, then wide ones (see appendTrigrams)
	runes  int32    // rune count of text
	narrow int32    // how many of tris are narrow keys
}

// deriveVal derives the value of a normalized text. Its tokens and digits go
// at the end of toks and its trigrams at the end of tris, and the grown
// arenas are returned; each of the value's slices is a full slice expression,
// so no later append to an arena writes into it. An arena with the capacity
// for the value is not reallocated.
func deriveVal(text string, toks []string, tris []uint32) (attrVal, []string, []uint32) {
	v := attrVal{text: text, runes: int32(utf8.RuneCountInString(text))}
	lo := len(toks)
	for f, i := nextField(text, 0); f != ""; f, i = nextField(text, i) {
		toks = append(toks, f)
	}
	toks = toks[:lo+len(sortedUnique(toks[lo:]))]
	v.tokens = toks[lo:len(toks):len(toks)]
	lo = len(toks)
	for _, t := range v.tokens {
		if hasDigit(t) {
			toks = append(toks, t)
		}
	}
	if len(toks) > lo {
		v.digits = toks[lo:len(toks):len(toks)]
	}
	lo = len(tris)
	var narrow int
	if tris, narrow = appendTrigrams(tris, text); len(tris) > lo {
		v.tris, v.narrow = tris[lo:len(tris):len(tris)], int32(narrow)
	}
	return v, toks, tris
}

// nextField returns the first field of s that starts at or after byte i,
// as strings.Fields splits them — a maximal run of runes that are not
// unicode.IsSpace — and the byte just past it; f is "" when none is left.
// It is a plain function rather than an iterator so that a caller's string
// does not escape through a closure: the resolver counts the fields of a
// normal form still in a stack buffer.
func nextField(s string, i int) (f string, end int) {
	start := -1
	for j, r := range s[i:] {
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i + j
			}
		} else if start >= 0 {
			return s[start : i+j], i + j
		}
	}
	if start >= 0 {
		return s[start:], len(s)
	}
	return "", len(s)
}

// narrowRune bounds the runes of a narrow trigram: three runes below it
// pack, 10 bits each, into one word of 30 bits.
const narrowRune = 1 << 10

// window is the last three runes of a padded text: the exact key of their
// trigram, 21 bits a rune (a rune is at most 0x10FFFF) in one word, and a
// bit for each of them that is not below narrowRune.
type window struct {
	key  uint64
	wide uint8
}

// padding is the key of the two spaces a text is padded with in front,
// which a window starts over.
const padding = ' '<<21 | ' '

// push moves the window one rune on.
func (w *window) push(r rune) {
	w.key = (w.key<<21 | uint64(r)) & (1<<63 - 1)
	w.wide = w.wide << 1 & 7
	if r >= narrowRune {
		w.wide |= 1
	}
}

// narrowKey is the trigram's key in 30 bits, which orders narrow trigrams
// as their exact keys do. It is the trigram only when w.wide is 0.
func (w *window) narrowKey() uint32 {
	const rune10 = narrowRune - 1
	return uint32(w.key>>42&rune10)<<20 | uint32(w.key>>21&rune10)<<10 | uint32(w.key&rune10)
}

// appendTrigrams appends to dst the trigram set of the text padded with two
// spaces on either side, and returns how many of the appended words are
// narrow keys. A trigram whose runes are all below narrowRune is narrow: it
// is one word, its narrowKey. Any other is wide: its exact key in two words,
// the high one first. The narrow keys come first, sorted and duplicate-free,
// then the wide trigrams, sorted by their exact keys and duplicate-free, so
// comparing two members of either part is comparing integers. A narrow
// trigram never equals a wide one. Empty text has no trigrams. The wide keys
// are gathered in a buffer on the stack, which a text of more than
// len(wbuf) wide trigrams outgrows to the heap.
func appendTrigrams(dst []uint32, text string) ([]uint32, int) {
	if text == "" {
		return dst, 0
	}
	var wbuf [32]uint64
	lo, wide := len(dst), wbuf[:0]
	w := window{key: padding}
	for _, s := range [2]string{text, "  "} {
		for _, r := range s {
			if w.push(r); w.wide == 0 {
				dst = append(dst, w.narrowKey())
			} else {
				wide = append(wide, w.key)
			}
		}
	}
	dst = dst[:lo+len(sortedUnique(dst[lo:]))]
	mid := len(dst)
	for _, k := range sortedUnique(wide) {
		dst = append(dst, uint32(k>>32), uint32(k))
	}
	return dst, mid - lo
}

// trigramWords is how many words appendTrigrams appends for text before it
// drops duplicates: one a narrow trigram, two a wide one.
func trigramWords(text string) int {
	if text == "" {
		return 0
	}
	n, w := 0, window{key: padding}
	for _, s := range [2]string{text, "  "} {
		for _, r := range s {
			if w.push(r); w.wide != 0 {
				n++
			}
			n++
		}
	}
	return n
}

// sortedUnique sorts xs in place and drops its duplicates.
func sortedUnique[T cmp.Ordered](xs []T) []T {
	slices.Sort(xs)
	return slices.Compact(xs)
}

// intersection counts the common elements of two sorted, duplicate-free
// slices, or stops early, with some count below need, once the elements left
// cannot bring it to need. A match leaves count plus the shorter remainder
// unchanged, so only a step past an unmatched element can end the count.
func intersection[T cmp.Ordered](a, b []T, need int) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
			continue
		case a[i] < b[j]:
			i++
		default:
			j++
		}
		if n+min(len(a)-i, len(b)-j) < need {
			return n
		}
	}
	return n
}

// atLeast is the least count k with k/whole ≥ frac, truncated down with a
// relative slack: the float product may land a hair above a whole count that
// reaches frac exactly, and rounding that up would rule the count out. A
// count below it is clear of frac by far more than a float's rounding error.
func atLeast(frac, whole float64) int {
	return int(math.Ceil(frac * whole * (1 - 1e-9)))
}

// jaccard is |A∩B| / |A∪B| over two sorted, duplicate-free slices whenever
// that is at least target, and some value below target otherwise. Two empty
// sets are identical (1); one empty set matches nothing.
func jaccard[T cmp.Ordered](a, b []T, target float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	need, ok := jaccardNeed(len(a), len(b), target)
	if !ok {
		return 0
	}
	inter := intersection(a, b, need)
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// trigramJaccard is jaccard over the trigram sets of two values.
func trigramJaccard(a, b *attrVal, target float64) float64 {
	na, nb := a.trigrams(), b.trigrams()
	if na == 0 && nb == 0 {
		return 1
	}
	need, ok := jaccardNeed(na, nb, target)
	if !ok {
		return 0
	}
	inter := trigramIntersection(a, b, need)
	return float64(inter) / float64(na+nb-inter)
}

// jaccardNeed is the intersection count at which the Jaccard index of two
// sets of na and nb members reaches target, the count at which the merge may
// stop: target·(na+nb)/(1+target). The intersection is at most the smaller
// set and the union at least the larger, so sizes whose ratio is below
// target are not merged at all (ok false).
func jaccardNeed(na, nb int, target float64) (need int, ok bool) {
	if float64(min(na, nb))/float64(max(na, nb)) < target {
		return 0, false
	}
	return atLeast(target/(1+target), float64(na+nb)), true
}

// trigrams is the size of the value's trigram set.
func (v *attrVal) trigrams() int { return int(v.narrow) + (len(v.tris)-int(v.narrow))/2 }

// trigramIntersection is intersection over the trigram sets of two values. A
// narrow trigram never equals a wide one, so it is the narrow keys'
// intersection plus the wide trigrams'; the narrow merge stops early once
// not even every wide trigram of the smaller wide set could make up need.
func trigramIntersection(a, b *attrVal, need int) int {
	wa, wb := a.tris[a.narrow:], b.tris[b.narrow:]
	if len(wa) == 0 || len(wb) == 0 {
		return intersection(a.tris[:a.narrow], b.tris[:b.narrow], need)
	}
	wide := min(len(wa), len(wb)) / 2
	n := intersection(a.tris[:a.narrow], b.tris[:b.narrow], need-wide)
	if n+wide < need {
		return n
	}
	return n + wideIntersection(wa, wb, need-n)
}

// wideIntersection is intersection over two runs of wide trigrams, each
// trigram a pair of words whose high word comes first. It counts in words
// the elements left, against twice need.
func wideIntersection(a, b []uint32, need int) int {
	n, need2 := 0, 2*need
	for len(a) >= 2 && len(b) >= 2 {
		x, y := uint64(a[0])<<32|uint64(a[1]), uint64(b[0])<<32|uint64(b[1])
		switch {
		case x == y:
			n++
			a, b = a[2:], b[2:]
			continue
		case x < y:
			a = a[2:]
		default:
			b = b[2:]
		}
		if 2*n+min(len(a), len(b)) < need2 {
			return n
		}
	}
	return n
}

// matchMasks holds, for one value of at most 64 runes (the pattern), the
// positions of every distinct rune as a bit mask: bit i is set where the
// pattern's rune i is that rune. They are all the bit-parallel edit distance
// needs of the pattern, so an arriving value builds them once and is then
// scored against every candidate without being decoded again. Normalized
// text is mostly ASCII, which indexes a table; any other rune goes to a
// short list searched linearly.
type matchMasks struct {
	ascii [utf8.RuneSelf]uint64
	other []runeMask
	runes int // length of the pattern
}

type runeMask struct {
	r    rune
	mask uint64
}

// build replaces the masks with those of text. Text longer than maxEditLen
// is never edit-compared and gets none.
func (m *matchMasks) build(text string) {
	clear(m.ascii[:])
	m.other, m.runes = m.other[:0], 0
	if len(text) > maxEditLen {
		return
	}
	for _, r := range text {
		bit := uint64(1) << m.runes
		m.runes++
		if r < utf8.RuneSelf {
			m.ascii[r] |= bit
			continue
		}
		i := 0
		for i < len(m.other) && m.other[i].r != r {
			i++
		}
		if i == len(m.other) {
			m.other = append(m.other, runeMask{r: r})
		}
		m.other[i].mask |= bit
	}
}

func (m *matchMasks) of(r rune) uint64 {
	if r < utf8.RuneSelf {
		return m.ascii[r]
	}
	for i := range m.other {
		if m.other[i].r == r {
			return m.other[i].mask
		}
	}
	return 0
}

// distance returns the edit distance (insert, delete, substitute, over
// runes) between the pattern and text, of n runes, whenever it is at most
// limit, and some value above limit otherwise. It is Myers' bit-parallel
// algorithm in Hyyrö's formulation: one column of the dynamic-programming
// matrix is two words, pv and mv, whose bit i says that cell i is one more,
// or one less, than cell i-1, and a rune of text advances the whole column in
// a dozen word operations. d follows the column's last cell, so it ends as
// the exact distance the textbook matrix has in its corner. Each rune moves d
// by at most one, so d less the runes left is a floor under the distance, and
// the loop ends once that floor passes limit.
func (m *matchMasks) distance(text string, n, limit int) int {
	if m.runes == 0 {
		return n
	}
	pv, mv := ^uint64(0), uint64(0)
	last := uint64(1) << (m.runes - 1)
	d := m.runes
	for _, r := range text {
		eq := m.of(r)
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			d++
		} else if mh&last != 0 {
			d--
		}
		ph = ph<<1 | 1 // the matrix's first row grows by one a column
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
		if n--; d-n > limit {
			return d - n
		}
	}
	return d
}

// valSim is the string similarity of two derived values whenever it is at
// least floor, and some value below floor otherwise; am holds the match masks
// of a. Each measure is held against the larger of floor and the best score
// so far, so one that cannot beat both is cut short or skipped; at floor 0 the
// score is exact.
func valSim(a *attrVal, am *matchMasks, b *attrVal, floor float64) float64 {
	if a.text == b.text {
		return 1
	}
	s := jaccard(a.tokens, b.tokens, floor)
	if !sortedSetsAgree(a.digits, b.digits) {
		return s
	}
	if t := trigramJaccard(a, b, max(floor, s)); t > s {
		s = t
	}
	if len(a.text) <= maxEditLen && len(b.text) <= maxEditLen {
		// Edit distance is at least the length gap; skip it when even a
		// perfect alignment could not reach the target. Similarity reaches
		// target only at a distance of at most (1−target)·longer; the limit
		// adds one for the float product's rounding.
		target := max(floor, s)
		longer, shorter := int(max(a.runes, b.runes)), int(min(a.runes, b.runes))
		if gap := 1 - float64(longer-shorter)/float64(longer); gap > s && gap >= target {
			limit := int((1-target)*float64(longer)) + 1
			if l := 1 - float64(am.distance(b.text, int(b.runes), limit))/float64(longer); l > s {
				s = l
			}
		}
	}
	return s
}

// sortedSetsAgree reports whether the digit-bearing token sets of two
// values are equal (vacuously true when either has none).
func sortedSetsAgree(a, b []string) bool {
	return len(a) == 0 || len(b) == 0 || slices.Equal(a, b)
}
