package er

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"
)

// kernelDistance is the bit-parallel edit distance of two texts of which a
// is at most maxEditLen bytes.
func kernelDistance(a, b string) int {
	var m matchMasks
	m.build(a)
	return m.distance(b, utf8.RuneCountInString(b), math.MaxInt)
}

// checkKernel holds the scoring kernel to the textbook measures on one pair,
// in both orders: the bit-parallel distance is the dynamic program's
// whenever it is within the limit, and above the limit otherwise, the
// packed-trigram Jaccard is the string-set Jaccard, and StringSim — valSim
// over derived values — is the float the textbook composition gives, to the
// bit. The first two are checked on the texts as given, not normalized, so
// that bytes Normalize would drop reach them too. Then each floored measure
// is held to its exact value (checkFloored).
func checkKernel(t *testing.T, a, b string) {
	t.Helper()
	for _, p := range [2][2]string{{a, b}, {b, a}} {
		x, y := p[0], p[1]
		vx, _, _ := deriveVal(x, nil, nil)
		vy, _, _ := deriveVal(y, nil, nil)
		if len(x) <= maxEditLen {
			var m matchMasks
			m.build(x)
			want := textbookLevenshtein(x, y)
			for _, limit := range []int{0, want - 1, want, want + 1, math.MaxInt} {
				got := m.distance(y, vy.runes, limit)
				if want <= limit && got != want || want > limit && got <= limit {
					t.Errorf("distance(%q, %q) under limit %d = %d, textbook %d", x, y, limit, got, want)
				}
			}
		}
		exactTris := jaccard(vx.tris, vy.tris, 0)
		if want := textbookJaccard(textbookTrigrams(x), textbookTrigrams(y)); exactTris != want {
			t.Errorf("trigram jaccard(%q, %q) = %v, textbook %v", x, y, exactTris, want)
		}
		exact := StringSim(x, y)
		if want := textbookStringSim(x, y); exact != want {
			t.Errorf("StringSim(%q, %q) = %v, textbook %v", x, y, exact, want)
		}
		checkFloored(t, fmt.Sprintf("trigram jaccard(%q, %q)", x, y), exactTris, func(floor float64) float64 {
			return jaccard(vx.tris, vy.tris, floor)
		})
		nx, ny := Normalize(x), Normalize(y)
		nvx, _, _ := deriveVal(nx, nil, nil)
		nvy, _, _ := deriveVal(ny, nil, nil)
		var m matchMasks
		m.build(nx)
		checkFloored(t, fmt.Sprintf("valSim(%q, %q)", x, y), exact, func(floor float64) float64 {
			return valSim(&nvx, &m, &nvy, floor)
		})
		// The pair as two entities of one value each, and of that value
		// beside a second one, so containment meets the value measures.
		for _, extra := range []string{"", "warfarin"} {
			ex, ey := kernelEntity(nx, extra), kernelEntity(ny, "")
			masks := make([]matchMasks, len(ex.vals))
			for i := range ex.vals {
				masks[i].build(ex.vals[i].text)
			}
			checkFloored(t, fmt.Sprintf("pairScore(%q+%q, %q)", x, extra, y), pairScore(&ex, masks, &ey, 0), func(floor float64) float64 {
				return pairScore(&ex, masks, &ey, floor)
			})
		}
	}
}

// kernelEntity indexes the normal forms of one or two values as the textbook
// derives an entity.
func kernelEntity(text, extra string) indexed {
	var attrs Attrs
	if text != "" {
		attrs = append(attrs, AttrText{Name: "a", Text: text})
	}
	if extra != "" {
		attrs = append(attrs, AttrText{Name: "b", Text: extra})
	}
	return textbookIndex(attrs, nil, true)
}

// checkFloored holds a floored measure to its exact value at the floors 0,
// 0.5, 0.85 (the resolver's threshold) and 1, at the exact value and at the
// floats just below and just above it: the floored value is the exact one,
// to the bit, when that is at least the floor, and below the floor
// otherwise.
func checkFloored(t *testing.T, what string, exact float64, floored func(float64) float64) {
	t.Helper()
	for _, floor := range []float64{0, 0.5, threshold, 1, exact, math.Nextafter(exact, math.Inf(-1)), math.Nextafter(exact, math.Inf(1))} {
		got := floored(floor)
		if exact >= floor && math.Float64bits(got) != math.Float64bits(exact) || exact < floor && got >= floor {
			t.Errorf("%s at floor %v = %v, exact %v", what, floor, got, exact)
		}
	}
}

// kernelPairs are the adversarial inputs, also the fuzz seeds.
var kernelPairs = [][2]string{
	{"", ""}, {"", "a"}, {"a", "a"}, {"a", "b"}, {"ab", "ba"},
	{"warfarin", "warfarin"}, {"warfarin", "warfarine"}, {"kitten", "sitting"},
	{"acetaminophen", "paracetamol"}, {"Rheumatoid Arthritis", "Arthritis, Rheumatoid"},
	// The 64-byte guard and the top bit of the word: 63, 64 and 65 bytes,
	// differing at the first rune, at the last, and in length.
	{strings.Repeat("a", 63), strings.Repeat("a", 62) + "b"},
	{strings.Repeat("a", 64), strings.Repeat("a", 63) + "b"},
	{strings.Repeat("a", 64), "b" + strings.Repeat("a", 63)},
	{strings.Repeat("a", 64), strings.Repeat("a", 63)},
	{strings.Repeat("a", 64), strings.Repeat("a", 65)},
	{strings.Repeat("a", 65), strings.Repeat("a", 64) + "b"},
	{strings.Repeat("ab", 32), strings.Repeat("ba", 32)},
	{"abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz01", "bcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz012"},
	{strings.Repeat("é", 32), strings.Repeat("é", 31) + "e"},
	{strings.Repeat("é", 33), strings.Repeat("é", 32)},
	// Multi-byte and astral-plane letters (Deseret, mathematical bold).
	{"überwachungsstation", "uberwachungsstation"}, {"καλημέρα κόσμε", "καλημερα κοσμε"},
	{"東京都港区", "東京都渋谷区"}, {"𐐨𐐩𐐪𐐫 𐐬𐐭", "𐐨𐐩𐐫𐐪 𐐬𐐭"}, {"𝐀𝐁𝐂 abc", "𝐀𝐁𝐃 abc"},
	{"a\xffb", "a\xfeb"}, {"\xff\xff\xff", "�"},
	// Digit tokens are identifiers: disagreeing ones withhold the fuzzy
	// measures, agreeing ones do not.
	{"sensor unit 0033", "sensor unit 0054"}, {"sensor unit 0033", "sensr unit 0033"},
	{"unit 7", "unit seven"}, {"0033 0054", "0054 0033"},
	// Repeated trigrams collapse in both set representations.
	{"aaaaaaa", "aaaa"}, {"abababab", "ababab"}, {"aa aa aa", "aa aa"},
	// Values that differ only in padding or punctuation.
	{"abc", "abc "}, {" abc", "abc  "}, {"abc", "a-b-c"}, {"  ", " "}, {"___", ""},
}

func TestKernelEqualsTextbook(t *testing.T) {
	for _, p := range kernelPairs {
		checkKernel(t, p[0], p[1])
	}
	// Random pairs over a small alphabet (so that runes repeat, trigrams
	// collide and digit tokens form), each also against a mutated copy of
	// itself: one edit is where the measures disagree most about the score.
	alphabet := []rune("abc 12é𐐨")
	rng := rand.New(rand.NewSource(19))
	text := func() string {
		r := make([]rune, rng.Intn(40))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(r)
	}
	for i := 0; i < 3000; i++ {
		a, b := text(), text()
		checkKernel(t, a, b)
		if r := []rune(a); len(r) > 0 {
			r[rng.Intn(len(r))] = alphabet[rng.Intn(len(alphabet))]
			checkKernel(t, a, string(r))
		}
	}
}

func FuzzKernel(f *testing.F) {
	for _, p := range kernelPairs {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a)+len(b) > 1024 {
			t.Skip("the textbook distance is quadratic")
		}
		checkKernel(t, a, b)
	})
}
