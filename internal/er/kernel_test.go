package er

import (
	"math/rand"
	"strings"
	"testing"
)

// kernelDistance is the bit-parallel edit distance of two texts of which a
// is at most maxEditLen bytes.
func kernelDistance(a, b string) int {
	var m matchMasks
	m.build(a)
	return m.distance(b)
}

// checkKernel holds the scoring kernel to the textbook measures on one pair,
// in both orders: the bit-parallel distance is the dynamic program's, the
// packed-trigram Jaccard is the string-set Jaccard, and StringSim — valSim
// over derived values — is the float the textbook composition gives, to the
// bit. The first two are checked on the texts as given, not normalized, so
// that bytes Normalize would drop reach them too.
func checkKernel(t *testing.T, a, b string) {
	t.Helper()
	for _, p := range [2][2]string{{a, b}, {b, a}} {
		x, y := p[0], p[1]
		if len(x) <= maxEditLen {
			if got, want := kernelDistance(x, y), textbookLevenshtein(x, y); got != want {
				t.Errorf("distance(%q, %q) = %d, textbook %d", x, y, got, want)
			}
		}
		vx, _, _ := deriveVal(x, nil, nil)
		vy, _, _ := deriveVal(y, nil, nil)
		if got, want := jaccard(vx.tris, vy.tris), textbookJaccard(textbookTrigrams(x), textbookTrigrams(y)); got != want {
			t.Errorf("trigram jaccard(%q, %q) = %v, textbook %v", x, y, got, want)
		}
		if got, want := StringSim(x, y), textbookStringSim(x, y); got != want {
			t.Errorf("StringSim(%q, %q) = %v, textbook %v", x, y, got, want)
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
