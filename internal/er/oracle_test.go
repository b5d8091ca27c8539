package er

// The textbook forms of the similarity measures: the quadratic
// dynamic-programming edit distance, Jaccard over string sets, one string
// per trigram, and StringSim composed from them exactly as it was before
// the scoring kernel replaced them. Nothing outside the tests runs them;
// they are what TestKernelEqualsTextbook and FuzzKernel hold the kernel to.

import (
	"strings"
)

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
	return textbookJaccard(textbookTrigrams(Normalize(a)), textbookTrigrams(Normalize(b)))
}

// textbookStringSim is StringSim as the textbook measures compose it.
func textbookStringSim(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return 1
	}
	ta, tb := Tokens(na), Tokens(nb)
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
