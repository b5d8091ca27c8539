package er

import (
	"math"
	"slices"
)

// embedDim is the feature-hashed embedding width: wide enough that unrelated
// records rarely collide on sign patterns, small enough that a dot product
// costs less than one pairScore call.
const embedDim = 64

// The embedder is deliberately model-free: token and character-trigram
// features of the indexed entity are hashed into a fixed-dimension vector
// (feature hashing / the "hashing trick"), each feature adding ±1 to the
// dimension its hash selects, and the result is L2-normalized. Two records
// that share most of their surface text — across schemata, token order,
// and small typos — land at high cosine similarity, with zero external
// dependencies and bit-identical output on every platform, so the ANN
// blocking stage stays hermetic and deterministic (tests and the
// serial-vs-parallel differential depend on that).

// fnv64a is FNV-1a over the string bytes (inlined to keep the embedding
// loop allocation-free).
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 finalizes a feature hash (splitmix64 finalizer) so that the
// bucket index and the sign bit are decorrelated.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// addFeature folds one hashed feature into the accumulator.
func addFeature(acc []float32, h uint64, w float32) {
	h = mix64(h)
	i := int(h % uint64(len(acc)))
	if h&(1<<63) != 0 {
		acc[i] -= w
	} else {
		acc[i] += w
	}
}

// embedTokens hashes the token and trigram features of a token list into
// an embedDim-wide L2-normalized vector, in acc's array when it has room
// (a pooled Prepared's), and returns it. Tokens are whole-word features;
// boundary-padded trigrams of each token carry typo robustness (a
// one-character edit disturbs at most three trigrams). The function is
// pure: identical tokens produce identical vectors.
func embedTokens(acc []float32, tokens []string) []float32 {
	acc = slices.Grow(acc[:0], embedDim)[:embedDim]
	clear(acc)
	// Digit-bearing tokens are identifiers, not fuzzy-matchable text (the
	// scorer withholds fuzzy measures when they disagree — see
	// sortedSetsAgree in valSim), and their values are often per-record noise
	// (readings, sequence numbers) that would drown the label features.
	// Embed only the prose tokens, unless there is nothing else.
	n := 0
	for _, t := range tokens {
		if !hasDigit(t) {
			n++
		}
	}
	for _, t := range tokens {
		if n > 0 && hasDigit(t) {
			continue
		}
		addFeature(acc, fnv64a(t), 2) // whole-token feature, double weight
		// Trigram features over the boundary-padded rune sequence. The
		// rolling hash mixes the three rune values directly, so no trigram
		// substring is materialized.
		runes := []rune(t)
		const pad = rune(0)
		for i := -2; i < len(runes); i++ {
			var r0, r1, r2 rune = pad, pad, pad
			if i >= 0 {
				r0 = runes[i]
			}
			if i+1 >= 0 && i+1 < len(runes) {
				r1 = runes[i+1]
			}
			if i+2 < len(runes) {
				r2 = runes[i+2]
			}
			h := uint64(r0)<<42 ^ uint64(r1)<<21 ^ uint64(r2)
			addFeature(acc, h^0x9e3779b97f4a7c15, 1)
		}
	}
	var norm float64
	for _, v := range acc {
		norm += float64(v) * float64(v)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range acc {
			acc[i] *= inv
		}
	}
	return acc
}

func hasDigit(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			return true
		}
	}
	return false
}

// dot is the cosine similarity of two embedTokens outputs (both are unit
// vectors, so the dot product is the cosine).
func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}
