// Package extract implements lightweight information extraction for the
// instance layer (paper Section 3.1/3.2: when raw data is unstructured,
// the relation layer "may additionally capture the results of information
// extraction").
//
// Two stages: a gazetteer matcher finds entity mentions (longest-match
// against the names of already-known entities and concepts), and trigger
// patterns between mentions in one sentence yield relation extractions.
// Every extraction carries a confidence below 1 — extracted facts are soft
// and flow through the same uncertainty machinery as everything else.
package extract

import (
	"sort"
	"strings"

	"scdb/internal/er"
)

// Mention is one recognized entity reference in text.
type Mention struct {
	// Text is the matched surface form; Canonical the gazetteer entry it
	// matched.
	Text      string
	Canonical string
	// Concept is the semantic type the gazetteer holds for the entry.
	Concept string
	// Start and End are token offsets within the sentence ([Start, End)).
	Start, End int
}

// Gazetteer is a dictionary of known entity names.
type Gazetteer struct {
	entries   map[string]entry // normalized name → entry
	maxTokens int
}

type entry struct {
	canonical string
	concept   string
}

// NewGazetteer creates an empty gazetteer.
func NewGazetteer() *Gazetteer {
	return &Gazetteer{entries: map[string]entry{}, maxTokens: 1}
}

// Add registers a name with its concept under norm, the name's normal form
// (er.Normalize(name)), which the caller already holds. Longer (multi-token)
// names are matched preferentially.
func (g *Gazetteer) Add(norm, name, concept string) {
	if norm == "" {
		return
	}
	g.entries[norm] = entry{canonical: name, concept: concept}
	if n := strings.Count(norm, " ") + 1; n > g.maxTokens {
		g.maxTokens = n
	}
}

// Len returns the number of entries.
func (g *Gazetteer) Len() int { return len(g.entries) }

// Sentences splits text on sentence punctuation.
func Sentences(text string) []string {
	var out []string
	cur := strings.Builder{}
	for _, r := range text {
		if r == '.' || r == '!' || r == '?' || r == ';' {
			if s := strings.TrimSpace(cur.String()); s != "" {
				out = append(out, s)
			}
			cur.Reset()
			continue
		}
		cur.WriteRune(r)
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// FindMentions scans one sentence for gazetteer matches, longest match
// first, non-overlapping, left to right.
func (g *Gazetteer) FindMentions(sentence string) []Mention {
	tokens := er.Tokens(sentence)
	var out []Mention
	i := 0
	for i < len(tokens) {
		matched := false
		maxSpan := g.maxTokens
		if rem := len(tokens) - i; rem < maxSpan {
			maxSpan = rem
		}
		for span := maxSpan; span >= 1; span-- {
			cand := strings.Join(tokens[i:i+span], " ")
			if e, ok := g.entries[cand]; ok {
				out = append(out, Mention{
					Text:      cand,
					Canonical: e.canonical,
					Concept:   e.concept,
					Start:     i,
					End:       i + span,
				})
				i += span
				matched = true
				break
			}
		}
		if !matched {
			i++
		}
	}
	return out
}

// Pattern maps a trigger word appearing between two mentions to a
// predicate.
type Pattern struct {
	Trigger   string
	Predicate string
	// SubjectConcept/ObjectConcept optionally restrict which mention types
	// the pattern accepts ("" = any).
	SubjectConcept string
	ObjectConcept  string
}

// Extraction is one extracted relation.
type Extraction struct {
	Subject    Mention
	Object     Mention
	Predicate  string
	Sentence   string
	Confidence float64
}

// ExtractRelations finds (subject, trigger, object) shapes: two mentions
// in one sentence with a pattern trigger token strictly between them. For
// each subject and pattern only the nearest qualifying object fires (the
// standard nearest-mention heuristic, avoiding spurious long-distance
// pairs in conjunctive sentences). Confidence decays with the token
// distance between the mentions.
func ExtractRelations(text string, g *Gazetteer, patterns []Pattern) []Extraction {
	var out []Extraction
	for _, sentence := range Sentences(text) {
		tokens := er.Tokens(sentence)
		mentions := g.FindMentions(sentence)
		if len(mentions) < 2 {
			continue
		}
		for i := 0; i < len(mentions); i++ {
			for _, p := range patterns {
				if p.SubjectConcept != "" && p.SubjectConcept != mentions[i].Concept {
					continue
				}
				trigger := er.Normalize(p.Trigger)
				for j := 0; j < len(mentions); j++ {
					if i == j || mentions[i].End > mentions[j].Start {
						continue // need subject strictly before object
					}
					if p.ObjectConcept != "" && p.ObjectConcept != mentions[j].Concept {
						continue
					}
					if !containsToken(tokens[mentions[i].End:mentions[j].Start], trigger) {
						continue
					}
					dist := mentions[j].Start - mentions[i].End
					conf := 0.9 - 0.05*float64(dist-1)
					if conf < 0.3 {
						conf = 0.3
					}
					out = append(out, Extraction{
						Subject:    mentions[i],
						Object:     mentions[j],
						Predicate:  p.Predicate,
						Sentence:   sentence,
						Confidence: conf,
					})
					break // nearest object only (mentions are left-to-right)
				}
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Confidence > out[b].Confidence })
	return out
}

func containsToken(tokens []string, want string) bool {
	for _, t := range tokens {
		if t == want {
			return true
		}
	}
	return false
}
