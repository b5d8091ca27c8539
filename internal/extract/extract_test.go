package extract

import (
	"testing"

	"scdb/internal/er"
)

// add registers a name as the pipeline does, under its normal form.
func add(g *Gazetteer, name, concept string) { g.Add(er.Normalize(name), name, concept) }

func lifesciGaz() *Gazetteer {
	g := NewGazetteer()
	add(g, "Warfarin", "Drug")
	add(g, "Ibuprofen", "Drug")
	add(g, "Methotrexate", "Drug")
	add(g, "Rheumatoid Arthritis", "Disease")
	add(g, "Osteosarcoma", "Disease")
	add(g, "DHFR", "Gene")
	add(g, "PTGS2", "Gene")
	return g
}

func relationPatterns() []Pattern {
	return []Pattern{
		{Trigger: "treats", Predicate: "treats", SubjectConcept: "Drug", ObjectConcept: "Disease"},
		{Trigger: "targets", Predicate: "targets", SubjectConcept: "Drug", ObjectConcept: "Gene"},
		{Trigger: "causes", Predicate: "causes"},
	}
}

func TestSentences(t *testing.T) {
	got := Sentences("One. Two!  Three? Four; and five")
	if len(got) != 5 {
		t.Fatalf("Sentences = %v", got)
	}
	if got[0] != "One" || got[4] != "and five" {
		t.Errorf("Sentences = %v", got)
	}
	if Sentences("   ") != nil {
		t.Error("blank text must yield nil")
	}
}

func TestFindMentionsLongestMatch(t *testing.T) {
	g := lifesciGaz()
	m := g.FindMentions("Methotrexate treats Rheumatoid Arthritis in adults")
	if len(m) != 2 {
		t.Fatalf("mentions = %v", m)
	}
	if m[0].Canonical != "Methotrexate" || m[0].Concept != "Drug" {
		t.Errorf("m0 = %+v", m[0])
	}
	// Multi-token entry must match as one mention.
	if m[1].Canonical != "Rheumatoid Arthritis" || m[1].Concept != "Disease" {
		t.Errorf("m1 = %+v", m[1])
	}
	if m[1].End-m[1].Start != 2 {
		t.Errorf("span = %+v", m[1])
	}
	// Case-insensitive and punctuation-tolerant.
	m = g.FindMentions("WARFARIN, and ibuprofen!")
	if len(m) != 2 {
		t.Errorf("case-insensitive mentions = %v", m)
	}
	if got := g.FindMentions("nothing known here"); got != nil {
		t.Errorf("no mentions expected: %v", got)
	}
}

func TestGazetteerEdge(t *testing.T) {
	g := NewGazetteer()
	add(g, "", "X")
	add(g, "   ", "X")
	if g.Len() != 0 {
		t.Error("blank names must be ignored")
	}
	add(g, "A b C", "T")
	if g.Len() != 1 {
		t.Error("Add failed")
	}
}

func TestExtractRelations(t *testing.T) {
	g := lifesciGaz()
	text := "Methotrexate treats Rheumatoid Arthritis. Warfarin targets PTGS2, and Ibuprofen targets PTGS2."
	exts := ExtractRelations(text, g, relationPatterns())
	if len(exts) != 3 {
		t.Fatalf("extractions = %+v", exts)
	}
	found := map[string]bool{}
	for _, e := range exts {
		found[e.Subject.Canonical+"|"+e.Predicate+"|"+e.Object.Canonical] = true
		if e.Confidence <= 0 || e.Confidence > 0.95 {
			t.Errorf("confidence = %v", e.Confidence)
		}
	}
	for _, want := range []string{
		"Methotrexate|treats|Rheumatoid Arthritis",
		"Warfarin|targets|PTGS2",
		"Ibuprofen|targets|PTGS2",
	} {
		if !found[want] {
			t.Errorf("missing extraction %q in %v", want, found)
		}
	}
}

func TestExtractConceptRestrictions(t *testing.T) {
	g := lifesciGaz()
	// "treats" requires Drug→Disease: a Gene subject must not fire.
	exts := ExtractRelations("DHFR treats Osteosarcoma", g, relationPatterns())
	for _, e := range exts {
		if e.Predicate == "treats" {
			t.Errorf("concept restriction violated: %+v", e)
		}
	}
	// The unrestricted "causes" pattern accepts any pair.
	exts = ExtractRelations("DHFR causes Osteosarcoma", g, relationPatterns())
	if len(exts) != 1 || exts[0].Predicate != "causes" {
		t.Errorf("unrestricted pattern = %+v", exts)
	}
}

func TestExtractRequiresTriggerBetween(t *testing.T) {
	g := lifesciGaz()
	// Trigger before both mentions: no extraction.
	if exts := ExtractRelations("treats Methotrexate Rheumatoid Arthritis", g, relationPatterns()); exts != nil {
		t.Errorf("misplaced trigger fired: %+v", exts)
	}
	// Mentions in separate sentences: no extraction.
	if exts := ExtractRelations("Methotrexate treats. Rheumatoid Arthritis", g, relationPatterns()); exts != nil {
		t.Errorf("cross-sentence extraction: %+v", exts)
	}
}

func TestConfidenceDecaysWithDistance(t *testing.T) {
	g := lifesciGaz()
	near := ExtractRelations("Warfarin targets PTGS2", g, relationPatterns())
	far := ExtractRelations("Warfarin usually and quite reliably targets as documented PTGS2", g, relationPatterns())
	if len(near) != 1 || len(far) != 1 {
		t.Fatalf("near=%v far=%v", near, far)
	}
	if far[0].Confidence >= near[0].Confidence {
		t.Errorf("distance decay broken: near %v, far %v", near[0].Confidence, far[0].Confidence)
	}
}
