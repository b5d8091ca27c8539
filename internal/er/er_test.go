package er

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"scdb/internal/model"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"  Warfarin ":           "warfarin",
		"Arthritis, Rheumatoid": "arthritis rheumatoid",
		"N-Acetyl—p—aminophen":  "n acetyl p aminophen",
		"":                      "",
		"___":                   "",
		"ABC123":                "abc123",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTokensAndJaccard(t *testing.T) {
	if got := Tokens("Rheumatoid, Arthritis!"); len(got) != 2 || got[0] != "rheumatoid" {
		t.Errorf("Tokens = %v", got)
	}
	if Tokens("") != nil {
		t.Error("Tokens of empty must be nil")
	}
	if j := textbookJaccard([]string{"a", "b"}, []string{"b", "c"}); j != 1.0/3 {
		t.Errorf("Jaccard = %v", j)
	}
	if textbookJaccard(nil, nil) != 1 {
		t.Error("both empty = 1")
	}
	if textbookJaccard([]string{"a"}, nil) != 0 {
		t.Error("one empty = 0")
	}
	// Duplicates are treated as sets.
	if j := textbookJaccard([]string{"a", "a", "b"}, []string{"a", "b", "b"}); j != 1 {
		t.Errorf("multiset collapse = %v", j)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"warfarin", "warfarin", 0},
		{"warfarin", "warfarine", 1},
		{"acetaminophen", "paracetamol", 9},
	}
	for _, c := range cases {
		if got := textbookLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("textbookLevenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := kernelDistance(c.a, c.b); got != c.want {
			t.Errorf("bit-parallel distance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if s := textbookLevenshteinSim("warfarin", "warfarine"); s < 0.88 || s > 0.89 {
		t.Errorf("LevenshteinSim = %v", s)
	}
	if textbookLevenshteinSim("", "") != 1 {
		t.Error("empty strings are identical")
	}
}

func TestTrigramSim(t *testing.T) {
	if s := textbookTrigramSim("warfarin", "warfarin"); s != 1 {
		t.Errorf("identical = %v", s)
	}
	if s := textbookTrigramSim("warfarin", "warfarine"); s < 0.6 {
		t.Errorf("typo sim = %v", s)
	}
	if s := textbookTrigramSim("abc", "xyz"); s != 0 {
		t.Errorf("disjoint = %v", s)
	}
	if got := textbookTrigrams(""); got != nil {
		t.Error("Trigrams of empty must be nil")
	}
}

func TestStringSim(t *testing.T) {
	// Token reorder handled by Jaccard.
	if s := StringSim("Rheumatoid Arthritis", "Arthritis, Rheumatoid"); s != 1 {
		t.Errorf("reorder = %v", s)
	}
	// Typos handled by edit distance.
	if s := StringSim("Methotrexate", "Methotrexat"); s < 0.9 {
		t.Errorf("typo = %v", s)
	}
	if s := StringSim("Warfarin", "Ibuprofen"); s > 0.4 {
		t.Errorf("different drugs too similar: %v", s)
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind()
	if !u.Union(1, 2) {
		t.Error("first union must merge")
	}
	if u.Union(1, 2) {
		t.Error("repeat union must not merge")
	}
	u.Union(3, 4)
	u.Union(2, 3)
	if !u.Same(1, 4) {
		t.Error("transitive cluster broken")
	}
	if u.Same(1, 5) {
		t.Error("separate entity in cluster")
	}
	cl := u.Clusters(2)
	if len(cl) != 1 || len(cl[0]) != 4 {
		t.Errorf("Clusters = %v", cl)
	}
	// Singleton excluded at minSize 2, included at 1.
	u.Find(9)
	if len(u.Clusters(2)) != 1 {
		t.Error("singleton must not appear at minSize 2")
	}
	// Find/Same register ids on first sight: 5 (from the Same call above)
	// and 9 are singletons alongside the merged cluster.
	if len(u.Clusters(1)) != 3 {
		t.Error("singletons must appear at minSize 1")
	}
}

func ent(id model.EntityID, source string, attrs map[string]string) *model.Entity {
	rec := model.Record{}
	for k, v := range attrs {
		rec[k] = model.String(v)
	}
	return &model.Entity{ID: id, Key: fmt.Sprintf("k%d", id), Source: source, Attrs: rec, Confidence: 1}
}

func TestIncrementalResolution(t *testing.T) {
	r := NewResolver(Config{})
	// DrugBank-style schema.
	m := r.Add(ent(1, "drugbank", map[string]string{"name": "Methotrexate", "targets": "DHFR"}))
	if m != nil {
		t.Errorf("first entity matches nothing: %v", m)
	}
	// CTD-style schema: different attribute names, same values.
	m = r.Add(ent(2, "ctd", map[string]string{"chemical": "Methotrexate"}))
	if len(m) != 1 || !r.Same(1, 2) {
		t.Fatalf("cross-source duplicate not found: %v", m)
	}
	if m[0].Score < 0.8 {
		t.Errorf("score = %v", m[0].Score)
	}
	// A distinct drug must not match.
	m = r.Add(ent(3, "uniprot", map[string]string{"name": "Ibuprofen"}))
	if m != nil {
		t.Errorf("Ibuprofen matched: %v", m)
	}
	if got := r.Canonical(2); got != r.Canonical(1) {
		t.Error("canonical broken")
	}
	if len(r.Clusters()) != 1 {
		t.Errorf("Clusters = %v", r.Clusters())
	}
}

func TestSameSourceNeverMatches(t *testing.T) {
	r := NewResolver(Config{})
	r.Add(ent(1, "s", map[string]string{"name": "Warfarin"}))
	m := r.Add(ent(2, "s", map[string]string{"name": "Warfarin"}))
	if m != nil {
		t.Error("same-source records must not match")
	}
}

func TestTypoMatch(t *testing.T) {
	r := NewResolver(Config{})
	r.Add(ent(1, "a", map[string]string{"name": "Acetaminophen"}))
	m := r.Add(ent(2, "b", map[string]string{"drug": "Acetaminophe"})) // dropped char
	if len(m) != 1 {
		t.Errorf("typo duplicate not matched: %v", m)
	}
}

func TestBlockingPrunesComparisons(t *testing.T) {
	// 100 entities with disjoint names: with blocking, nothing shares a
	// key, so zero comparisons happen.
	r := NewResolver(Config{})
	for i := 0; i < 100; i++ {
		r.Add(ent(model.EntityID(i+1), fmt.Sprintf("s%d", i), map[string]string{
			"name": fmt.Sprintf("uniq%04d item", i),
		}))
	}
	// All share the token "item" → prefix "item" collides; cap bounds it.
	if r.Comparisons > 100*64 {
		t.Errorf("comparisons = %d, cap broken", r.Comparisons)
	}
	r2 := NewResolver(Config{})
	for i := 0; i < 100; i++ {
		r2.Add(ent(model.EntityID(i+1), fmt.Sprintf("s%d", i), map[string]string{
			"name": fmt.Sprintf("%04dzz", i), // distinct 4-char prefixes
		}))
	}
	if r2.Comparisons != 0 {
		t.Errorf("disjoint names: comparisons = %d, want 0", r2.Comparisons)
	}
}

func TestBatchEqualsIncrementalClusters(t *testing.T) {
	mk := func() []*model.Entity {
		return []*model.Entity{
			ent(1, "a", map[string]string{"name": "Warfarin", "use": "blood clot"}),
			ent(2, "b", map[string]string{"drug": "Warfarin"}),
			ent(3, "c", map[string]string{"chem": "warfarin sodium", "name": "Warfarin"}),
			ent(4, "a", map[string]string{"name": "Ibuprofen"}),
			ent(5, "b", map[string]string{"drug": "Ibuprofen (Advil)"}),
			ent(6, "c", map[string]string{"name": "Methotrexate"}),
		}
	}
	_, batchMatches := ResolveBatch(mk(), Config{})
	inc := NewResolver(Config{})
	incMatches := inc.AddAll(mk())
	if len(batchMatches) != len(incMatches) {
		t.Errorf("batch %d matches, incremental %d", len(batchMatches), len(incMatches))
	}
	if !inc.Same(1, 2) || !inc.Same(2, 3) {
		t.Error("warfarin cluster incomplete")
	}
	if !inc.Same(4, 5) {
		t.Error("ibuprofen cluster incomplete")
	}
	if inc.Same(1, 6) || inc.Same(1, 4) {
		t.Error("false merge")
	}
}

func TestDisableBlockingAblation(t *testing.T) {
	mk := func() []*model.Entity {
		var es []*model.Entity
		for i := 0; i < 60; i++ {
			// Each real entity has a distinct leading token, so blocking
			// keys separate non-duplicates.
			es = append(es, ent(model.EntityID(i+1), fmt.Sprintf("s%d", i%4),
				map[string]string{"name": fmt.Sprintf("%04dxx", i/4)}))
		}
		return es
	}
	blocked := NewResolver(Config{})
	blocked.AddAll(mk())
	exhaustive := NewResolver(Config{DisableBlocking: true})
	exhaustive.AddAll(mk())
	// Exhaustive comparison does strictly more work...
	if exhaustive.Comparisons <= blocked.Comparisons {
		t.Errorf("exhaustive %d vs blocked %d comparisons", exhaustive.Comparisons, blocked.Comparisons)
	}
	// ...for the same clusters on this corpus (blocking loses no recall
	// when duplicates share key prefixes).
	if len(blocked.Clusters()) != len(exhaustive.Clusters()) {
		t.Errorf("clusters: blocked %d vs exhaustive %d",
			len(blocked.Clusters()), len(exhaustive.Clusters()))
	}
}

func TestPropertySimilaritiesBounded(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 100 {
			a = a[:100]
		}
		if len(b) > 100 {
			b = b[:100]
		}
		for _, s := range []float64{StringSim(a, b), textbookTrigramSim(a, b), textbookLevenshteinSim(a, b)} {
			if s < 0 || s > 1 {
				return false
			}
		}
		// Symmetry of StringSim.
		return StringSim(a, b) == StringSim(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIdenticalStringsMatch(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, 3+r.Intn(20))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		s := string(b)
		return StringSim(s, s) == 1 && textbookLevenshtein(s, s) == 0 && kernelDistance(s, s) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalCheaperThanRepeatedBatch(t *testing.T) {
	// Simulate sources arriving one at a time: incremental resolves each
	// arrival once; the baseline re-runs batch ER over everything so far.
	// The experiment's claim (E-FS1) is that incremental does strictly
	// less comparison work.
	mkSource := func(src int) []*model.Entity {
		var out []*model.Entity
		for i := 0; i < 30; i++ {
			out = append(out, ent(model.EntityID(src*1000+i), fmt.Sprintf("src%d", src),
				map[string]string{"name": fmt.Sprintf("entity number %04d", i)}))
		}
		return out
	}
	inc := NewResolver(Config{})
	incWork := 0
	batchWork := 0
	var all []*model.Entity
	for s := 0; s < 5; s++ {
		src := mkSource(s)
		inc.AddAll(src)
		incWork = inc.Comparisons
		all = append(all, src...)
		b, _ := ResolveBatch(all, Config{})
		batchWork += b.Comparisons
	}
	if incWork >= batchWork {
		t.Errorf("incremental %d comparisons vs cumulative batch %d", incWork, batchWork)
	}
	// Both must find the same clusters in the end.
	b, _ := ResolveBatch(all, Config{})
	if len(inc.Clusters()) != len(b.Clusters()) {
		t.Errorf("cluster count diverges: inc=%d batch=%d", len(inc.Clusters()), len(b.Clusters()))
	}
}
