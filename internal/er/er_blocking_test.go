package er

import (
	"strings"
	"testing"
	"unicode/utf8"

	"scdb/internal/datagen"
	"scdb/internal/model"
)

func TestRunePrefix(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abcdef", "abcd"},
		{"abc", "abc"},
		{"", ""},
		{"überwachung", "über"}, // 2-byte rune inside the window
		{"abcédef", "abcé"},     // multi-byte rune straddles byte 4
		{"日本語テスト", "日本語テ"},      // every rune is 3 bytes
		{"αβγ", "αβγ"},          // fewer runes than the prefix
	}
	for _, c := range cases {
		if got := runePrefix(c.in, 4); got != c.want {
			t.Errorf("runePrefix(%q, 4) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Regression: blockKeys used to byte-slice k[:blockPrefix], splitting a
// multi-byte UTF-8 rune that straddles the boundary and emitting invalid
// keys on non-ASCII attributes ("abcé" became "abc\xc3"). Keys must be
// valid UTF-8 rune prefixes, and non-ASCII near-duplicates must land in
// the same block and match.
func TestBlockKeysMultiByteRunes(t *testing.T) {
	r := NewResolver(Config{})
	ix := index(ent(1, "src", map[string]string{"name": "abcédef überwachungsstation"}), &r.arena)
	keys := blockKeys(nil, &ix)
	want := map[string]bool{"abcé": false, "über": false}
	for _, k := range keys {
		if !utf8.ValidString(k) {
			t.Errorf("block key %q is not valid UTF-8", k)
		}
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("block keys %q missing rune-prefix key %q", keys, k)
		}
	}

	m := r.Add(ent(1, "src-a", map[string]string{"name": "Überwachungsstation Müllheim"}))
	if m != nil {
		t.Fatalf("first entity matches nothing: %v", m)
	}
	if m := r.Add(ent(2, "src-b", map[string]string{"label": "Überwachungsstation Müllheim"})); len(m) != 1 {
		t.Fatalf("non-ASCII duplicate not matched via blocking: %v", m)
	}
}

// vetoAdvisor rejects pairs across a named source pair regardless of
// score — the shape of a rule-based curation model behind the pluggable
// seam.
type vetoAdvisor struct {
	threshold float64
	vetoA     string
	vetoB     string
}

func (v vetoAdvisor) Name() string { return "veto" }

func (v vetoAdvisor) Accept(a, b EntityView, score float64) bool {
	if (a.Source == v.vetoA && b.Source == v.vetoB) || (a.Source == v.vetoB && b.Source == v.vetoA) {
		return false
	}
	if len(a.Tokens) == 0 || a.Attrs == nil {
		return false // views must carry the index projection
	}
	return score >= v.threshold
}

func TestCurationAdvisorPluggable(t *testing.T) {
	attrs := map[string]string{"name": "methotrexate trexall"}
	base := NewResolver(Config{})
	base.Add(ent(1, "drugbank", attrs))
	if m := base.Add(ent(2, "ctd", attrs)); len(m) != 1 {
		t.Fatalf("threshold advisor should accept the pair: %v", m)
	}

	r := NewResolver(Config{Advisor: vetoAdvisor{threshold: 0.8, vetoA: "drugbank", vetoB: "ctd"}})
	r.Add(ent(1, "drugbank", attrs))
	if m := r.Add(ent(2, "ctd", attrs)); m != nil {
		t.Fatalf("veto advisor must reject the drugbank/ctd pair: %v", m)
	}
	if m := r.Add(ent(3, "uniprot", attrs)); len(m) == 0 {
		t.Fatal("veto advisor must still accept non-vetoed pairs")
	}
	if r.Comparisons == 0 {
		t.Error("rejected pairs still count as comparisons")
	}
}

// ingestIoT drives a resolver over the datasets in delivery order and
// returns the key→ID assignment.
func ingestIoT(cfg Config, sets []datagen.Dataset) (*Resolver, map[string]model.EntityID) {
	r := NewResolver(cfg)
	ids := map[string]model.EntityID{}
	next := model.EntityID(1)
	for _, ds := range sets {
		for _, spec := range ds.Entities {
			id, ok := ids[spec.Key]
			if !ok {
				id = next
				next++
				ids[spec.Key] = id
			}
			r.Add(&model.Entity{ID: id, Key: spec.Key, Source: ds.Source, Types: spec.Types, Attrs: spec.Attrs, Confidence: 1})
		}
	}
	return r, ids
}

// iotPrecision is pairwise cluster precision against the key's station
// suffix — the guard that recall is not bought by over-merging.
func iotPrecision(r *Resolver, ids map[string]model.EntityID) float64 {
	station := map[model.EntityID]string{}
	for k, id := range ids {
		station[id] = k[len(k)-6:]
	}
	tp, fp := 0, 0
	for _, cl := range r.Clusters() {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				if station[cl[i]] == station[cl[j]] {
					tp++
				} else {
					fp++
				}
			}
		}
	}
	if tp+fp == 0 {
		return 1
	}
	return float64(tp) / float64(tp+fp)
}

func iotRecall(r *Resolver, ids map[string]model.EntityID, truth []datagen.DirtyPair) float64 {
	hit := 0
	for _, p := range truth {
		if r.Same(ids[p.KeyA], ids[p.KeyB]) {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// TestBlockingRecallDifferential measures candidate-generation recall on
// the IoT near-duplicate corpus across blocking modes against the
// quadratic (DisableBlocking) ceiling. The corpus is adversarial for
// token-prefix blocking — a noisy record's identifying code token takes
// an early-character typo (hashing it into a different block) and every
// other label token is so common its block overflows the per-key cap —
// while the trigram embedding barely moves, so ANN candidate generation
// must dominate token blocking, and the union mode must dominate both. The
// corpus is large enough (960 stations) that the shipped block cap
// truncates the vocabulary blocks.
func TestBlockingRecallDifferential(t *testing.T) {
	sets, truth := datagen.IoTSensors(7, 2, 960, 1, 0.3)
	mode := func(cfg Config) (float64, Stats) {
		r, ids := ingestIoT(cfg, sets)
		if p := iotPrecision(r, ids); p < 0.9 {
			t.Errorf("%+v: cluster precision %.3f — recall bought by over-merging", cfg, p)
		}
		return iotRecall(r, ids, truth), r.Stats()
	}
	quadRecall, quadStats := mode(Config{DisableBlocking: true})
	tokRecall, tokStats := mode(Config{Blocking: BlockingToken})
	annRecall, annStats := mode(Config{Blocking: BlockingANN})
	bothRecall, bothStats := mode(Config{Blocking: BlockingBoth})

	t.Logf("recall: quadratic=%.3f token=%.3f ann=%.3f both=%.3f", quadRecall, tokRecall, annRecall, bothRecall)
	t.Logf("comparisons: quadratic=%d token=%d ann=%d both=%d", quadStats.Comparisons, tokStats.Comparisons, annStats.Comparisons, bothStats.Comparisons)

	if quadRecall < 0.99 {
		t.Fatalf("quadratic baseline must find (nearly) all duplicates, got %.3f", quadRecall)
	}
	if annRecall <= tokRecall {
		t.Errorf("ann recall %.3f must beat token recall %.3f on the typo corpus", annRecall, tokRecall)
	}
	if bothRecall < annRecall || bothRecall < tokRecall {
		t.Errorf("union mode recall %.3f must dominate token %.3f and ann %.3f", bothRecall, tokRecall, annRecall)
	}
	if quadRecall < bothRecall {
		t.Errorf("quadratic ceiling %.3f below union mode %.3f", quadRecall, bothRecall)
	}
	if annStats.Comparisons*4 > quadStats.Comparisons {
		t.Errorf("ann mode must score far fewer pairs than quadratic: %d vs %d", annStats.Comparisons, quadStats.Comparisons)
	}
	if tokStats.BlockSkips == 0 {
		t.Error("vocabulary blocks must overflow the per-key cap on this corpus")
	}
	if annStats.ANNProbes == 0 || bothStats.ANNProbes == 0 {
		t.Error("ann modes must report embedding-index probes")
	}
	if tokStats.ANNProbes != 0 {
		t.Errorf("token mode must not probe the embedding index, got %d", tokStats.ANNProbes)
	}
	if quadStats.BlockSkips != 0 || quadStats.Blocks != 0 {
		t.Errorf("quadratic mode maintains no blocks, got blocks=%d skips=%d", quadStats.Blocks, quadStats.BlockSkips)
	}
}

func TestBlockingModeParsing(t *testing.T) {
	for in, want := range map[string]BlockingMode{"": BlockingToken, "token": BlockingToken, "ann": BlockingANN, "both": BlockingBoth} {
		got, err := ParseBlocking(in)
		if err != nil || got != want {
			t.Errorf("ParseBlocking(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseBlocking("lsh"); err == nil || !strings.Contains(err.Error(), "lsh") {
		t.Errorf("ParseBlocking must reject unknown modes, got err=%v", err)
	}
}

// TestEmbedDeterminism: identical token sets embed identically, similar
// strings land closer than dissimilar ones, and vectors are unit-norm.
func TestEmbedDeterminism(t *testing.T) {
	a := embedTokens(nil, []string{"calibrated", "thermal", "station"})
	b := embedTokens(nil, []string{"calibrated", "thermal", "station"})
	if dot(a, b) < 0.999 {
		t.Fatalf("identical inputs must embed identically, cos=%f", dot(a, b))
	}
	typo := embedTokens(nil, []string{"calibratde", "thermal", "station"})
	far := embedTokens(nil, []string{"orbital", "acoustic", "sensor"})
	if dot(a, typo) <= dot(a, far) {
		t.Errorf("typo neighbor (cos=%f) must be closer than unrelated (cos=%f)", dot(a, typo), dot(a, far))
	}
	var norm float64
	for _, v := range a {
		norm += float64(v) * float64(v)
	}
	if norm < 0.999 || norm > 1.001 {
		t.Errorf("embedding must be L2-normalized, |v|²=%f", norm)
	}
}
