package er

import (
	"bytes"
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"scdb/internal/model"
)

// refDigest and refDigestBatch are Digest and DigestBatch as they were while
// the resolver kept attributes in a map: the er_digests blob shards have
// always sent. The tests hold the slice-backed forms to their bytes.
type refDigest struct {
	Source string            `json:"source"`
	Key    string            `json:"key"`
	Tokens []string          `json:"tokens,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

type refDigestBatch struct {
	Digests  []refDigest `json:"digests,omitempty"`
	Merges   [][2]RefKey `json:"merges,omitempty"`
	Ents     int         `json:"ents"`
	Matches  int         `json:"matches"`
	Settings Config      `json:"settings"`
}

func refBatchOf(b DigestBatch) refDigestBatch {
	r := refDigestBatch{Merges: b.Merges, Ents: b.Ents, Matches: b.Matches, Settings: b.Settings}
	for _, d := range b.Digests {
		rd := refDigest{Source: d.Source, Key: d.Key, Tokens: d.Tokens}
		if d.Attrs != nil {
			rd.Attrs = map[string]string{}
			for _, at := range d.Attrs {
				rd.Attrs[at.Name] = at.Text
			}
		}
		r.Digests = append(r.Digests, rd)
	}
	return r
}

// attrsOf is the sorted Attrs of a map, the form the resolver keeps; nil
// for a nil map.
func attrsOf(m map[string]string) Attrs {
	if m == nil {
		return nil
	}
	a := Attrs{}
	for _, name := range slices.Sorted(maps.Keys(m)) {
		a = append(a, AttrText{Name: name, Text: m[name]})
	}
	return a
}

// awkwardNames are attribute names encoding/json has to escape: HTML
// characters, quotes, control characters, the JavaScript line separators,
// invalid UTF-8, and ordinary and non-ASCII names around them.
var awkwardNames = []string{
	"name", "Name", "a<b>&c", `q"uote`, `back\slash`, "tab\tnl\n", "ls\u2028ps\u2029",
	"bad\xffutf8", "ü", "日本", "", "z",
}

// TestDigestBatchJSONUnchanged: a shard's digest batch marshals to the bytes
// it marshalled to while attributes were a map, and those bytes decode to
// what the map-typed batch decodes them to, attributes sorted by name.
func TestDigestBatchJSONUnchanged(t *testing.T) {
	r := NewResolver(Config{Blocking: BlockingBoth})
	for i, name := range awkwardNames {
		r.Add(ent(model.EntityID(i+1), "src"+name, map[string]string{
			name:    "Methotrexate <Trexall> & co",
			"label": "sensor unit 00" + name,
			"other": "Ünïcödé \xff text",
		}))
	}
	r.Add(&model.Entity{ID: 99, Key: "bare", Source: "s", Attrs: model.Record{}})
	batch := r.DigestsSince(0, 0)
	if len(batch.Merges) == 0 {
		t.Fatal("the fixture merged nothing; the merges are not exercised")
	}
	got, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refBatchOf(batch))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("digest batch JSON moved:\n got %s\nwant %s", got, want)
	}

	// The old bytes decode to the batch the old type decodes them to, its
	// attributes sorted by name.
	var back DigestBatch
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	var refBack refDigestBatch
	if err := json.Unmarshal(want, &refBack); err != nil {
		t.Fatal(err)
	}
	if len(back.Digests) != len(refBack.Digests) {
		t.Fatalf("decoded %d digests, the old type %d", len(back.Digests), len(refBack.Digests))
	}
	for i, d := range back.Digests {
		if w := attrsOf(refBack.Digests[i].Attrs); !slices.Equal(d.Attrs, w) {
			t.Errorf("digest %d decoded to %q, the old type to %q", i, d.Attrs, w)
		}
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	refAgain, err := json.Marshal(refBack)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, refAgain) {
		t.Fatalf("decoded batch re-marshals differently:\n got %s\nwant %s", again, refAgain)
	}
}

// checkAttrsJSON holds Attrs to the map it replaced for one map: the same
// bytes out, and the map's bytes decoding to the sorted slice.
func checkAttrsJSON(t *testing.T, m map[string]string) {
	t.Helper()
	a := attrsOf(m)
	got, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Attrs %q marshal to %s, the map to %s", a, got, want)
	}
	var back Attrs
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	var viaMap map[string]string
	if err := json.Unmarshal(want, &viaMap); err != nil {
		t.Fatal(err)
	}
	if wantBack := attrsOf(viaMap); !slices.Equal(back, wantBack) {
		t.Fatalf("%s decodes to %q, through a map to %q", want, back, wantBack)
	}
}

func TestAttrsJSONMatchesMap(t *testing.T) {
	checkAttrsJSON(t, nil)
	checkAttrsJSON(t, map[string]string{})
	for _, name := range awkwardNames {
		for _, text := range awkwardNames {
			checkAttrsJSON(t, map[string]string{name: text, "x" + text: name})
		}
	}
	// Whitespace, a repeated name (the last text wins, as in a map), a null
	// text (the empty string, as in a map) and escapes in names and texts.
	var a Attrs
	if err := json.Unmarshal([]byte(` { "b" : "x" ,"a":"y","c":null,"b":"z\"" } `), &a); err != nil {
		t.Fatal(err)
	}
	if want := (Attrs{{"a", "y"}, {"b", `z"`}, {"c", ""}}); !slices.Equal(a, want) {
		t.Errorf("decoded %q, want %q", a, want)
	}
	for _, bad := range []string{`[]`, `{"a":1}`, `"a"`} {
		if err := json.Unmarshal([]byte(bad), &a); err == nil {
			t.Errorf("%s decoded as attributes: %q", bad, a)
		}
	}
}

func FuzzAttrsJSON(f *testing.F) {
	f.Add("name", "warfarin", "label", "a<b>")
	f.Add("bad\xff", "ls\u2028", "bad\xfe", "\x00")
	f.Add("", "", "z", `"\`)
	f.Fuzz(func(t *testing.T, n1, t1, n2, t2 string) {
		checkAttrsJSON(t, map[string]string{n1: t1, n2: t2})
	})
}
