package scdb_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"scdb"
	"scdb/internal/curate"
	"scdb/internal/model"
	"scdb/internal/server"
)

// everyKind is a source whose attributes and link literals hold every kind
// a value can have: a string, an int and an int64, a float, a bool, a time
// given outside UTC, bytes nil, empty and not, a nested list, a ref and a
// null; typed and untyped entities, one with no attributes and one with
// seven.
func everyKind() scdb.Source {
	when := time.Date(2026, 3, 4, 5, 6, 7, 8, time.FixedZone("UTC+5", 5*3600))
	src := scdb.Source{Name: "kinds"}
	for i := 0; i < 5; i++ {
		attrs := scdb.Record{
			"s": fmt.Sprint("value ", i), "n": i, "i64": int64(-7 * i), "f": float64(i) + 0.25,
			"b": i%2 == 0, "t": when.Add(time.Duration(i) * time.Hour), "ref": scdb.EntityRef(100 + i),
			"null": nil, "list": []any{"x", int64(i), []any{1.5, true, nil}},
		}
		switch i % 3 {
		case 0:
			attrs["raw"] = []byte(nil)
		case 1:
			attrs["raw"] = []byte{}
		default:
			attrs["raw"] = []byte{byte(i), 0, 0xff}
		}
		ent := scdb.Entity{Key: fmt.Sprintf("k-%d", i), Attrs: attrs}
		if i%2 == 1 {
			ent.Types = []string{"Thing", "Other"}
		}
		src.Entities = append(src.Entities, ent)
	}
	// Seven attributes fill a small map's group but for one slot.
	seven := scdb.Record{}
	for i := 0; i < 7; i++ {
		seven[fmt.Sprint("a", i)] = fmt.Sprint("v", i)
	}
	src.Entities = append(src.Entities, scdb.Entity{Key: "bare"}, scdb.Entity{Key: "seven", Attrs: seven})
	for i, lit := range []any{"text", 3, int64(4), 2.5, false, when, []byte{1, 2}, []byte(nil), scdb.EntityRef(9), []any{"a", []any{int64(1)}}, nil} {
		src.Links = append(src.Links, scdb.Link{FromKey: fmt.Sprintf("k-%d", i%5), Predicate: fmt.Sprintf("p%d", i), Value: lit, Confidence: float64(i) / 10})
	}
	src.Links = append(src.Links, scdb.Link{FromKey: "k-1", Predicate: "peer", ToKey: "k-2", Confidence: 1})
	src.Texts = []string{"k-1 is a peer of k-2"}
	return src
}

// addRowColumns adds the stored row's own two columns to every entity's
// map, as the pipeline does, and returns the objects that took.
func addRowColumns(d curate.Delivery) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, a := range d.Entities {
		a.Attrs[model.KeyAttr] = model.String(a.Key)
		a.Attrs[model.TypesAttr] = model.Null()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// chunkFrame is the frame the public encoder writes for src, whole.
func chunkFrame(t *testing.T, src scdb.Source) []byte {
	t.Helper()
	e := server.GetV2Enc()
	defer e.Release()
	frame, err := server.EncodeV2IngestChunk(e, 7, server.V2Chunk{Entities: src.Entities, Links: src.Links, Texts: src.Texts, Done: true})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(frame)
}

// TestArrivalFramesMatchPublicFrames: for every kind, the arrival encoder
// (what the router forwards) writes the frame the public encoder writes
// for the same delivery, byte for byte, whole and split as IngestBatch
// splits it.
func TestArrivalFramesMatchPublicFrames(t *testing.T) {
	src := everyKind()
	d, err := scdb.ToDelivery(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 3, len(src.Entities)} {
		for _, done := range []bool{false, true} {
			pub := server.V2Chunk{Entities: src.Entities[cut:], Done: done}
			part := curate.Delivery{Entities: d.Entities[cut:]}
			if done {
				pub.Links, pub.Texts = src.Links, src.Texts
				part.Links, part.Texts = d.Links, d.Texts
			}
			e := server.GetV2Enc()
			want, err := server.EncodeV2IngestChunk(e, 7, pub)
			if err != nil {
				t.Fatal(err)
			}
			want = bytes.Clone(want)
			e.Release()
			e = server.GetV2Enc()
			got, err := server.EncodeV2Arrivals(e, 7, part, done)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("entities [%d:], done %v: the arrival frame differs from the public one\n got %x\nwant %x", cut, done, got, want)
			}
			e.Release()
		}
	}
}

// TestArrivalDecoderMatchesToDelivery: the one chunk decoder yields, for
// every kind, exactly the delivery the facade builds from the public
// entities (ToDelivery), and each attribute map takes the row's own two
// columns as the facade's does; nothing it returns aliases the frame,
// which is scribbled over before the comparison.
func TestArrivalDecoderMatchesToDelivery(t *testing.T) {
	src := everyKind()
	want, err := scdb.ToDelivery(src)
	if err != nil {
		t.Fatal(err)
	}
	frame := chunkFrame(t, src)
	f, err := server.ReadV2Frame(bytes.NewReader(frame), 0)
	if err != nil {
		t.Fatal(err)
	}
	got, done, err := server.DecodeV2Arrivals(f.Payload)
	if err != nil || !done {
		t.Fatalf("decode: done %v, %v", done, err)
	}
	for i := range f.Payload {
		f.Payload[i] = 0xee
	}
	if got.Source != "" || fmt.Sprint(got.Texts) != fmt.Sprint(want.Texts) {
		t.Errorf("source %q texts %q, want no source and texts %q", got.Source, got.Texts, want.Texts)
	}
	if len(got.Entities) != len(want.Entities) {
		t.Fatalf("%d entities, want %d", len(got.Entities), len(want.Entities))
	}
	for i, a := range got.Entities {
		w := want.Entities[i]
		if a.Key != w.Key || fmt.Sprint(a.Types) != fmt.Sprint(w.Types) || (a.Types == nil) != (w.Types == nil) {
			t.Errorf("entity %d: key %q types %q, want %q %q", i, a.Key, a.Types, w.Key, w.Types)
		}
		if g, w := model.AppendRecord(nil, a.Attrs), model.AppendRecord(nil, w.Attrs); !bytes.Equal(g, w) {
			t.Errorf("entity %q: attributes %x, want %x", a.Key, g, w)
		}
	}
	// The maps take the stored row's own columns as the facade's do: a
	// map with attributes without growing, an empty one in its first
	// group.
	if g, w := addRowColumns(got), addRowColumns(want); g != w {
		t.Errorf("the decoded maps allocated %d objects to take the row's own columns, the facade's %d", g, w)
	}
	if len(got.Links) != len(want.Links) {
		t.Fatalf("%d links, want %d", len(got.Links), len(want.Links))
	}
	for i, l := range got.Links {
		w := want.Links[i]
		if l.FromKey != w.FromKey || l.Predicate != w.Predicate || l.ToKey != w.ToKey || l.Confidence != w.Confidence ||
			!bytes.Equal(model.AppendValue(nil, l.Literal), model.AppendValue(nil, w.Literal)) {
			t.Errorf("link %d: %+v, want %+v", i, l, w)
		}
	}
}
