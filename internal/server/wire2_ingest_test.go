package server_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"scdb"
	"scdb/internal/server"
)

// ingestChunkPayload encodes a chunk of n entities with the given attribute
// maker and returns the frame's payload.
func ingestChunkPayload(t testing.TB, n int, attrs func(i int) scdb.Record) []byte {
	t.Helper()
	ents := make([]scdb.Entity, n)
	for i := range ents {
		ents[i] = scdb.Entity{Key: fmt.Sprintf("k-%06d", i), Attrs: attrs(i)}
	}
	return chunkPayload(t, ents)
}

// chunkPayload encodes a chunk of ents and returns the frame's payload.
func chunkPayload(t testing.TB, ents []scdb.Entity) []byte {
	t.Helper()
	e := server.GetV2Enc()
	defer e.Release()
	frame, err := server.EncodeV2IngestChunk(e, 1, server.V2Chunk{Entities: ents})
	if err != nil {
		t.Fatal(err)
	}
	f, err := server.ReadV2Frame(bytes.NewReader(frame), server.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return f.Payload
}

// stringAttrs gives entity i w string attributes.
func stringAttrs(w int) func(i int) scdb.Record {
	return func(i int) scdb.Record {
		r := scdb.Record{}
		for a := 0; a < w; a++ {
			r[fmt.Sprintf("attr%d", a)] = fmt.Sprintf("word%d other%d", i, a)
		}
		return r
	}
}

// TestDecodeIngestChunkAllocs: the chunk decoder makes no attribute map and
// nothing per cell or per entity: a frame costs its intern table, its
// entity array and the one array its entities' fields are carved from, so
// decoding 200 entities costs what decoding 2,000 does, six string
// attributes what two do, integers and floats what strings do, and typed
// entities one array more. It cost 403 objects for 200 entities, about 2
// an entity, while each entity decoded into an attribute map.
func TestDecodeIngestChunkAllocs(t *testing.T) {
	decode := func(n int, payload []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			d, _, err := server.DecodeV2Arrivals(payload)
			if err != nil || len(d.Entities) != n {
				t.Fatalf("decoded %d entities: %v", len(d.Entities), err)
			}
		})
	}
	mixed := func(i int) scdb.Record {
		return scdb.Record{"name": fmt.Sprint("n", i), "qty": int64(i), "price": float64(i) / 4}
	}
	two := decode(200, ingestChunkPayload(t, 200, stringAttrs(2)))
	t.Logf("decode of 200 entities with 2 string attributes: %.0f objects", two)
	if two > 4 {
		t.Errorf("a frame of 200 entities costs %.0f objects, want at most 4 (its intern table, entity array and field array)", two)
	}
	for _, n := range []int{200, 2000} {
		for name, payload := range map[string][]byte{
			"2 strings": ingestChunkPayload(t, n, stringAttrs(2)),
			"6 strings": ingestChunkPayload(t, n, stringAttrs(6)),
			"3 kinds":   ingestChunkPayload(t, n, mixed),
		} {
			if got := decode(n, payload); got != two {
				t.Errorf("%d entities of %s cost %.0f objects, 200 of 2 strings %.0f: a per-entity or per-cell term is back", n, name, got, two)
			}
		}
		if got := decode(n, typedChunkPayload(t, n)); got != two+1 {
			t.Errorf("%d typed entities cost %.0f objects, want %.0f: their types are one array", n, got, two+1)
		}
	}
}

// typedChunkPayload is ingestChunkPayload of n entities of two types and
// two string attributes each.
func typedChunkPayload(t testing.TB, n int) []byte {
	t.Helper()
	ents := make([]scdb.Entity, n)
	for i := range ents {
		ents[i] = scdb.Entity{Key: fmt.Sprintf("k-%06d", i), Types: []string{"Thing", "Other"}, Attrs: stringAttrs(2)(i)}
	}
	return chunkPayload(t, ents)
}

// TestDecodeIngestChunkCells: a cell from a slab is the value an ordinary
// conversion to any gives, of every kind an attribute can hold, and stays so
// after the garbage collector has run.
func TestDecodeIngestChunkCells(t *testing.T) {
	when := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	attrs := func(i int) scdb.Record {
		return scdb.Record{
			"s": fmt.Sprint("value ", i), "i": int64(i * 7), "f": float64(i) + 0.5,
			"b": i%2 == 0, "t": when.Add(time.Duration(i)), "raw": []byte{byte(i), 1},
			"list": []any{"x", int64(i)}, "ref": scdb.EntityRef(i), "null": nil,
		}
	}
	const n = 300
	c, err := server.DecodeV2IngestChunk(ingestChunkPayload(t, n, attrs))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if len(c.Entities) != n {
		t.Fatalf("decoded %d entities, want %d", len(c.Entities), n)
	}
	for i, e := range c.Entities {
		if want := attrs(i); !reflect.DeepEqual(e.Attrs, want) {
			t.Fatalf("entity %d decoded to %#v, want %#v", i, e.Attrs, want)
		}
		if e.Attrs["s"] != fmt.Sprint("value ", i) || e.Attrs["i"] != int64(i*7) || e.Attrs["f"] != float64(i)+0.5 {
			t.Fatalf("entity %d: slab cells do not compare equal to their values: %v", i, e.Attrs)
		}
	}
}

// TestDecodedArrivalsOwnTheirRoom: an arrival's fields and types are
// carved from arrays the frame's entities share, each capped at its own
// length, so appending to one arrival's copies it and never writes the
// next arrival's.
func TestDecodedArrivalsOwnTheirRoom(t *testing.T) {
	d, _, err := server.DecodeV2Arrivals(typedChunkPayload(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	first, next := &d.Entities[0], d.Entities[1]
	name, typ := next.Fields[0].Name, next.Types[0]
	first.Fields = append(first.Fields, first.Fields[0])
	first.Types = append(first.Types, "Intruder")
	if next.Fields[0].Name != name || next.Types[0] != typ {
		t.Errorf("appending to the first arrival wrote the next: its first field %q (was %q), first type %q (was %q)",
			next.Fields[0].Name, name, next.Types[0], typ)
	}
}
