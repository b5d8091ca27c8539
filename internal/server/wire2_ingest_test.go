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

// TestDecodeIngestChunkAllocs: the row decoder makes each entity's
// attribute map, with room for the stored row's own two columns, and
// nothing per cell, so decoding 200 entities costs a constant per entity:
// six string attributes cost what two do, and integers and floats what
// strings do. A frame adds its intern table and its entity array.
func TestDecodeIngestChunkAllocs(t *testing.T) {
	const n = 200
	decode := func(payload []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			d, _, err := server.DecodeV2Arrivals(payload)
			if err != nil || len(d.Entities) != n {
				t.Fatalf("decoded %d entities: %v", len(d.Entities), err)
			}
		})
	}
	two := decode(ingestChunkPayload(t, n, stringAttrs(2)))
	six := decode(ingestChunkPayload(t, n, stringAttrs(6)))
	mixed := decode(ingestChunkPayload(t, n, func(i int) scdb.Record {
		return scdb.Record{"name": fmt.Sprint("n", i), "qty": int64(i), "price": float64(i) / 4}
	}))
	t.Logf("decode of %d entities: %.0f objects with 2 string attributes, %.0f with 6, %.0f with string, int and float", n, two, six, mixed)
	if six != two || mixed != two {
		t.Errorf("6 string attributes cost %.0f objects, 3 of three kinds %.0f, 2 strings %.0f: a per-cell term is back", six, mixed, two)
	}
	if perEntity := two / n; perEntity > 2.05 {
		t.Errorf("decode allocates %.2f objects per entity, want at most 2.05 (an attribute map, nothing per cell)", perEntity)
	}
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
