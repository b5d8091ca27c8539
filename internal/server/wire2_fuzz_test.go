package server_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/model"
	"scdb/internal/server"
)

// FuzzWireV2 drives every v2 decoder with arbitrary bytes. The protocol
// contract under attack: malformed frames must produce errors — never a
// panic, and never an allocation sized by attacker-controlled counts
// (the decoders validate every count against the bytes that remain). The
// seed corpus under testdata/fuzz/FuzzWireV2 holds encoder-produced
// frames of every message shape, so mutations start from valid inputs.
// There is no gob or JSON in this path — the decoders are plain slice
// walkers.
func FuzzWireV2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x06, 0x02, 0x00, 0x00, 0x00, 0x00, 0x01})
	for _, frame := range awkwardChunks(f) {
		f.Add(frame)
		pf, err := server.ReadV2Frame(bytes.NewReader(frame), 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(pf.Payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Frame layer: read frames until the stream errors or drains.
		r := bytes.NewReader(data)
		for {
			if _, err := server.ReadV2Frame(r, 1<<16); err != nil {
				break
			}
		}
		// Payload layer: the same bytes through every payload decoder.
		server.DecodeV2Query(data)
		server.DecodeV2IngestBatchHeader(data)
		// The ingest chunk's one decoder, and its public wrapper, which
		// must agree on what is a frame; a decoded chunk encodes back to
		// a frame that decodes to the same rows.
		d, done, err := server.DecodeV2Arrivals(data)
		if _, perr := server.DecodeV2IngestChunk(data); (perr == nil) != (err == nil) {
			t.Fatalf("the row decoder says %v and its public wrapper %v", err, perr)
		}
		if err == nil {
			e := server.GetV2Enc()
			frame, err := server.EncodeV2Arrivals(e, 1, d, done)
			if err != nil {
				t.Fatalf("re-encoding a decoded chunk: %v", err)
			}
			f, err := server.ReadV2Frame(bytes.NewReader(frame), 0)
			if err != nil {
				t.Fatal(err)
			}
			again, doneAgain, err := server.DecodeV2Arrivals(f.Payload)
			e.Release()
			if err != nil || doneAgain != done || !sameArrivals(d, again) {
				t.Fatalf("a decoded chunk did not survive a round trip: %v", err)
			}
		}
		server.DecodeV2Error(data)
		server.DecodeV2Result(data)
		if _, err := server.DecodeV2RowBatch(data, nil); err == nil {
			// Valid batches must re-survive a second decode pass (the
			// decoder must not have consumed state it depends on).
			if _, err := server.DecodeV2RowBatch(data, nil); err != nil {
				t.Fatalf("second decode of valid batch failed: %v", err)
			}
		}
	})
}

// awkwardChunks are chunk frames no maker writes but a peer may send: an
// entity's fields out of name order and one name given twice, typed and
// untyped entities, a value of every kind, a link and a text; then the
// same chunk with a reserved name after the repeated one.
func awkwardChunks(tb testing.TB) [][]byte {
	when := time.Date(2026, 5, 6, 7, 8, 9, 10, time.UTC)
	d := curate.Delivery{
		Links: []datagen.LinkSpec{{FromKey: "k-0", Predicate: "peer", ToKey: "k-1", Confidence: 0.5}},
		Texts: []string{"k-0 is a peer of k-1"},
	}
	for i := range 2 {
		a := curate.Arrival{Key: fmt.Sprint("k-", i), Fields: []curate.Field{
			{Name: "zeta", Value: model.String("z")},
			{Name: "name", Value: model.String("first")},
			{Name: "int", Value: model.Int(-3)},
			{Name: "float", Value: model.Float(0.25)},
			{Name: "bool", Value: model.Bool(true)},
			{Name: "time", Value: model.Time(when)},
			{Name: "bytes", Value: model.Bytes([]byte{0, 0xff})},
			{Name: "list", Value: model.List(model.String("x"), model.Int(1))},
			{Name: "ref", Value: model.Ref(100)},
			{Name: "null", Value: model.Null()},
			{Name: "name", Value: model.String("last")},
		}}
		if i == 1 {
			a.Types = []string{"Thing", "Other"}
		}
		d.Entities = append(d.Entities, a)
	}
	var out [][]byte
	for _, reserved := range []bool{false, true} {
		if reserved {
			last := &d.Entities[1]
			last.Fields = append(last.Fields, curate.Field{Name: model.TypesAttr, Value: model.String("Drug")})
		}
		e := server.GetV2Enc()
		frame, err := server.EncodeV2Arrivals(e, 3, d, true)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, bytes.Clone(frame))
		e.Release()
	}
	return out
}

// sameArrivals compares two decoded chunks by their entities' keys, types
// and fields, name for name and value encoding for value encoding in
// order, and their links and texts.
func sameArrivals(a, b curate.Delivery) bool {
	if len(a.Entities) != len(b.Entities) || len(a.Links) != len(b.Links) || !slices.Equal(a.Texts, b.Texts) {
		return false
	}
	for i, x := range a.Entities {
		y := b.Entities[i]
		if x.Key != y.Key || !slices.Equal(x.Types, y.Types) || !slices.EqualFunc(x.Fields, y.Fields, sameField) {
			return false
		}
	}
	for i, x := range a.Links {
		y := b.Links[i]
		if x.FromKey != y.FromKey || x.Predicate != y.Predicate || x.ToKey != y.ToKey ||
			math.Float64bits(x.Confidence) != math.Float64bits(y.Confidence) ||
			!bytes.Equal(model.AppendValue(nil, x.Literal), model.AppendValue(nil, y.Literal)) {
			return false
		}
	}
	return true
}

func sameField(a, b curate.Field) bool {
	return a.Name == b.Name && bytes.Equal(model.AppendValue(nil, a.Value), model.AppendValue(nil, b.Value))
}
