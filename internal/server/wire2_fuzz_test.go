package server_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"scdb/internal/curate"
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

// sameArrivals compares two decoded chunks by their entities' keys, types
// and binary row encodings, and their links and texts.
func sameArrivals(a, b curate.Delivery) bool {
	if len(a.Entities) != len(b.Entities) || len(a.Links) != len(b.Links) || !slices.Equal(a.Texts, b.Texts) {
		return false
	}
	for i, x := range a.Entities {
		y := b.Entities[i]
		if x.Key != y.Key || !slices.Equal(x.Types, y.Types) || !bytes.Equal(model.AppendRecord(nil, x.Attrs), model.AppendRecord(nil, y.Attrs)) {
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
