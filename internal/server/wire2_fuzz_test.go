package server_test

import (
	"bytes"
	"testing"

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
		server.DecodeV2IngestChunk(data)
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
