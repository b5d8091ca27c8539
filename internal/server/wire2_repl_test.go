package server_test

import (
	"bytes"
	"strings"
	"testing"

	"scdb/internal/server"
	"scdb/internal/storage"
)

// TestWireV2ReplSubscribeAckRoundTrip: the control frames of the
// replication stream survive encode/decode exactly.
func TestWireV2ReplSubscribeAckRoundTrip(t *testing.T) {
	e := server.GetV2Enc()
	f := readFrameBytes(t, server.EncodeV2ReplSubscribe(e, 7, 123456))
	e.Release()
	if f.Op != server.V2OpReplSubscribe || f.ID != 7 {
		t.Fatalf("subscribe frame op=%#x id=%d", f.Op, f.ID)
	}
	if csn, err := server.DecodeV2ReplSubscribe(f.Payload); err != nil || csn != 123456 {
		t.Fatalf("DecodeV2ReplSubscribe = %d, %v", csn, err)
	}

	e = server.GetV2Enc()
	f = readFrameBytes(t, server.EncodeV2ReplAck(e, 9, 987654321))
	e.Release()
	if f.Op != server.V2OpReplAck || f.ID != 9 {
		t.Fatalf("ack frame op=%#x id=%d", f.Op, f.ID)
	}
	if csn, err := server.DecodeV2ReplAck(f.Payload); err != nil || csn != 987654321 {
		t.Fatalf("DecodeV2ReplAck = %d, %v", csn, err)
	}
}

// TestWireV2ReplFramesRoundTrip: a shipped entry batch — mixed ops, batch
// frames with their entry counts, empty heartbeats — round-trips with
// every field intact.
func TestWireV2ReplFramesRoundTrip(t *testing.T) {
	entries := []storage.ReplEntry{
		{Op: 1, CSN: 5, Table: "drugs"},
		{Op: 2, CSN: 6, Table: "drugs", RowID: 42, Data: []byte("payload-a")},
		{Op: 5, CSN: 7, Table: "ctd", RowID: 3, Data: []byte{0x01, 0x00, 0xff}},
		{Op: 4, CSN: 8, Table: "drugs", RowID: 42},
	}
	e := server.GetV2Enc()
	f := readFrameBytes(t, server.EncodeV2ReplFrames(e, 11, 8, entries))
	e.Release()
	if f.Op != server.V2OpReplFrames || f.ID != 11 {
		t.Fatalf("frames op=%#x id=%d", f.Op, f.ID)
	}
	b, err := server.DecodeV2ReplBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != server.V2ReplKindEntries || b.Watermark != 8 {
		t.Fatalf("kind=%d watermark=%d", b.Kind, b.Watermark)
	}
	if len(b.Entries) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(b.Entries), len(entries))
	}
	for i, want := range entries {
		got := b.Entries[i]
		if got.Op != want.Op || got.CSN != want.CSN || got.Table != want.Table || got.RowID != want.RowID || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("entry %d = %+v, want %+v", i, got, want)
		}
	}

	// Heartbeat: no entries, watermark only.
	e = server.GetV2Enc()
	f = readFrameBytes(t, server.EncodeV2ReplFrames(e, 12, 99, nil))
	e.Release()
	b, err = server.DecodeV2ReplBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != server.V2ReplKindEntries || b.Watermark != 99 || len(b.Entries) != 0 {
		t.Fatalf("heartbeat kind=%d watermark=%d entries=%d", b.Kind, b.Watermark, len(b.Entries))
	}
}

// TestWireV2ReplSnapshotRoundTrip: snapshot bootstrap chunks and the
// closing done frame carry their bytes and stamp exactly.
func TestWireV2ReplSnapshotRoundTrip(t *testing.T) {
	chunk := bytes.Repeat([]byte{0xab, 0x00, 0x7f}, 100)
	e := server.GetV2Enc()
	f := readFrameBytes(t, server.EncodeV2ReplSnapChunk(e, 3, chunk))
	e.Release()
	b, err := server.DecodeV2ReplBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != server.V2ReplKindSnapChunk || !bytes.Equal(b.Chunk, chunk) {
		t.Fatalf("chunk kind=%d len=%d", b.Kind, len(b.Chunk))
	}

	e = server.GetV2Enc()
	f = readFrameBytes(t, server.EncodeV2ReplSnapDone(e, 3, 7777))
	e.Release()
	b, err = server.DecodeV2ReplBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != server.V2ReplKindSnapDone || b.SnapCSN != 7777 {
		t.Fatalf("done kind=%d snapCSN=%d", b.Kind, b.SnapCSN)
	}
}

// TestWireV2ReplMalformed: truncated or lying payloads must return errors,
// never panic or fabricate entries.
func TestWireV2ReplMalformed(t *testing.T) {
	if _, err := server.DecodeV2ReplSubscribe(nil); err == nil {
		t.Error("empty subscribe payload must fail")
	}
	if _, err := server.DecodeV2ReplAck([]byte{0x80}); err == nil {
		t.Error("truncated ack uvarint must fail")
	}
	if _, err := server.DecodeV2ReplBatch(nil); err == nil {
		t.Error("empty batch payload must fail")
	}
	// Kind byte says entries, count says plenty, payload holds none.
	if _, err := server.DecodeV2ReplBatch([]byte{0, 1, 200}); err == nil {
		t.Error("overstated entry count must fail")
	}
	if _, err := server.DecodeV2ReplBatch([]byte{77}); err == nil {
		t.Error("unknown batch kind must fail")
	}
}

// TestWireV2ReplResultCSN: ping and ingest results carry the node's commit
// stamp, and a result that lost it fails as truncated rather than reading
// as stamp 0.
func TestWireV2ReplResultCSN(t *testing.T) {
	e := server.GetV2Enc()
	ping := readFrameBytes(t, server.EncodeV2PingResult(e, 5, 4242)).Payload
	e.Release()
	res, err := server.DecodeV2Result(ping)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != server.V2OpPing || res.CSN != 4242 {
		t.Fatalf("ping result kind=%#x csn=%d", res.Kind, res.CSN)
	}

	e = server.GetV2Enc()
	ingest := readFrameBytes(t, server.EncodeV2IngestResult(e, 6, server.IngestSummary{Batches: 1, Rows: 3}, "trace-body", 99)).Payload
	e.Release()
	res, err = server.DecodeV2Result(ingest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != server.V2OpIngestBatch || res.Ingest.Rows != 3 || res.Trace != "trace-body" || res.CSN != 99 {
		t.Fatalf("ingest result kind=%#x trace=%q csn=%d", res.Kind, res.Trace, res.CSN)
	}

	// Without its stamp a result would leave a session's read-your-writes
	// mark behind its write: it is truncated.
	for name, p := range map[string][]byte{"ping": ping, "ingest": ingest} {
		if _, err := server.DecodeV2Result(p[:len(p)-1]); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("%s result without its last stamp byte: %v, want a truncated-frame error", name, err)
		}
	}
}
