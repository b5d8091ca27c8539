package server_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/model"
	"scdb/internal/server"
)

// readFrameBytes parses a finished frame buffer back into a V2Frame.
func readFrameBytes(t *testing.T, frame []byte) server.V2Frame {
	t.Helper()
	f, err := server.ReadV2Frame(bytes.NewReader(frame), server.DefaultMaxFrame)
	if err != nil {
		t.Fatalf("ReadV2Frame: %v", err)
	}
	return f
}

// TestWireV2RowBatchRoundTrip: every value kind — including the ones that
// break lesser encodings (NaN, ±Inf, zero times, nested lists, refs) —
// survives the columnar batch codec exactly.
func TestWireV2RowBatchRoundTrip(t *testing.T) {
	ts := time.Date(2026, 8, 9, 12, 30, 0, 987654321, time.UTC)
	batch := [][]model.Value{
		{model.Int(42), model.Float(math.NaN()), model.String("alpha"), model.Time(ts), model.Ref(7)},
		{model.Int(-1), model.Float(math.Inf(1)), model.String("beta"), model.Time(ts.Add(time.Hour)), model.Ref(9)},
		{model.Int(0), model.Float(math.Inf(-1)), model.String("alpha"), model.Time(time.Unix(0, 0)), model.Ref(0)},
	}
	e := server.GetV2Enc()
	frame := server.EncodeV2RowBatch(e, 3, batch)
	f := readFrameBytes(t, frame)
	if f.Op != server.V2OpRowBatch || f.ID != 3 {
		t.Fatalf("frame op=%#x id=%d", f.Op, f.ID)
	}
	rows, err := server.DecodeV2RowBatch(f.Payload, nil)
	e.Release()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("decoded %d rows, want 3", len(rows))
	}
	if rows[0][0] != int64(42) || rows[1][0] != int64(-1) {
		t.Errorf("int lane: %v %v", rows[0][0], rows[1][0])
	}
	if !math.IsNaN(rows[0][1].(float64)) || !math.IsInf(rows[1][1].(float64), 1) || !math.IsInf(rows[2][1].(float64), -1) {
		t.Errorf("float lane lost NaN/Inf: %v %v %v", rows[0][1], rows[1][1], rows[2][1])
	}
	if rows[0][2] != "alpha" || rows[1][2] != "beta" || rows[2][2] != "alpha" {
		t.Errorf("string lane: %v %v %v", rows[0][2], rows[1][2], rows[2][2])
	}
	if got := rows[0][3].(time.Time); !got.Equal(ts) {
		t.Errorf("time lane: %v != %v", got, ts)
	}
	if rows[1][4] != scdb.EntityRef(9) {
		t.Errorf("ref lane: %v", rows[1][4])
	}

	// Mixed column: nulls, bools, bytes, and a nested list force the
	// per-value fallback.
	mixed := [][]model.Value{
		{model.Null(), model.Bool(true)},
		{model.Bytes([]byte{0x00, 0xFF}), model.List(model.Int(1), model.List(model.String("deep")))},
	}
	e = server.GetV2Enc()
	frame = server.EncodeV2RowBatch(e, 4, mixed)
	rows, err = server.DecodeV2RowBatch(readFrameBytes(t, frame).Payload, nil)
	e.Release()
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != nil || rows[0][1] != true {
		t.Errorf("mixed row 0: %v", rows[0])
	}
	if !bytes.Equal(rows[1][0].([]byte), []byte{0x00, 0xFF}) {
		t.Errorf("bytes cell: %v", rows[1][0])
	}
	list := rows[1][1].([]any)
	if list[0] != int64(1) || list[1].([]any)[0] != "deep" {
		t.Errorf("nested list: %v", list)
	}
}

// TestWireV2RequestRoundTrips covers the request codecs the server
// dispatches on.
func TestWireV2RequestRoundTrips(t *testing.T) {
	e := server.GetV2Enc()
	frame := server.EncodeV2Query(e, 11, server.V2OpQuery, "SELECT 1", 2500)
	f := readFrameBytes(t, frame)
	q, ms, err := server.DecodeV2Query(f.Payload)
	e.Release()
	if err != nil || q != "SELECT 1" || ms != 2500 {
		t.Fatalf("query round trip: q=%q ms=%d err=%v", q, ms, err)
	}

	src := scdb.Source{
		Name: "feed",
		Entities: []scdb.Entity{{
			Key:   "k1",
			Types: []string{"Drug"},
			Attrs: scdb.Record{"name": "aspirin", "mass": 180.157, "n": int64(3), "tags": []any{"a", int64(2)}},
		}},
		Links: []scdb.Link{
			{FromKey: "k1", Predicate: "treats", ToKey: "k2", Confidence: 0.9},
			{FromKey: "k1", Predicate: "mass", Value: 180.157, Confidence: 1},
		},
		Texts: []string{"aspirin treats headache"},
	}
	// A whole source travels as the header plus one done chunk, what
	// Client.Ingest sends.
	e = server.GetV2Enc()
	name, ms, trace, err := server.DecodeV2IngestBatchHeader(readFrameBytes(t, server.EncodeV2IngestBatchHeader(e, 12, src.Name, 0, true)).Payload)
	e.Release()
	if err != nil || name != "feed" || ms != 0 || !trace {
		t.Fatalf("ingest header round trip: name=%q ms=%d trace=%v err=%v", name, ms, trace, err)
	}
	whole := server.V2Chunk{Entities: src.Entities, Links: src.Links, Texts: src.Texts, Done: true}
	e = server.GetV2Enc()
	frame2, err := server.EncodeV2IngestChunk(e, 12, whole)
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.DecodeV2IngestChunk(readFrameBytes(t, frame2).Payload)
	e.Release()
	if err != nil || !got.Done {
		t.Fatalf("ingest chunk round trip: done=%v err=%v", got.Done, err)
	}
	if len(got.Entities) != 1 || len(got.Links) != 2 || len(got.Texts) != 1 {
		t.Fatalf("ingest shape: %+v", got)
	}
	if got.Entities[0].Attrs["mass"] != 180.157 || got.Entities[0].Attrs["n"] != int64(3) {
		t.Errorf("attrs: %v", got.Entities[0].Attrs)
	}
	if got.Links[1].Value != 180.157 || got.Links[0].ToKey != "k2" {
		t.Errorf("links: %+v", got.Links)
	}

	// Identical sources encode to identical bytes (attr keys are sorted),
	// which the checked-in fuzz corpus depends on.
	ea, eb := server.GetV2Enc(), server.GetV2Enc()
	fa, _ := server.EncodeV2IngestChunk(ea, 12, whole)
	fb, _ := server.EncodeV2IngestChunk(eb, 12, whole)
	if !bytes.Equal(fa, fb) {
		t.Error("ingest encoding is not deterministic")
	}
	ea.Release()
	eb.Release()

	e = server.GetV2Enc()
	frame = server.EncodeV2Error(e, 13, server.CodeDeadline, "too slow")
	code, msg, err := server.DecodeV2Error(readFrameBytes(t, frame).Payload)
	e.Release()
	if err != nil || code != server.CodeDeadline || msg != "too slow" {
		t.Fatalf("error round trip: %q %q %v", code, msg, err)
	}

	info := &scdb.QueryInfo{Plan: "Scan(t)", Rules: []string{"pushdown"}, CacheHit: true, EstimatedCost: 12.5}
	e = server.GetV2Enc()
	frame = server.EncodeV2QueryResult(e, 14, []string{"a", "b"}, info)
	res, err := server.DecodeV2Result(readFrameBytes(t, frame).Payload)
	e.Release()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != server.V2OpQuery || len(res.Columns) != 2 || res.Info.Plan != "Scan(t)" ||
		!res.Info.CacheHit || res.Info.EstimatedCost != 12.5 {
		t.Fatalf("query result round trip: %+v info=%+v", res, res.Info)
	}
}

// TestWireV2MalformedFrames: truncated and corrupted payloads must come
// back as errors — never panics, never absurd allocations.
func TestWireV2MalformedFrames(t *testing.T) {
	e := server.GetV2Enc()
	frame := server.EncodeV2RowBatch(e, 1, [][]model.Value{
		{model.Int(1), model.String("x")},
		{model.Int(2), model.String("y")},
	})
	payload := append([]byte(nil), readFrameBytes(t, frame).Payload...)
	e.Release()

	// Every prefix of a valid payload must fail cleanly, not panic.
	for n := 0; n < len(payload); n++ {
		if _, err := server.DecodeV2RowBatch(payload[:n], nil); err == nil && n < len(payload)-1 {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Every single-byte corruption must decode, error, or be value-different
	// — never panic (the assertion is simply that this loop completes).
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xFF
		server.DecodeV2RowBatch(mut, nil)
	}

	// A frame declaring a huge intern table must be rejected up front.
	if _, _, err := server.DecodeV2Query([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Error("huge intern-table count decoded")
	}

	// Oversized frame lengths are rejected before the payload is read.
	big := []byte{0x40, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01}
	if _, err := server.ReadV2Frame(bytes.NewReader(big), 1<<20); !errors.Is(err, server.ErrFrameTooLarge) {
		t.Errorf("oversized frame: %v", err)
	}
}

// TestWireV2Negotiation: the hello exchange settles against a real
// server, and a peer that answers the hello with anything else — here
// what a protocol-v1 server sent back, and a peer that just hangs up —
// makes Dial fail naming the protocol mismatch.
func TestWireV2Negotiation(t *testing.T) {
	db := openDB(t, lifesciOptions())
	_, addr := startServer(t, db, nil)
	if err := dial(t, addr).Ping(); err != nil {
		t.Fatal(err)
	}

	for name, answer := range map[string][]byte{
		"wrong hello": []byte("\x00\x00\x00\x1f{\"code\":\"bad_request\"}"),
		"no hello":    nil,
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				defer nc.Close()
				io.ReadFull(nc, make([]byte, 8)) // the client hello
				nc.Write(answer)
			}()
			c, err := client.Dial(ln.Addr().String())
			if err == nil {
				c.Close()
				t.Fatal("dial succeeded against a peer that does not speak the protocol")
			}
			if !strings.Contains(err.Error(), "protocol mismatch") {
				t.Errorf("dial error does not name the mismatch: %v", err)
			}
		})
	}
}
