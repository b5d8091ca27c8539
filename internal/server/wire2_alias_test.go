package server

import (
	"reflect"
	"testing"
	"time"

	"scdb"
	"scdb/internal/er"
	"scdb/internal/model"
)

// TestDecodedValuesOutliveTheFrameBuffer: every decoder the client's read
// loop calls copies what it returns out of the payload, which is what lets
// the loop read the next frame into the same buffer. Each payload is
// decoded from a buffer, the buffer is overwritten, and the result must
// still equal a decode of a fresh copy. The value decoder's rows are
// compared by their binary encoding, after the second decode has reused
// the reader's intern-table scratch.
func TestDecodedValuesOutliveTheFrameBuffer(t *testing.T) {
	ts := time.Date(2016, 3, 15, 9, 30, 0, 0, time.UTC)
	batch := [][]model.Value{
		{model.Int(42), model.Float(2.5), model.String("alpha"), model.Time(ts), model.Ref(7), model.Bytes([]byte("blob-one")),
			model.Bool(true), model.Null(), model.String("mixed"), model.List(model.String("deep"), model.Bytes([]byte{1, 2}))},
		{model.Int(-1), model.Float(-0.5), model.String("beta"), model.Time(ts.Add(time.Hour)), model.Ref(9), model.Bytes([]byte("blob-two")),
			model.Bool(false), model.Null(), model.Bytes([]byte("mixed bytes")), model.List(model.Int(3), model.List(model.String("deeper")))},
	}
	digests := &er.DigestBatch{
		Digests: []er.Digest{{Source: "feed_a", Key: "a-1", Tokens: []string{"kelp", "north"}, Attrs: er.Attrs{{Name: "city", Text: "north"}}}},
		Merges:  [][2]er.RefKey{{{Source: "feed_a", Key: "a-1"}, {Source: "feed_b", Key: "b-1"}}},
		Ents:    1, Matches: 1,
	}
	info := &scdb.QueryInfo{Plan: "IndexScan(items.k)", Rules: []string{"push-down", "index"}, PlanCached: true, EstimatedCost: 3.5, OperatorStats: "rows=1"}
	decodeResult := func(p []byte) (any, error) { return DecodeV2Result(p) }
	var rb V2ReadBuf // shared by both decodes, as by a reader's frames
	decodeValues := func(p []byte) (any, error) {
		rows, _, err := rb.DecodeRows(p, nil, nil)
		return rows, err
	}
	for _, tc := range []struct {
		name   string
		encode func(*V2Enc) []byte
		decode func([]byte) (any, error)
	}{
		{"row batch", func(e *V2Enc) []byte { return EncodeV2RowBatch(e, 1, batch) }, func(p []byte) (any, error) {
			return DecodeV2RowBatch(p, nil)
		}},
		{"row values", func(e *V2Enc) []byte { return EncodeV2RowBatch(e, 1, batch) }, decodeValues},
		{"query result", func(e *V2Enc) []byte { return EncodeV2QueryResult(e, 1, []string{"name", "qty"}, info) }, decodeResult},
		{"ingest result", func(e *V2Enc) []byte {
			return EncodeV2IngestResult(e, 1, IngestSummary{Batches: 2, Rows: 10, ElapsedUS: 99, RowsPerSec: 1e5}, `{"span":"request"}`, 12)
		}, decodeResult},
		{"er_digests result", func(e *V2Enc) []byte { return EncodeV2DigestsResult(e, 1, digests) }, decodeResult},
		{"error", func(e *V2Enc) []byte { return EncodeV2Error(e, 1, CodeQuery, "no such table: items") }, func(p []byte) (any, error) {
			code, msg, err := DecodeV2Error(p)
			return [2]string{code, msg}, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := GetV2Enc()
			payload := append([]byte(nil), tc.encode(e)[4+v2FrameFixed:]...)
			e.Release()
			buf := append([]byte(nil), payload...)
			got, err := tc.decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0xA5
			}
			want, err := tc.decode(append([]byte(nil), payload...))
			if err != nil {
				t.Fatal(err)
			}
			got, want = encodedValues(got), encodedValues(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("decoded value changed with its buffer:\n got %#v\nwant %#v", got, want)
			}
		})
	}
}

// encodedValues renders engine rows as their binary value encoding, which
// equal values share (two values never compare by address); anything else
// stays as it is.
func encodedValues(x any) any {
	rows, ok := x.([][]model.Value)
	if !ok {
		return x
	}
	var b []byte
	for _, row := range rows {
		for _, v := range row {
			b = model.AppendValue(b, v)
		}
	}
	return b
}
