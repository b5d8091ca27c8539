package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"scdb/internal/model"
)

// refBatchPayload is the payload of the WAL frame InsertBatch wrote while it
// encoded each record into a slice of its own: every record encoded alone,
// the entries concatenated, the frame around them. It is the oracle the
// one-buffer encoding is held to.
func refBatchPayload(table string, csn CSN, firstID uint64, recs []model.Record) []byte {
	var data []byte
	for i, rec := range recs {
		enc := model.AppendRecord(nil, rec)
		data = append(data, opInsert)
		data = binary.AppendUvarint(data, firstID+uint64(i))
		data = binary.AppendUvarint(data, uint64(len(enc)))
		data = append(data, enc...)
	}
	payload := []byte{opBatch}
	payload = binary.AppendUvarint(payload, uint64(csn))
	payload = binary.AppendUvarint(payload, uint64(len(table)))
	payload = append(payload, table...)
	payload = binary.AppendUvarint(payload, uint64(len(recs)))
	payload = binary.AppendUvarint(payload, uint64(len(data)))
	return append(payload, data...)
}

// lastFramePayload reads the newest frame's payload from the store's active
// segment, checking each frame's length and checksum on the way.
func lastFramePayload(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	b, err := os.ReadFile(segPath(dir, segs[len(segs)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, segMagic) {
		t.Fatal("segment without its magic")
	}
	b = b[len(segMagic):]
	var last []byte
	for len(b) > 0 {
		if len(b) < 12 {
			t.Fatalf("torn frame header: %d bytes", len(b))
		}
		n := binary.BigEndian.Uint32(b)
		if uint64(len(b)-12) < uint64(n) {
			t.Fatalf("torn frame: want %d bytes, have %d", n, len(b)-12)
		}
		last = b[12 : 12+n]
		h := fnv.New64a()
		h.Write(last)
		if h.Sum64() != binary.BigEndian.Uint64(b[4:12]) {
			t.Fatal("frame checksum mismatch")
		}
		b = b[12+n:]
	}
	return last
}

// TestInsertBatchFrameGolden: the batch's records encoded into one buffer
// make the frame the per-record encoding made, byte for byte, at widths on
// both sides of the stack-sorted SmallRecord — 17 attributes is the width
// that spills its names to the heap.
func TestInsertBatchFrameGolden(t *testing.T) {
	for _, width := range []int{0, 1, model.SmallRecord, model.SmallRecord + 1} {
		t.Run(fmt.Sprintf("attrs=%d", width), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenOptions(dir, Options{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			tb, err := s.CreateTable("golden")
			if err != nil {
				t.Fatal(err)
			}
			recs := make([]model.Record, 5)
			for i := range recs {
				recs[i] = model.Record{}
				for a := 0; a < width; a++ {
					name := fmt.Sprintf("%c%d", 'z'-rune(a), a)
					switch a % 3 {
					case 0:
						recs[i][name] = model.String(fmt.Sprintf("value %d of row %d", a, i))
					case 1:
						recs[i][name] = model.Int(int64(i*100 + a))
					default:
						recs[i][name] = model.Null()
					}
				}
			}
			ids, err := tb.InsertBatch(recs)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			got := lastFramePayload(t, dir)
			want := refBatchPayload("golden", s.Now(), uint64(ids[0]), recs)
			if !bytes.Equal(got, want) {
				t.Fatalf("batch frame moved:\n got %x\nwant %x", got, want)
			}
		})
	}
}
