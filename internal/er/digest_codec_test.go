package er_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/server"
)

var modes = []er.BlockingMode{er.BlockingToken, er.BlockingANN, er.BlockingBoth}

// replyPayload encodes b as an er_digests reply and returns the frame's
// payload.
func replyPayload(t *testing.T, b er.DigestBatch) []byte {
	t.Helper()
	e := server.GetV2Enc()
	defer e.Release()
	f, err := server.ReadV2Frame(bytes.NewReader(server.EncodeV2DigestsResult(e, 7, &b)), server.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return f.Payload
}

func decodeReply(payload []byte) (*er.DigestBatch, error) {
	res, err := server.DecodeV2Result(payload)
	if err != nil {
		return nil, err
	}
	return res.Digests, nil
}

// TestDigestCodecRoundTrip: an er_digests reply decodes to the batch it
// was encoded from — every awkward name and text byte for byte, the
// merges, a digest without attributes, an empty batch and an incremental
// one — under each blocking mode.
func TestDigestCodecRoundTrip(t *testing.T) {
	for _, mode := range modes {
		r := er.AwkwardResolver(mode)
		all := r.DigestsSince(0, 0)
		if len(all.Merges) == 0 {
			t.Fatalf("%v: the fixture merged nothing; the merges are not exercised", mode)
		}
		bare := false
		for _, d := range all.Digests {
			bare = bare || d.Key == "bare" && len(d.Attrs) == 0
		}
		if !bare {
			t.Fatalf("%v: the fixture has no digest without attributes", mode)
		}
		for name, b := range map[string]er.DigestBatch{
			"all":         all,
			"incremental": r.DigestsSince(all.Ents/2, all.Matches/2),
			"caught up":   r.DigestsSince(all.Ents, all.Matches),
			"empty":       er.NewResolver(er.Config{Blocking: mode}).DigestsSince(0, 0),
		} {
			got, err := decodeReply(replyPayload(t, b))
			if err != nil {
				t.Fatalf("%v %s: %v", mode, name, err)
			}
			if !reflect.DeepEqual(*got, b) {
				t.Errorf("%v %s: decoded\n%s\nwant\n%s", mode, name, dump(*got), dump(b))
			}
		}
	}
}

func dump(b er.DigestBatch) string {
	var s strings.Builder
	fmt.Fprintf(&s, "ents=%d matches=%d blocking=%v\n", b.Ents, b.Matches, b.Settings.Blocking)
	for _, d := range b.Digests {
		fmt.Fprintf(&s, "%q %q %q %q\n", d.Source, d.Key, d.Tokens, d.Attrs)
	}
	fmt.Fprintf(&s, "merges %q\n", b.Merges)
	return s.String()
}

// TestDigestBatchCarriesSettings: a batch ships its resolver's blocking
// mode as one byte and decodes to that mode; a byte naming no mode fails
// the decode.
func TestDigestBatchCarriesSettings(t *testing.T) {
	for _, mode := range modes {
		payload := replyPayload(t, er.NewResolver(er.Config{Blocking: mode}).DigestsSince(0, 0))
		// No intern table, the kind, the format, ents, matches, the mode,
		// no digests, no merges.
		if want := []byte{0, server.V2OpERDigests, 0, 0, 0, byte(mode), 0, 0}; !bytes.Equal(payload, want) {
			t.Fatalf("%v: empty batch encodes to % x, want % x", mode, payload, want)
		}
		got, err := decodeReply(payload)
		if err != nil || got.Settings.Blocking != mode {
			t.Errorf("%v decodes to %+v, %v", mode, got, err)
		}
		payload[5] = byte(er.BlockingBoth) + 1
		if got, err := decodeReply(payload); err == nil || !strings.Contains(err.Error(), "blocking mode") {
			t.Errorf("an unknown blocking mode decoded to %+v, %v", got, err)
		}
	}
}

// TestExchangeHeapBudget bounds the heap an exchange keeps a digest. One
// shard's resolver indexes 20,000 entities of one source, shaped as the
// standing benchmark's read corpus has them (a three-word name, a slot, a
// region, a price and a quantity); the exchange then pulls their digests in
// ten batches, each through EncodeV2DigestsResult and the wire decode as a
// router pulls them, so that whatever of a decoded frame the exchange keeps
// counts. The measure is HeapInuse after a collection, less before the
// exchange was made, a digest: 1,000–1,060 bytes, where it was 1,420–1,460
// while the exchange kept each digest's decoded tokens, attributes and
// strings, and with them the frame's slabs and intern table, and a trigram
// was a uint64. The race build's instrumentation inflates the heap, so the
// budget holds without it.
func TestExchangeHeapBudget(t *testing.T) {
	if er.RaceEnabled {
		t.Skip("the race build's heap is not the one the budget measures")
	}
	const n, pulls = 20000, 10
	rng := rand.New(rand.NewSource(62))
	vocab := make([]string, 5000)
	for i := range vocab {
		b := make([]byte, 4+rng.Intn(6))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		vocab[i] = string(b)
	}
	shard := er.NewResolver(er.Config{})
	for i := 0; i < n; i++ {
		shard.Add(&model.Entity{ID: model.EntityID(i + 1), Key: fmt.Sprintf("it-%07d", i), Source: "items", Attrs: model.Record{
			"name":   model.String(vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]),
			"slot":   model.Int(int64(i)),
			"region": model.String(fmt.Sprintf("reg%02d", rng.Intn(50))),
			"price":  model.Float(float64(100+rng.Intn(99900)) / 100),
			"qty":    model.Int(int64(1 + rng.Intn(100))),
		}})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := er.NewExchange(er.BlockingToken, false)
	for ents, matches := 0, 0; ents < n; {
		b := shard.DigestsSince(ents, matches)
		b.Digests = b.Digests[:min(len(b.Digests), n/pulls)]
		got, err := decodeReply(replyPayload(t, b))
		if err != nil {
			t.Fatal(err)
		}
		x.AddBatch(0, *got)
		ents, matches = ents+len(got.Digests), got.Matches
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	runtime.KeepAlive(shard)
	if st := x.Stats(); st.Digests != n {
		t.Fatalf("the exchange holds %d digests, want %d", st.Digests, n)
	}
	perDigest := float64(int64(after.HeapInuse)-int64(before.HeapInuse)) / n
	t.Logf("an exchange of %d digests keeps %.0f bytes of heap a digest", n, perDigest)
	if budget := 1170.0; perDigest > budget {
		t.Errorf("an exchange keeps %.0f bytes of heap a digest, budget %.0f", perDigest, budget)
	}
}
