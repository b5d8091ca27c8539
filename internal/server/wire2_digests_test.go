package server

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"scdb/internal/er"
)

// digestsPayload encodes b as an er_digests reply and returns its payload.
func digestsPayload(b *er.DigestBatch) []byte {
	e := GetV2Enc()
	defer e.Release()
	frame := EncodeV2DigestsResult(e, 1, b)
	return append([]byte(nil), frame[4+v2FrameFixed:]...)
}

// digestSeeds are batches of every shape a reply carries: empty under each
// mode, awkward strings shared through the intern table, digests without
// tokens or attributes, and merges.
func digestSeeds() []*er.DigestBatch {
	seeds := []*er.DigestBatch{
		{},
		{Ents: 3, Matches: 1, Settings: er.Config{Blocking: er.BlockingANN}},
		{Ents: 1 << 40, Matches: 7, Settings: er.Config{Blocking: er.BlockingBoth}},
	}
	seeds = append(seeds, &er.DigestBatch{
		Digests: []er.Digest{
			{Source: "feed_a", Key: "a-1", Tokens: []string{"kelp", "north", "sensor"}, Attrs: er.Attrs{{Name: "city", Text: "north"}, {Name: "name", Text: "kelp sensor"}}},
			{Source: "feed_b", Key: "b-1", Tokens: []string{"kelp", "north", "sensr"}, Attrs: er.Attrs{{Name: "city", Text: "north"}, {Name: "name", Text: "kelp sensr"}}},
			{Source: "s", Key: "bare"},
			{Source: "bad\xff\"<", Key: "", Tokens: []string{"ls\u2028ps\u2029"}},
		},
		Merges: [][2]er.RefKey{{{Source: "feed_a", Key: "a-1"}, {Source: "feed_b", Key: "b-1"}}},
		Ents:   4, Matches: 1,
	})
	return seeds
}

// oldDigestsPayload is the reply a shard of an older build sends: the batch
// as a length-prefixed JSON blob.
var oldDigestsPayload = func() []byte {
	blob := `{"digests":[{"source":"s","key":"k","tokens":["kelp"],"attrs":{"name":"kelp"}}],"ents":1,"matches":0,"settings":{}}`
	return append(binary.AppendUvarint([]byte{0, V2OpERDigests}, uint64(len(blob))), blob...)
}()

// checkDigestsDecode holds one payload to the decoder's contract: an error,
// or a batch no larger than the frame that re-encodes to a reply decoding
// to the same batch.
func checkDigestsDecode(t *testing.T, payload []byte) {
	res, err := DecodeV2Result(payload)
	if err != nil || res.Kind != V2OpERDigests {
		return
	}
	b := res.Digests
	made := len(b.Digests) + len(b.Merges)
	for _, d := range b.Digests {
		made += len(d.Tokens) + len(d.Attrs)
	}
	if made > len(payload) {
		t.Fatalf("a %d-byte reply decoded to %d digests, tokens, attributes and merges", len(payload), made)
	}
	again, err := DecodeV2Result(digestsPayload(b))
	if err != nil {
		t.Fatalf("re-encoded reply fails to decode: %v", err)
	}
	if !reflect.DeepEqual(again.Digests, b) {
		t.Fatalf("re-encoded reply decodes to %+v, want %+v", again.Digests, b)
	}
}

// FuzzDecodeV2Digests runs arbitrary payloads, seeded with encoded replies
// and the JSON reply an older shard sends, through the er_digests decoder.
func FuzzDecodeV2Digests(f *testing.F) {
	for _, b := range digestSeeds() {
		f.Add(digestsPayload(b))
	}
	f.Add(oldDigestsPayload)
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDigestsDecode(t, payload)
	})
}

// TestDecodeDigestsRejectsMalformed: every cut of a valid reply fails, a
// declared count the frame cannot hold fails before anything is made, and
// so do an unknown mode, a watermark past math.MaxInt and another format.
func TestDecodeDigestsRejectsMalformed(t *testing.T) {
	for _, b := range digestSeeds() {
		payload := digestsPayload(b)
		for n := range payload {
			if res, err := DecodeV2Result(payload[:n]); err == nil {
				t.Fatalf("a reply cut to %d of %d bytes decoded: %+v", n, len(payload), res)
			}
		}
	}

	// No intern table, the kind, the format, ents and matches, the mode,
	// then the counts.
	head := []byte{0, V2OpERDigests, v2DigestsFormat, 0, 0, 0}
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, payload := range map[string][]byte{
		"digests": append(append(head[:len(head):len(head)], huge...), make([]byte, 64)...),
		"tokens":  append(append(append(head[:len(head):len(head)], 1, 0, 0), huge...), make([]byte, 64)...),
		"attrs":   append(append(append(head[:len(head):len(head)], 1, 0, 0, 0), huge...), make([]byte, 64)...),
		"merges":  append(append(append(head[:len(head):len(head)], 0), huge...), make([]byte, 64)...),
	} {
		if _, err := DecodeV2Result(payload); !errors.Is(err, errV2Truncated) {
			t.Errorf("%s count 2^40: %v, want a truncated frame", name, err)
		}
		if a := testing.AllocsPerRun(10, func() { DecodeV2Result(payload) }); a > 3 {
			t.Errorf("%s count 2^40: %.0f allocations before the error", name, a)
		}
	}

	for name, payload := range map[string][]byte{
		"mode":   {0, V2OpERDigests, v2DigestsFormat, 0, 0, 3, 0, 0},
		"ents":   append(append([]byte{0, V2OpERDigests, v2DigestsFormat}, binary.AppendUvarint(nil, 1<<63)...), 0, 0, 0, 0),
		"format": {0, V2OpERDigests, 1, 0, 0, 0, 0, 0},
	} {
		if res, err := DecodeV2Result(payload); err == nil {
			t.Errorf("%s: decoded %+v", name, res.Digests)
		}
	}
}
