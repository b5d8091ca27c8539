package er_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scdb/internal/er"
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
