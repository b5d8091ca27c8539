package server_test

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"scdb"
	"scdb/internal/server"
)

// pullFixture is an engine holding 200 digests shaped like the benchmark
// stream's — a three-word name and a four-letter city, so four tokens and
// two attribute texts each — 30 of them duplicates of another source's.
func pullFixture(t *testing.T) *scdb.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(35))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	cities := make([]string, 10)
	for i := range cities {
		cities[i] = word(4)
	}
	db := openDB(t, scdb.Options{})
	a := scdb.Source{Name: "feed_a"}
	b := scdb.Source{Name: "feed_b"}
	for i := 0; i < 100; i++ {
		a.Entities = append(a.Entities, scdb.Entity{Key: fmt.Sprintf("a-%03d", i), Attrs: scdb.Record{
			"name": word(7) + " " + word(7) + " " + word(7), "city": cities[rng.Intn(len(cities))],
		}})
	}
	for i := 0; i < 100; i++ {
		attrs := scdb.Record{"name": word(7) + " " + word(7) + " " + word(7), "city": cities[rng.Intn(len(cities))]}
		if i < 30 {
			attrs = a.Entities[i].Attrs
		}
		b.Entities = append(b.Entities, scdb.Entity{Key: fmt.Sprintf("b-%03d", i), Attrs: attrs})
	}
	for _, src := range []scdb.Source{a, b} {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestDigestPullAllocBudget is the digest exchange's allocation gate: one
// er_digests pull of a 200-digest batch with 30 merges over loopback, both
// sides of the wire counted, costs at most 64 objects. It costs 22
// (go1.24/linux/amd64); the JSON reply at commit e13299d cost 4,775.
func TestDigestPullAllocBudget(t *testing.T) {
	db := pullFixture(t)
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)
	batch, err := c.ERDigests(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Digests) != 200 || len(batch.Merges) != 30 {
		t.Fatalf("the fixture exports %d digests and %d merges, want 200 and 30", len(batch.Digests), len(batch.Merges))
	}
	for _, d := range batch.Digests {
		if len(d.Tokens) != 4 || len(d.Attrs) != 2 {
			t.Fatalf("digest %s/%s has %d tokens and %d attributes, want 4 and 2", d.Source, d.Key, len(d.Tokens), len(d.Attrs))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.ERDigests(0, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("er_digests pull of 200 digests and 30 merges: %.0f objects", allocs)
	if allocs > 64 && !raceEnabled {
		t.Errorf("a pull allocates %.0f objects, budget 64", allocs)
	}
}

// TestERDigestsRejectsOutOfRangeWatermark: a watermark past math.MaxInt is
// a bad_request. It used to wrap negative and export the whole resolver as
// if the caller had asked from (0, 0).
func TestERDigestsRejectsOutOfRangeWatermark(t *testing.T) {
	db := openDB(t, scdb.Options{})
	if err := db.Ingest(scdb.Source{Name: "s", Entities: []scdb.Entity{{Key: "k", Attrs: scdb.Record{"name": "kelp sensor"}}}}); err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, nil)
	nc := hello(t, addr)
	for i, marks := range [][2]uint64{{1 << 63, 0}, {0, 1 << 63}, {math.MaxUint64, math.MaxUint64}, {1, 1}} {
		id := uint32(i + 1)
		payload := binary.AppendUvarint(binary.AppendUvarint([]byte{0}, marks[0]), marks[1])
		if _, err := nc.Write(append(v2Header(uint32(6+len(payload)), server.V2OpERDigests, id), payload...)); err != nil {
			t.Fatal(err)
		}
		f, err := server.ReadV2Frame(nc, server.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if marks[0] <= math.MaxInt && marks[1] <= math.MaxInt {
			if res, err := server.DecodeV2Result(f.Payload); f.Op != server.V2OpResult || err != nil || len(res.Digests.Digests) != 0 {
				t.Errorf("watermarks %v: op 0x%02x (%v), want an empty batch", marks, f.Op, err)
			}
			continue
		}
		if code, msg, err := server.DecodeV2Error(f.Payload); f.Op != server.V2OpError || err != nil || code != server.CodeBadRequest {
			t.Errorf("watermarks %v: op 0x%02x code %q %q (%v), want a bad_request error", marks, f.Op, code, msg, err)
		}
	}
}

// TestDigestsReplyFormatSkew: a router and a shard of different builds
// fail on each other's er_digests reply rather than reading a wrong
// batch. The reply an older shard sends — its batch as a JSON blob — is
// ErrDigestsFormat here, and this build's reply read the older way is an
// empty blob that fails to unmarshal.
func TestDigestsReplyFormatSkew(t *testing.T) {
	old := `{"digests":[{"source":"s","key":"k","tokens":["kelp"],"attrs":{"name":"kelp"}}],"ents":1,"matches":0,"settings":{}}`
	// Its payload: an empty intern table, the result kind and the
	// length-prefixed blob.
	payload := binary.AppendUvarint([]byte{0, server.V2OpERDigests}, uint64(len(old)))
	_, err := server.DecodeV2Result(append(payload, old...))
	if !errors.Is(err, server.ErrDigestsFormat) {
		t.Errorf("an older shard's reply: %v, want ErrDigestsFormat", err)
	}

	db := pullFixture(t)
	_, addr := startServer(t, db, nil)
	nc := hello(t, addr)
	e := server.GetV2Enc()
	_, err = nc.Write(server.EncodeV2ERDigests(e, 1, 0, 0))
	e.Release()
	if err != nil {
		t.Fatal(err)
	}
	f, err := server.ReadV2Frame(nc, server.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	// The older client: skip the intern table, read the kind, then the
	// batch as a length-prefixed JSON blob.
	p := f.Payload
	n, k := binary.Uvarint(p)
	p = p[k:]
	for ; n > 0; n-- {
		ln, k := binary.Uvarint(p)
		p = p[k+int(ln):]
	}
	if p[0] != server.V2OpERDigests {
		t.Fatalf("reply kind 0x%02x", p[0])
	}
	ln, k := binary.Uvarint(p[1:])
	blob := p[1+k : 1+k+int(ln)]
	var batch struct {
		Digests []json.RawMessage `json:"digests"`
		Ents    int               `json:"ents"`
	}
	if err := json.Unmarshal(blob, &batch); err == nil {
		t.Errorf("the older client read this reply as a batch of %d digests, %d ents", len(batch.Digests), batch.Ents)
	}
}
