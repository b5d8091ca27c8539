package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"scdb/client"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/server"
)

// digestShard answers er_digests from its own resolver, in this build's
// format or, once old is set, as a shard of an older build does: the batch
// as a JSON blob.
type digestShard struct {
	mu  sync.Mutex
	res *er.Resolver
	old bool
	ids model.EntityID
}

func (s *digestShard) add(source, key, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids++
	s.res.Add(&model.Entity{ID: s.ids, Source: source, Key: key, Attrs: model.Record{"name": model.String(name)}, Confidence: 1})
}

// oldReply is the JSON an older shard sent for b.
func oldReply(b er.DigestBatch) []byte {
	type ref struct {
		Source string `json:"source"`
		Key    string `json:"key"`
	}
	type digest struct {
		Source string            `json:"source"`
		Key    string            `json:"key"`
		Tokens []string          `json:"tokens,omitempty"`
		Attrs  map[string]string `json:"attrs,omitempty"`
	}
	var out struct {
		Digests  []digest          `json:"digests,omitempty"`
		Merges   [][2]ref          `json:"merges,omitempty"`
		Ents     int               `json:"ents"`
		Matches  int               `json:"matches"`
		Settings map[string]string `json:"settings"`
	}
	out.Ents, out.Matches, out.Settings = b.Ents, b.Matches, map[string]string{}
	for _, d := range b.Digests {
		od := digest{Source: d.Source, Key: d.Key, Tokens: d.Tokens, Attrs: map[string]string{}}
		for _, at := range d.Attrs {
			od.Attrs[at.Name] = at.Text
		}
		out.Digests = append(out.Digests, od)
	}
	for _, m := range b.Merges {
		out.Merges = append(out.Merges, [2]ref{{m[0].Source, m[0].Key}, {m[1].Source, m[1].Key}})
	}
	blob, _ := json.Marshal(out)
	return blob
}

// oldFrame is an older build's er_digests reply frame: an empty intern
// table, the result kind and the batch as a length-prefixed blob.
func oldFrame(id uint32, blob []byte) []byte {
	payload := binary.AppendUvarint([]byte{0, server.V2OpERDigests}, uint64(len(blob)))
	frame := binary.BigEndian.AppendUint32(nil, uint32(6+len(payload)+len(blob)))
	frame = binary.BigEndian.AppendUint32(append(frame, server.V2OpResult, 0), id)
	return append(append(frame, payload...), blob...)
}

// serve speaks the protocol on one listener until it closes.
func (s *digestShard) serve(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			if _, err := io.ReadFull(nc, make([]byte, 8)); err != nil {
				return
			}
			if err := server.WriteServerHello(nc, server.ProtoV2); err != nil {
				return
			}
			for {
				f, err := server.ReadV2Frame(nc, server.DefaultMaxFrame)
				if err != nil {
					return
				}
				e := server.GetV2Enc()
				ents, matches, err := server.DecodeV2ERDigests(f.Payload)
				switch {
				case f.Op != server.V2OpERDigests || err != nil:
					_, err = nc.Write(server.EncodeV2Error(e, f.ID, server.CodeBadRequest, "digests only"))
				default:
					s.mu.Lock()
					b := s.res.DigestsSince(ents, matches)
					if s.old {
						_, err = nc.Write(oldFrame(f.ID, oldReply(b)))
					} else {
						_, err = nc.Write(server.EncodeV2DigestsResult(e, f.ID, &b))
					}
					s.mu.Unlock()
				}
				e.Release()
				if err != nil {
					return
				}
			}
		}()
	}
}

// TestRouterRefusesOldShardDigests: a shard of an older build answers
// er_digests with a JSON blob. The router's exchange round fails naming
// that shard, folds none of its digests in and keeps both of its
// watermarks, so once the shard answers in this build's format the next
// round picks up everything the failed one missed.
func TestRouterRefusesOldShardDigests(t *testing.T) {
	shards := []*digestShard{{res: er.NewResolver(er.Config{})}, {res: er.NewResolver(er.Config{})}}
	backends := make([]Backend, len(shards))
	for i, s := range shards {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go s.serve(ln)
		if backends[i], err = client.Dial(ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
	}
	shards[0].add("feed_a", "a-1", "Methotrexate Sodium")
	shards[1].add("feed_b", "b-1", "Warfarin")
	r, err := New(Config{Backends: backends, Addrs: []string{"zero:1", "one:2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	shards[1].add("feed_b", "b-2", "Methotrexate Sodium")
	shards[1].add("feed_b", "b-3", "Ibuprofen")
	shards[1].mu.Lock()
	shards[1].old = true
	shards[1].mu.Unlock()
	r.mu.Lock()
	before := r.exch.Stats()
	ents, matches := r.entsMark[1], r.matchesMark[1]
	err = r.exchangeLocked()
	after := r.exch.Stats()
	r.mu.Unlock()
	if !errors.Is(err, server.ErrDigestsFormat) || !strings.Contains(err.Error(), "shard 1 (one:2)") {
		t.Fatalf("exchange over an older shard: %v, want ErrDigestsFormat naming shard 1", err)
	}
	if after != before {
		t.Errorf("the failed round moved the exchange: %+v, was %+v", after, before)
	}
	if r.entsMark[1] != ents || r.matchesMark[1] != matches {
		t.Errorf("the failed round moved shard 1's watermarks to (%d, %d), was (%d, %d)", r.entsMark[1], r.matchesMark[1], ents, matches)
	}

	shards[1].mu.Lock()
	shards[1].old = false
	shards[1].mu.Unlock()
	r.mu.Lock()
	err = r.exchangeLocked()
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st := r.ExchangeStats(); st.Digests != 4 || st.CrossMerges != 1 {
		t.Errorf("after the shard answers in format: %+v, want 4 digests and 1 cross merge", st)
	}
}
