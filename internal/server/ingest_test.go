package server_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/server"
	"scdb/internal/shard"
)

// streamSource builds one delivery with n entities plus links that cross
// chunk boundaries (every entity links back to the first).
func streamSource(n int) scdb.Source {
	src := scdb.Source{Name: "feed"}
	for i := 0; i < n; i++ {
		src.Entities = append(src.Entities, scdb.Entity{
			Key:   fmt.Sprintf("e-%04d", i),
			Types: []string{"Device"},
			Attrs: scdb.Record{"name": fmt.Sprintf("device %d", i), "slot": int64(i)},
		})
	}
	for i := 1; i < n; i++ {
		src.Links = append(src.Links, scdb.Link{
			FromKey:   fmt.Sprintf("e-%04d", i),
			Predicate: "peer_of",
			ToKey:     "e-0000",
		})
	}
	return src
}

// kindsSource is a routable delivery whose attributes hold every kind a
// value can have — a string, an int and an int64, a float, a bool, a time
// given outside UTC, bytes nil, empty and not, a nested list, a ref and a
// null — with typed entities and literal links of several kinds (not a
// ref, which names an entity of the node it lands on).
func kindsSource() scdb.Source {
	when := time.Date(2026, 3, 4, 5, 6, 7, 8, time.FixedZone("UTC+5", 5*3600))
	src := scdb.Source{Name: "kinds"}
	raws := [][]byte{nil, {}, {1, 0, 0xff}}
	for i := 0; i < 9; i++ {
		src.Entities = append(src.Entities, scdb.Entity{
			Key:   fmt.Sprintf("k-%d", i),
			Types: []string{"Device"}[:i%2],
			Attrs: scdb.Record{
				"s": fmt.Sprint("value ", i), "n": i, "i64": int64(-7 * i), "f": float64(i) + 0.25,
				"b": i%2 == 0, "t": when.Add(time.Duration(i) * time.Hour), "raw": raws[i%3],
				"list": []any{"x", int64(i), []any{1.5, true, nil}}, "ref": scdb.EntityRef(100 + i), "null": nil,
			},
		})
	}
	for i, lit := range []any{"text", 3, 2.5, false, when, []byte{1, 2}, []any{"a", int64(1)}} {
		src.Links = append(src.Links, scdb.Link{FromKey: fmt.Sprintf("k-%d", i), Predicate: fmt.Sprintf("p%d", i), Value: lit, Confidence: 0.5})
	}
	return src
}

// describe renders rows with the dynamic type of every cell, so equal
// renderings mean equal kinds as well as equal values.
func describe(rows *scdb.Rows) string {
	var b strings.Builder
	b.WriteString(strings.Join(rows.Columns, "|"))
	b.WriteByte('\n')
	for _, r := range rows.Data {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%T(%#v)", v, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestIngestBatchStream pushes one delivery through the chunked wire path
// and checks it lands identically to a single embedded Ingest.
func TestIngestBatchStream(t *testing.T) {
	const n = 137
	db := openDB(t, scdb.Options{Axioms: "concept Device"})
	_, addr := startServer(t, db, nil)
	c := dial(t, addr)

	sum, err := c.IngestBatch(context.Background(), streamSource(n), 25)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rows != n {
		t.Fatalf("summary rows = %d, want %d", sum.Rows, n)
	}
	// ceil(137/25) entity chunks + the final links chunk.
	if want := 6 + 1; sum.Batches != want {
		t.Fatalf("summary batches = %d, want %d", sum.Batches, want)
	}
	if sum.RowsPerSec <= 0 || sum.ElapsedUS <= 0 {
		t.Fatalf("summary throughput not populated: %+v", sum)
	}

	ref := openDB(t, scdb.Options{Axioms: "concept Device"})
	if err := ref.Ingest(streamSource(n)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT COUNT(*) AS n FROM feed",
		"SELECT name FROM feed WHERE slot < 30 ORDER BY name",
		"SELECT COUNT(*) AS n FROM Device",
	} {
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Fatalf("%s diverged:\n--- streamed ---\n%s--- embedded ---\n%s", q, render(got), render(want))
		}
	}

	// The connection must stay framed and reusable after a stream.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after stream: %v", err)
	}

	m := metrics(t, c)
	if m["server.ingest_rows_total"] != n || m["server.ingest_batch_rows_count"] == 0 ||
		m["server.ingest_batch_rows_max"] == 0 || m["server.ingest_rows_per_sec_max"] == 0 {
		t.Fatalf("ingest metrics not populated: %v", m)
	}
	if _, ok := m["server.op."+server.OpIngestBatch+".latency_us_count"]; !ok {
		t.Fatalf("no op metrics for %s: %v", server.OpIngestBatch, m)
	}
}

// TestIngestIsOneStreamedOp: Ingest, IngestTraced and IngestBatch all open
// the ingest_batch stream and leave identical corpora; Ingest sends a
// source whole, as one delivery. A nameless source is a typed error from
// every method and leaves the connection framed for the deliveries after
// it; a value the client cannot encode cancels the stream it opened. A
// delivery of every kind answers the same embedded, through every method
// to one server and through a 3-shard router. The retired ops, 0x03
// (explain) and 0x04 (a one-frame ingest), are unknown ops that leave the
// connection answering.
func TestIngestIsOneStreamedOp(t *testing.T) {
	feed := streamSource(20)
	feed.Texts = []string{"device 3 is a peer of device 0"}
	mirror := streamSource(12)
	mirror.Name = "mirror"
	kinds := kindsSource()
	sources := []scdb.Source{feed, mirror, kinds}
	const kindsQ = "SELECT * FROM kinds ORDER BY _key"
	nameless := feed
	nameless.Name = ""
	unencodable := scdb.Source{Name: "bad", Entities: []scdb.Entity{{Key: "k", Attrs: scdb.Record{"x": struct{}{}}}}}

	methods := []struct {
		name    string
		deliver func(*client.Client, scdb.Source) error
	}{
		{"Ingest", (*client.Client).Ingest},
		{"IngestTraced", func(c *client.Client, src scdb.Source) error {
			trace, err := c.IngestTraced(src)
			if err == nil && strings.Count(trace, `"span": "ingest.install"`) != 1 {
				err = fmt.Errorf("traced %s is not one delivery:\n%s", src.Name, trace)
			}
			return err
		}},
		{"IngestBatch", func(c *client.Client, src scdb.Source) error {
			_, err := c.IngestBatch(context.Background(), src, 7)
			return err
		}},
	}
	var want, kindsWant string
	for _, m := range methods {
		srv, addr := startServer(t, openDB(t, scdb.Options{Axioms: "concept Device"}), nil)
		c := dial(t, addr)
		for _, n := range methods {
			var se *client.ServerError
			if err := n.deliver(c, nameless); !errors.As(err, &se) || se.Code != server.CodeBadRequest {
				t.Errorf("nameless source through %s: %v, want a %s error", n.name, err, server.CodeBadRequest)
			}
			if n.deliver(c, unencodable) == nil {
				t.Errorf("an unencodable value through %s was accepted", n.name)
			}
		}
		for _, src := range sources {
			if err := m.deliver(c, src); err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
		}
		waitUntil(t, 4*time.Second, func() bool { return srv.Stats().Server.InFlight == 0 },
			"canceled streams to release their admission slots")
		st := metrics(t, c)
		if m.name == "Ingest" && st["server.ingest_batch_rows_count"] != float64(len(sources)) {
			t.Errorf("Ingest installed %v batches for %d sources", st["server.ingest_batch_rows_count"], len(sources))
		}
		got := fmt.Sprintf("entities=%v edges=%v merges=%v inferred=%v\n",
			st["engine.entities"], st["engine.edges"], st["engine.merges_total"], st["engine.inferred_types"])
		for _, q := range []string{
			"SELECT name, slot FROM feed ORDER BY slot",
			"SELECT name, slot FROM mirror ORDER BY slot",
			"SELECT COUNT(*) AS n FROM Device",
			kindsQ,
		} {
			rows, err := c.Query(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", m.name, q, err)
			}
			got += describe(rows)
			if q == kindsQ && kindsWant == "" {
				kindsWant = describe(rows)
			}
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s left a different corpus:\n%s\nwant:\n%s", m.name, got, want)
		}
	}

	// Every kind, embedded and through a 3-shard router, answers as it
	// did through one server.
	embedded := openDB(t, scdb.Options{Axioms: "concept Device"})
	if err := embedded.Ingest(kinds); err != nil {
		t.Fatal(err)
	}
	var shards []string
	for range 3 {
		_, a := startServer(t, openDB(t, scdb.Options{Axioms: "concept Device"}), nil)
		shards = append(shards, a)
	}
	router, err := shard.Dial(shard.Config{}, shards...)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	_, raddr := startServer(t, nil, func(cfg *server.Config) { cfg.DB = router })
	rc := dial(t, raddr)
	if _, err := rc.IngestBatch(context.Background(), kinds, 4); err != nil {
		t.Fatal(err)
	}
	for via, q := range map[string]func(string) (*scdb.Rows, error){"embedded": embedded.Query, "a 3-shard router": rc.Query} {
		rows, err := q(kindsQ)
		if err != nil {
			t.Fatalf("%s: %v", via, err)
		}
		if got := describe(rows); got != kindsWant {
			t.Errorf("every kind %s answers\n%s\nwhere one server answered\n%s", via, got, kindsWant)
		}
	}

	_, addr := startServer(t, openDB(t, scdb.Options{}), nil)
	nc := hello(t, addr)
	for i, op := range []byte{0x03, 0x04} {
		id := uint32(10 * (i + 1))
		if _, err := nc.Write(v2Header(6, op, id)); err != nil {
			t.Fatal(err)
		}
		f, err := server.ReadV2Frame(nc, server.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if code, _, err := server.DecodeV2Error(f.Payload); f.Op != server.V2OpError || f.ID != id || err != nil || code != server.CodeBadRequest {
			t.Fatalf("op 0x%02x: frame op 0x%02x id %d code %q (%v), want a bad_request error for id %d", op, f.Op, f.ID, code, err, id)
		}
		e := server.GetV2Enc()
		_, err = nc.Write(server.EncodeV2Simple(e, id+1, server.V2OpPing))
		e.Release()
		if err != nil {
			t.Fatal(err)
		}
		if f, err = server.ReadV2Frame(nc, server.DefaultMaxFrame); err != nil || f.Op != server.V2OpResult || f.ID != id+1 {
			t.Fatalf("ping after op 0x%02x: op 0x%02x id %d (%v)", op, f.Op, f.ID, err)
		}
	}
}
