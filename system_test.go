package scdb_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/core"
	"scdb/internal/repl"
	"scdb/internal/server"
	"scdb/internal/shard"
)

// lifesciColumns is what the facade's Schema returned for every table of
// the lifesci sample before sys.columns replaced it: table, attribute,
// filled, kinds.
const lifesciColumns = `ctd|_key|76|string×76
ctd|_types|76|list×76
ctd|disease_name|44|string×44
ctd|gene_symbol|32|string×32
drugbank|_key|105|string×105
drugbank|_types|105|list×105
drugbank|name|105|string×105
uniprot|_key|63|string×63
uniprot|_types|63|list×63
uniprot|function|63|string×63
uniprot|symbol|63|string×63
`

// querier is what every surface answers a statement through.
type querier interface {
	Query(q string) (*scdb.Rows, error)
}

// lines renders rows a line each, cells joined by |, a list's items by
// spaces.
func lines(rows *scdb.Rows) string {
	var b strings.Builder
	for _, r := range rows.Data {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			if l, ok := v.([]any); ok {
				v = strings.Trim(fmt.Sprint(l), "[]")
			}
			fmt.Fprint(&b, v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func mustQuery(t *testing.T, q querier, stmt string) *scdb.Rows {
	t.Helper()
	rows, err := q.Query(stmt)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return rows
}

// sysMetrics reads a node's sys.metrics, name to value.
func sysMetrics(t *testing.T, q querier) map[string]float64 {
	t.Helper()
	m := map[string]float64{}
	for _, r := range mustQuery(t, q, "SELECT name, value FROM sys.metrics").Data {
		m[r[0].(string)] = r[1].(float64)
	}
	return m
}

func dialT(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSystemRelations reads the sys.* relations embedded, over the wire,
// on a replica and through a 3-shard router: each describes the node that
// answers it.
func TestSystemRelations(t *testing.T) {
	primary, err := scdb.OpenSample("lifesci", scdb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	// Four predicates with different literals on a 105-row table create
	// an index.
	for i := 0; i < 4; i++ {
		mustQuery(t, primary, fmt.Sprintf("SELECT name FROM drugbank WHERE name = 'probe %d'", i))
	}
	paddr := serve(t, server.Config{DB: primary})
	f, err := repl.Start(repl.Config{PrimaryAddr: paddr, Opts: scdb.Options{Dir: t.TempDir()}, RefreshEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raddr := serve(t, server.Config{DB: f.DB(), ReplStats: f.Stats})
	waitFor(t, "the replica to catch up", func() bool { return f.DB().CSN() >= primary.CSN() })

	wire, replica := dialT(t, paddr), dialT(t, raddr)
	for _, s := range []struct {
		name    string
		q       querier
		count   []string // sys.metrics rows whose sum every statement moves
		indexes func() []scdb.IndexStat
	}{
		{"embedded", primary, []string{"plan_cache.hits", "plan_cache.misses"}, primary.IndexStats},
		{"wire", wire, []string{"server.op.query.latency_us_count"}, primary.IndexStats},
		{"replica", replica, []string{"server.op.query.latency_us_count"}, f.DB().IndexStats},
	} {
		// sys.metrics counts the statements just run (a server counts one
		// once its answer is out) and is built anew for each read.
		counted := func() (n float64) {
			m := sysMetrics(t, s.q)
			for _, c := range s.count {
				n += m[c]
			}
			return n
		}
		before := counted()
		for i := 0; i < 3; i++ {
			mustQuery(t, s.q, fmt.Sprintf("SELECT COUNT(*) AS n FROM drugbank WHERE name = 'count %d'", i))
		}
		waitFor(t, s.name+" sys.metrics to count the statements", func() bool { return counted() >= before+3 })
		first := lines(mustQuery(t, s.q, "SELECT name, value FROM sys.metrics"))
		waitFor(t, s.name+" sys.metrics to read anew", func() bool {
			return lines(mustQuery(t, s.q, "SELECT name, value FROM sys.metrics")) != first
		})

		var want strings.Builder
		for _, ix := range s.indexes() {
			fmt.Fprintf(&want, "%s|%s|%d|%d|%v\n", ix.Table, ix.Attr, ix.Entries, ix.Hits, ix.Auto)
		}
		if got := lines(mustQuery(t, s.q, `SELECT "table", attr, entries, hits, auto FROM sys.indexes`)); got != want.String() {
			t.Errorf("%s sys.indexes:\n%s\nIndexStats:\n%s", s.name, got, want.String())
		}
		if got := lines(mustQuery(t, s.q, `SELECT "table", name, filled, kinds FROM sys.columns WHERE "table" IN ('ctd', 'drugbank', 'uniprot') ORDER BY "table", name`)); got != lifesciColumns {
			t.Errorf("%s sys.columns:\n%s\nSchema returned:\n%s", s.name, got, lifesciColumns)
		}
	}
	if len(primary.IndexStats()) == 0 {
		t.Error("no index to compare: the probes created none")
	}
	followers := mustQuery(t, wire, "SELECT remote, ack_csn FROM sys.replicas")
	if len(followers.Data) != 1 {
		t.Errorf("the primary's sys.replicas = %v, want its one follower", followers.Data)
	}

	// Raw op bytes 0x07–0x09 are retired: each is a bad_request, and the
	// connection still answers a query.
	nc, err := net.Dial("tcp", paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if err := server.WriteClientHello(nc); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadServerHello(nc); err != nil {
		t.Fatal(err)
	}
	for _, op := range []byte{0x07, 0x08, 0x09} {
		id := uint32(op)
		hdr := binary.BigEndian.AppendUint32(nil, 6)
		if _, err := nc.Write(binary.BigEndian.AppendUint32(append(hdr, op, 0), id)); err != nil {
			t.Fatal(err)
		}
		fr, err := server.ReadV2Frame(nc, server.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if code, _, err := server.DecodeV2Error(fr.Payload); fr.Op != server.V2OpError || fr.ID != id || err != nil || code != server.CodeBadRequest {
			t.Fatalf("op 0x%02x: frame op 0x%02x id %d code %q (%v), want bad_request", op, fr.Op, fr.ID, code, err)
		}
		e := server.GetV2Enc()
		_, err = nc.Write(server.EncodeV2Query(e, id+100, server.V2OpQuery, "SELECT COUNT(*) AS n FROM drugbank", 0))
		e.Release()
		if err != nil {
			t.Fatal(err)
		}
		for fr.ID != id+100 || fr.Op == server.V2OpRowBatch {
			if fr, err = server.ReadV2Frame(nc, server.DefaultMaxFrame); err != nil {
				t.Fatal(err)
			}
		}
		if fr.Op != server.V2OpResult {
			t.Fatalf("query after op 0x%02x: frame op 0x%02x", op, fr.Op)
		}
	}

	// Through a router sys.* describes the router: its shards, and the
	// cluster's Stats.
	var shards []string
	for i := 0; i < 3; i++ {
		db, err := scdb.Open(scdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		shards = append(shards, serve(t, server.Config{DB: db}))
	}
	router, err := shard.Dial(shard.Config{}, shards...)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rc := dialT(t, serve(t, server.Config{DB: router}))
	feed := scdb.Source{Name: "feed"}
	for i := 0; i < 30; i++ {
		feed.Entities = append(feed.Entities, scdb.Entity{Key: fmt.Sprint(i), Attrs: scdb.Record{"name": fmt.Sprintf("item %d", i%20)}})
	}
	if err := rc.Ingest(feed); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, rc, "SELECT COUNT(*) AS n FROM feed")
	// sys.shards polls the shards itself: read before any sys.metrics, its
	// entity counts are already the shards' own.
	shardRows := mustQuery(t, rc, "SELECT shard, addr, entities FROM sys.shards ORDER BY shard")
	if len(shardRows.Data) != 3 {
		t.Errorf("the router's sys.shards = %v, want 3 shards", shardRows.Data)
	}
	var shardEntities int64
	for _, row := range shardRows.Data {
		shardEntities += row[2].(int64)
	}
	m := sysMetrics(t, rc)
	got := core.StatsFrom(m)
	want := router.Stats()
	if got != want || m["engine.entities"] == 0 {
		t.Errorf("the router's engine rows read %+v, Router.Stats() %+v", got, want)
	}
	if cluster := shardEntities - int64(m["shard.cross_merges"]); cluster != int64(m["engine.entities"]) {
		t.Errorf("sys.shards entities %d less %v cross merges = %d, engine.entities %v",
			shardEntities, m["shard.cross_merges"], cluster, m["engine.entities"])
	}
	_, err = rc.Query("SELECT m.name FROM sys.metrics AS m JOIN feed AS f ON m.name = f.name")
	if err == nil || !strings.Contains(err.Error(), shard.ErrNotRoutable.Error()) {
		t.Errorf("sys.* joined to a table through the router: %v, want %v", err, shard.ErrNotRoutable)
	}
	for _, q := range []string{
		"SELECT * FROM feed AS f JOIN sys.shards AS s ON f.name = s.addr",
		"EXPLAIN SELECT name FROM sys.metrics",
	} {
		if _, _, err := router.QueryInfoCtx(context.Background(), q); !errors.Is(err, shard.ErrNotRoutable) {
			t.Errorf("%s in process: %v, want %v", q, err, shard.ErrNotRoutable)
		}
	}
}
