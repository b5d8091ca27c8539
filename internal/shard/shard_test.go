package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/er"
	"scdb/internal/model"
	"scdb/internal/query"
	"scdb/internal/repl"
	"scdb/internal/server"
	"scdb/internal/shard"
)

// startShardServer opens an in-memory single-node engine and serves it on
// an ephemeral port — one shard of a test cluster.
func startShardServer(tb testing.TB, opts scdb.Options) string {
	tb.Helper()
	db, err := scdb.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: db})
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv.Addr().String()
}

// testCluster is an n-shard cluster fronted by a served router: shard
// servers, the router engine, the router's own wire server, and a client
// connected to it — the full client → router → shards path.
type testCluster struct {
	router *shard.Router
	shards []string       // the shard servers, in routing order
	addr   string         // the router's server
	rc     *client.Client // speaks to it
}

func newTestCluster(tb testing.TB, n int) *testCluster {
	tb.Helper()
	return newClusterOf(tb, n, func() scdb.Options { return scdb.Options{} })
}

// newClusterOf is newTestCluster with each shard's engine opened with
// opts().
func newClusterOf(tb testing.TB, n int, opts func() scdb.Options) *testCluster {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = startShardServer(tb, opts())
	}
	r, err := shard.Dial(shard.Config{}, addrs...)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	srv := server.New(server.Config{Addr: "127.0.0.1:0", DB: r})
	if err := srv.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	rc, err := client.Dial(srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rc.Close() })
	return &testCluster{router: r, shards: addrs, addr: srv.Addr().String(), rc: rc}
}

// deliver hands src to the router as the router's server does: its chunk
// frame decoded into a delivery in engine form (server.DecodeV2Arrivals).
func deliver(ctx context.Context, r *shard.Router, src scdb.Source) error {
	e := server.GetV2Enc()
	defer e.Release()
	frame, err := server.EncodeV2IngestChunk(e, 1, server.V2Chunk{Entities: src.Entities, Links: src.Links, Texts: src.Texts, Done: true})
	if err != nil {
		return err
	}
	f, err := server.ReadV2Frame(bytes.NewReader(frame), 0)
	if err != nil {
		return err
	}
	d, _, err := server.DecodeV2Arrivals(f.Payload)
	if err != nil {
		return err
	}
	d.Source = src.Name
	return r.IngestDelivery(ctx, d)
}

// drugNames are distinct enough that only true duplicates score past the
// default 0.85 acceptance threshold.
var drugNames = []string{
	"Methotrexate Sodium", "Warfarin", "Ibuprofen", "Paracetamol",
	"Atorvastatin", "Omeprazole", "Metformin", "Lisinopril",
	"Amoxicillin", "Azithromycin", "Doxycycline", "Prednisone",
}

// corpus builds the differential corpus: every drug appears in both
// sources under different keys and attribute schemas, so each index i is a
// cross-source ER truth pair. Prices are small ints (SUM/AVG stay exact
// regardless of merge association order). pharma_a also carries q, whose
// values mix int64(k) and float64(k), k in {1, 2} — one group to the
// executor, two byte encodings; never zero, whose negation renders by kind —
// and rating, absent (NULL) on every fourth row and otherwise a multiple of
// 0.5, so its sums are exact in any order too.
func corpus() []scdb.Source {
	var a, b scdb.Source
	a.Name, b.Name = "pharma_a", "pharma_b"
	for i, name := range drugNames {
		cat := fmt.Sprintf("cat%d", i%3)
		price := int64(10 + i*7)
		attrs := scdb.Record{"name": name, "category": cat, "price": price, "q": int64(1 + i%2)}
		if i%4 >= 2 {
			attrs["q"] = float64(1 + i%2)
		}
		if i%4 != 0 {
			attrs["rating"] = float64(i%5) / 2
		}
		a.Entities = append(a.Entities, scdb.Entity{Key: fmt.Sprintf("A-%02d", i), Attrs: attrs})
		b.Entities = append(b.Entities, scdb.Entity{
			Key:   fmt.Sprintf("B-%02d", i),
			Attrs: scdb.Record{"drug": name, "category": cat, "price": price + 1},
		})
	}
	return []scdb.Source{a, b}
}

func ingestCorpus(tb testing.TB, c *testCluster) {
	tb.Helper()
	for _, src := range corpus() {
		if _, err := c.rc.IngestBatch(context.Background(), src, 5); err != nil {
			tb.Fatal(err)
		}
	}
}

// render flattens a result the way the CLI does, making byte-identical
// comparison meaningful.
func render(rows *scdb.Rows) string {
	var b strings.Builder
	b.WriteString(strings.Join(rows.Columns, "|"))
	b.WriteByte('\n')
	for _, r := range rows.Data {
		for i, v := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%v", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestShardOf(t *testing.T) {
	if shard.ShardOf("anything", 1) != 0 || shard.ShardOf("anything", 0) != 0 {
		t.Fatal("single shard must own everything")
	}
	hit := make([]int, 3)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		s := shard.ShardOf(k, 3)
		if s < 0 || s > 2 {
			t.Fatalf("ShardOf(%q, 3) = %d", k, s)
		}
		if s != shard.ShardOf(k, 3) {
			t.Fatal("placement must be deterministic")
		}
		hit[s]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d got no keys out of 100", s)
		}
	}
}

// differentialQueries cover the merge paths: plain scans, SELECT *,
// DISTINCT, grouped and global aggregates (COUNT/SUM/AVG/MIN/MAX), HAVING,
// top-K push-down (composite sort key is unique, so the push-down boundary
// is untied), WHERE, and a co-partitioned self-join.
var differentialQueries = []string{
	"SELECT key, name, price FROM pharma_a",
	"SELECT * FROM pharma_a",
	"SELECT DISTINCT category FROM pharma_a",
	"SELECT category, COUNT(*) AS n, SUM(price) AS total, AVG(price) AS avg_price, MIN(price) AS lo, MAX(price) AS hi FROM pharma_a GROUP BY category ORDER BY category",
	"SELECT category, COUNT(*) AS n FROM pharma_a GROUP BY category HAVING COUNT(*) >= 3 ORDER BY n DESC, category",
	"SELECT COUNT(*) AS n, SUM(price) AS s, AVG(price) AS a, MIN(price) AS lo, MAX(price) AS hi FROM pharma_a",
	"SELECT key, price FROM pharma_a ORDER BY price DESC, key LIMIT 5",
	"SELECT key FROM pharma_a WHERE price > 40 ORDER BY key",
	"SELECT a.key, a.name FROM pharma_a AS a JOIN pharma_a AS b ON a.key = b.key ORDER BY a.key",
	"SELECT category, COUNT(*) + 1 AS n1 FROM pharma_a GROUP BY category ORDER BY category",
}

// TestClusterDifferential is the scale-out correctness gate: a 1-shard and
// a 3-shard cluster must return byte-identical answers over the same
// corpus — rows, aggregates, top-K, and post-ER entity counts — with at
// least one ER truth pair actually split across shards.
func TestClusterDifferential(t *testing.T) {
	c1 := newTestCluster(t, 1)
	c3 := newTestCluster(t, 3)
	ingestCorpus(t, c1)
	ingestCorpus(t, c3)

	// The corpus must genuinely exercise cross-shard ER: at least one
	// truth pair's records hash to different shards of the 3-shard
	// cluster. Deterministic (FNV-1a is fixed), so this cannot flake.
	crossPairs := 0
	for i := range drugNames {
		ka, kb := fmt.Sprintf("A-%02d", i), fmt.Sprintf("B-%02d", i)
		if shard.ShardOf(ka, 3) != shard.ShardOf(kb, 3) {
			crossPairs++
			if !c3.router.SameRef(er.RefKey{Source: "pharma_a", Key: ka}, er.RefKey{Source: "pharma_b", Key: kb}) {
				t.Errorf("truth pair %s/%s split across shards but not merged by the exchange", ka, kb)
			}
		}
	}
	if crossPairs == 0 {
		t.Fatal("no truth pair spans shards; corpus does not exercise cross-shard ER")
	}

	for _, q := range slices.Concat(differentialQueries, keyedQueries) {
		r1, err := c1.rc.Query(q)
		if err != nil {
			t.Fatalf("1-shard %s: %v", q, err)
		}
		r3, err := c3.rc.Query(q)
		if err != nil {
			t.Fatalf("3-shard %s: %v", q, err)
		}
		if g1, g3 := render(r1), render(r3); g1 != g3 {
			t.Errorf("%s diverges:\n1 shard:\n%s\n3 shards:\n%s", q, g1, g3)
		}
	}

	// Post-ER global entity counts: the summed per-shard counts corrected
	// by the exchange's cross-merges must equal the single-shard count.
	s1, s3 := c1.router.Stats(), c3.router.Stats()
	if s1.Entities == 0 || s1.Entities != s3.Entities {
		t.Errorf("entities: 1 shard = %d, 3 shards = %d", s1.Entities, s3.Entities)
	}
	if s1.Merges != s3.Merges {
		t.Errorf("merges: 1 shard = %d, 3 shards = %d", s1.Merges, s3.Merges)
	}
	if xs := c3.router.ExchangeStats(); xs.CrossMerges < 1 {
		t.Errorf("cross merges = %d, want >= 1", xs.CrossMerges)
	}
	if xs := c1.router.ExchangeStats(); xs.CrossMerges != 0 {
		t.Errorf("1-shard cluster reports cross merges: %+v", xs)
	}
}

// TestRouterExplainsAsShardZero: EXPLAIN through the router answers with
// shard 0's plan, rows and explanation, since every shard runs the same
// engine over the same schema — except for a keyed statement, which the
// router sends to the shard that owns its key, and whose EXPLAIN is that
// shard's, so that it explains the lookup that finds the row.
func TestRouterExplainsAsShardZero(t *testing.T) {
	c := newTestCluster(t, 3)
	ingestCorpus(t, c)
	shards := make([]*client.Client, len(c.shards))
	for i, addr := range c.shards {
		sc, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		shards[i] = sc
	}
	check := func(q string, s int) {
		t.Helper()
		rows, info, err := c.rc.QueryInfo("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("router EXPLAIN %s: %v", q, err)
		}
		wrows, want, err := shards[s].QueryInfo("EXPLAIN " + q)
		if err != nil {
			t.Fatalf("shard %d EXPLAIN %s: %v", s, q, err)
		}
		if want.Plan == "" || render(rows) != render(wrows) || info.Plan != want.Plan ||
			!slices.Equal(info.Rules, want.Rules) || info.EstimatedCost != want.EstimatedCost {
			t.Errorf("%s: router EXPLAIN differs from shard %d's:\n%s%q %v %v\nshard %d:\n%s%q %v %v", q, s,
				render(rows), info.Plan, info.Rules, info.EstimatedCost, s, render(wrows), want.Plan, want.Rules, want.EstimatedCost)
		}
	}
	for _, q := range differentialQueries {
		check(q, 0)
	}
	for _, q := range keyedQueries {
		check(q, shard.ShardOf(keyIn(t, q), len(c.shards)))
	}
	// EXPLAIN ANALYZE runs the statement where the router sends it: a keyed
	// lookup finds its row on the owner, which is not shard 0.
	q := "EXPLAIN ANALYZE " + keyedQueries[0]
	_, info, err := c.rc.QueryInfo(q)
	if err != nil {
		t.Fatal(err)
	}
	if root, _, _ := strings.Cut(info.OperatorStats, "\n"); !strings.Contains(root, " out=1 ") {
		t.Errorf("%s: root operator %q, want it to return the key's one row", q, root)
	}
}

// metricsOf reads a node's sys.metrics over the wire, name to value.
func metricsOf(t *testing.T, c *client.Client) map[string]float64 {
	t.Helper()
	rows, err := c.Query("SELECT name, value FROM sys.metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64, len(rows.Data))
	for _, r := range rows.Data {
		m[r[0].(string)] = r[1].(float64)
	}
	return m
}

// TestRouterServedStats checks the wire-visible routing counters: the
// router's sys.metrics and sys.shards describe the router, and a node's
// describe the node.
func TestRouterServedStats(t *testing.T) {
	c := newTestCluster(t, 3)
	ingestCorpus(t, c)
	if _, err := c.rc.Query("SELECT key FROM pharma_a"); err != nil {
		t.Fatal(err)
	}
	m := metricsOf(t, c.rc)
	if m["router.shards"] != 3 {
		t.Errorf("router.shards = %v", m["router.shards"])
	}
	if m["shard.scatter_queries_total"] == 0 || m["shard.partial_rows_total"] == 0 || m["shard.ingest_routed_rows_total"] == 0 {
		t.Errorf("scatter counters flat: %v", m)
	}
	if m["shard.exchange_rounds_total"] == 0 || m["shard.digests_exchanged"] == 0 || m["shard.cross_merges"] == 0 {
		t.Errorf("exchange counters flat: %v", m)
	}
	nodes, err := c.rc.Query("SELECT shard, last_csn FROM sys.shards")
	if err != nil {
		t.Fatal(err)
	}
	var csn int64
	for _, n := range nodes.Data {
		csn += n[1].(int64)
	}
	if len(nodes.Data) != 3 || csn == 0 {
		t.Errorf("sys.shards = %v, want 3 shards with commit stamps after ingest", nodes.Data)
	}
	for name := range m {
		for _, local := range []string{"plan_cache.", "index.", "wal.", "repl."} {
			if strings.HasPrefix(name, local) {
				t.Errorf("the router's sys.metrics carries a local store's %s", name)
			}
		}
	}

	// The Engine/Node split from the other side: a node has no routing
	// counters, and it answers the store-level op a router refuses.
	nc, err := client.Dial(startShardServer(t, scdb.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for name := range metricsOf(t, nc) {
		if strings.HasPrefix(name, "router.") || strings.HasPrefix(name, "shard.") {
			t.Errorf("a node's sys.metrics carries the router's %s", name)
		}
	}
	if _, err := nc.ERDigests(0, 0); err != nil {
		t.Errorf("node er_digests: %v", err)
	}
}

// TestRouterRejectsUnroutable pins the explicit errors: text deliveries
// and cross-shard links cannot be hash-routed.
func TestRouterRejectsUnroutable(t *testing.T) {
	c := newTestCluster(t, 3)
	if err := deliver(context.Background(), c.router, scdb.Source{Name: "docs", Texts: []string{"some text"}}); err == nil {
		t.Error("text delivery must be rejected")
	}
	// Find two keys on different shards and link them.
	ka, kb := "", ""
	for i := 0; i < 100 && kb == ""; i++ {
		k := fmt.Sprintf("L-%d", i)
		if ka == "" {
			ka = k
		} else if shard.ShardOf(k, 3) != shard.ShardOf(ka, 3) {
			kb = k
		}
	}
	err := deliver(context.Background(), c.router, scdb.Source{
		Name:     "linked",
		Entities: []scdb.Entity{{Key: ka}, {Key: kb}},
		Links:    []scdb.Link{{FromKey: ka, Predicate: "rel", ToKey: kb}},
	})
	if err == nil || !strings.Contains(err.Error(), "crosses shards") {
		t.Errorf("cross-shard link error = %v", err)
	}

	// The ops that need a local store are refused by a router with a typed
	// error: it has no resolver to export and no log to ship.
	_, err = c.rc.ERDigests(0, 0)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != server.CodeBadRequest || !strings.Contains(se.Msg, "no local resolver") {
		t.Errorf("er_digests at a router: err = %v, want a %q refusal", err, server.CodeBadRequest)
	}
	_, err = repl.Start(repl.Config{PrimaryAddr: c.addr, Opts: scdb.Options{Dir: t.TempDir()}})
	if err == nil || !strings.Contains(err.Error(), server.CodeBadRequest) || !strings.Contains(err.Error(), "subscribe to a shard primary") {
		t.Errorf("repl_subscribe at a router: err = %v, want a %q refusal naming the shard primary", err, server.CodeBadRequest)
	}
}

// TestEmptyPartCreatesTable: a routed delivery whose split leaves a shard no
// rows must still create the source's table there, or a scatter read fails
// on that shard with "unknown source".
func TestEmptyPartCreatesTable(t *testing.T) {
	c := newTestCluster(t, 3)
	src := scdb.Source{Name: "tiny", Entities: []scdb.Entity{{Key: "only", Attrs: scdb.Record{"v": int64(7)}}}}
	if _, err := c.rc.IngestBatch(context.Background(), src, 0); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		"SELECT COUNT(*) AS n FROM tiny":   "n\n1\n",
		"SELECT v FROM tiny WHERE v = 7":   "v\n7\n",
		"SELECT v FROM tiny WHERE v = 999": "v\n",
	} {
		rows, err := c.rc.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
		} else if got := render(rows); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

// TestRouterTakesResolverSettingsFromShards: a router configured with
// nothing runs the cross-shard exchange in the mode its shards report, and
// refuses shards that disagree.
func TestRouterTakesResolverSettingsFromShards(t *testing.T) {
	ann := scdb.Options{ERBlocking: "ann"}
	addrs := []string{startShardServer(t, ann), startShardServer(t, ann), startShardServer(t, ann)}
	r, err := shard.Dial(shard.Config{}, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	single, err := scdb.Open(ann)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, src := range corpus() {
		if err := deliver(context.Background(), r, src); err != nil {
			t.Fatal(err)
		}
		if err := single.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	xs := r.ExchangeStats()
	if xs.ANNProbes == 0 || xs.CrossMerges == 0 {
		t.Errorf("exchange did not run the shards' ann blocking: %+v", xs)
	}
	if got, want := r.Stats(), single.Stats(); got.Merges != want.Merges || got.Entities != want.Entities {
		t.Errorf("cluster merges/entities = %d/%d, a single ann node has %d/%d", got.Merges, got.Entities, want.Merges, want.Entities)
	}

	_, err = shard.Dial(shard.Config{}, addrs[0], startShardServer(t, scdb.Options{ERBlocking: "both"}))
	var se *shard.SettingsError
	if !errors.As(err, &se) || se.Shard != 1 || se.Got != er.BlockingBoth || se.Want != er.BlockingANN {
		t.Errorf("mixed blocking modes: err = %v, want a SettingsError naming shard 1, both and ann", err)
	}
}

// TestNotRoutable pins the typed refusal of statements with no cross-shard
// meaning — an engine answers them from the group's first row, which does
// not exist across shards — at the router and, as an ordinary query error,
// over the wire.
func TestNotRoutable(t *testing.T) {
	c := newTestCluster(t, 3)
	ingestCorpus(t, c)
	for _, q := range []string{
		"SELECT name, COUNT(*) AS n FROM pharma_a GROUP BY category",
		"SELECT category, price + COUNT(*) AS n FROM pharma_a GROUP BY category",
		"SELECT category FROM pharma_a GROUP BY category HAVING price > 3",
		"SELECT * FROM pharma_a GROUP BY category",
		"SELECT DISTINCT category FROM pharma_a ORDER BY price",
		// The engine's answers read entity identity or the whole corpus.
		"SELECT * FROM witnesses()",
		"SELECT * FROM inconsistencies()",
		"SELECT * FROM conflicts()",
		"SELECT * FROM resolve('Aspirin', 'price', 'vote')",
		"SELECT * FROM justify('Aspirin', 'price', 5.0, 0.5)",
		"SELECT * FROM discover('Aspirin', 5, 1)",
		"SELECT * FROM crowd('Aspirin', 'price', 10, 0.9, 1)",
		"SELECT * FROM suggest_links('Aspirin', 'targets', 3)",
		"SELECT * FROM worlds('Aspirin', 'price')",
		"EXPLAIN SELECT p.name FROM pharma_a AS p JOIN richness() AS r ON p.name = r.source",
		// A curation statement is told to one engine.
		"INSERT INTO claims (entity, attr, value, source) VALUES ('Aspirin', 'price', 3, 'audit')",
		"ADD AXIOMS 'concept ProbeThing'",
		"REFRESH RICHNESS",
	} {
		rows, _, err := c.router.QueryInfoCtx(context.Background(), q)
		if !errors.Is(err, shard.ErrNotRoutable) || rows != nil {
			t.Errorf("%s: rows %v, err = %v, want ErrNotRoutable", q, rows, err)
		}
		_, err = c.rc.Query(q)
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != server.CodeQuery || !strings.Contains(se.Msg, "not routable") {
			t.Errorf("%s over the wire: err = %v, want a %q error naming it not routable", q, err, server.CodeQuery)
		}
	}
	if _, _, err := c.router.QueryInfoCtx(context.Background(), "SELECT * FROM pharma_a JOIN richness() ON name = source"); err == nil || !strings.Contains(err.Error(), "richness()") {
		t.Errorf("err = %v, want it to name the function", err)
	}
	if _, _, err := c.router.QueryInfoCtx(context.Background(), "ADD AXIOMS 'concept ProbeThing'"); err == nil || !strings.Contains(err.Error(), "ADD AXIOMS") {
		t.Errorf("err = %v, want it to name the statement", err)
	}
	// No shard was told anything.
	for _, addr := range c.shards {
		sc, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := sc.Query("SELECT COUNT(*) AS n FROM claims")
		if err != nil || rows.Data[0][0] != int64(0) {
			t.Errorf("shard %s claims: %v, %v", addr, rows, err)
		}
		for _, q := range []string{"SELECT * FROM ProbeThing", "SELECT * FROM _catalog_richness"} {
			if _, err := sc.Query(q); err == nil {
				t.Errorf("shard %s answered %s", addr, q)
			}
		}
		sc.Close()
	}
	// The bare claims relation routes as before.
	if _, _, err := c.router.QueryInfoCtx(context.Background(), "SELECT COUNT(*) AS n FROM claims"); err != nil {
		t.Errorf("claims through the router: %v", err)
	}
	// An aggregated selection sorts its output on a router as on an engine,
	// and a key over a column the output dropped is the same error on both.
	q := "SELECT category, COUNT(*) AS n FROM pharma_a GROUP BY category ORDER BY price"
	if _, _, err := c.router.QueryInfoCtx(context.Background(), q); err == nil || !strings.Contains(err.Error(), "reads price,") {
		t.Errorf("%s: err = %v, want the planner's error naming price", q, err)
	}
}

// TestRoutedResultStreamsInMorsels is the frame-size regression: a routed
// result several morsels long must reach the wire layer in batches of at
// most one morsel (one frame each), on the concatenation path and on the
// final-phase path. One batch holding everything overflows the client's
// frame limit once the rows are wide enough.
func TestRoutedResultStreamsInMorsels(t *testing.T) {
	c := newTestCluster(t, 2)
	const n = 3*query.DefaultMorselSize + 100
	src := scdb.Source{Name: "big"}
	for i := 0; i < n; i++ {
		src.Entities = append(src.Entities, scdb.Entity{Key: fmt.Sprintf("row-%05d", i), Attrs: scdb.Record{"v": int64(i)}})
	}
	if _, err := c.rc.IngestBatch(context.Background(), src, 0); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT v FROM big", "SELECT v FROM big ORDER BY v DESC"} {
		rows, batches, largest := 0, 0, 0
		_, _, err := c.router.QueryBatchesCtx(context.Background(), q, func(_ []string, batch [][]model.Value) bool {
			rows += len(batch)
			batches++
			largest = max(largest, len(batch))
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rows != n || largest > query.DefaultMorselSize {
			t.Errorf("%s: %d rows in %d batches, the largest %d; want %d rows in batches of at most %d", q, rows, batches, largest, n, query.DefaultMorselSize)
		}
	}
}

// TestReadYourWritesAcrossShards proves the cross-shard consistency story:
// one shard is fronted by a client.Cluster whose reads prefer a streaming
// replica, and a scatter read issued immediately after a routed write must
// still see every written row — the cluster holds the read back (or falls
// back to the shard primary) until the replica covers the write's CSN.
func TestReadYourWritesAcrossShards(t *testing.T) {
	// Shard 0: plain in-memory primary.
	addr0 := startShardServer(t, scdb.Options{})
	c0, err := client.Dial(addr0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c0.Close() })

	// Shard 1: durable primary with a WAL-shipping replica; the router's
	// backend is a Cluster preferring the replica for reads.
	db1, err := scdb.Open(scdb.Options{Dir: t.TempDir(), WALSegmentBytes: 64 << 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db1.Close() })
	srv1 := server.New(server.Config{Addr: "127.0.0.1:0", DB: db1})
	if err := srv1.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv1.Shutdown(ctx)
	})
	f, err := repl.Start(repl.Config{PrimaryAddr: srv1.Addr().String(), Opts: scdb.Options{Dir: t.TempDir()}, RefreshEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := server.New(server.Config{Addr: "127.0.0.1:0", DB: f.DB(), ReplStats: f.Stats})
	if err := fsrv.Start(); err != nil {
		f.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		fsrv.Shutdown(ctx)
		f.Close()
	})
	cl1, err := client.DialCluster(srv1.Addr().String(), fsrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl1.Close() })

	r, err := shard.New(shard.Config{
		Backends: []shard.Backend{c0, cl1},
		Addrs:    []string{addr0, srv1.Addr().String()},
	})
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for round := 0; round < 3; round++ {
		var src scdb.Source
		src.Name = "meds"
		for i := 0; i < 20; i++ {
			src.Entities = append(src.Entities, scdb.Entity{
				Key:   fmt.Sprintf("r%d-k%d", round, i),
				Attrs: scdb.Record{"round": int64(round), "n": int64(i)},
			})
		}
		if err := deliver(context.Background(), r, src); err != nil {
			t.Fatal(err)
		}
		total += len(src.Entities)

		// Immediately read through the router: the scatter must include
		// every row just written, on both shards, replica or not.
		rows, _, err := r.QueryInfoCtx(context.Background(), "SELECT COUNT(*) AS n FROM meds")
		if err != nil {
			t.Fatal(err)
		}
		n, _ := rows.Data[0][0].(int64)
		if int(n) != total {
			t.Fatalf("round %d: scatter count = %d, want %d (stale read broke read-your-writes)", round, n, total)
		}
	}
	if r.CSN() == 0 {
		t.Error("router CSN flat after writes")
	}
}

func BenchmarkRouterScatter(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("shards%d", n), func(b *testing.B) {
			c := newTestCluster(b, n)
			for _, src := range corpus() {
				if _, err := c.rc.IngestBatch(context.Background(), src, 0); err != nil {
					b.Fatal(err)
				}
			}
			queries := []struct{ name, q string }{
				{"scan", "SELECT key, name, price FROM pharma_a"},
				{"agg", "SELECT category, COUNT(*) AS n, AVG(price) AS p FROM pharma_a GROUP BY category"},
				{"topk", "SELECT key, price FROM pharma_a ORDER BY price DESC, key LIMIT 5"},
			}
			for _, bq := range queries {
				b.Run(bq.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := c.rc.Query(bq.q); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

func BenchmarkRouterIngest(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("shards%d", n), func(b *testing.B) {
			c := newTestCluster(b, n)
			b.ReportAllocs()
			id := 0
			for i := 0; i < b.N; i++ {
				src := scdb.Source{Name: "feed"}
				for j := 0; j < 100; j++ {
					id++
					src.Entities = append(src.Entities, scdb.Entity{
						Key:   fmt.Sprintf("evt-%07d", id),
						Attrs: scdb.Record{"name": fmt.Sprintf("unit %07d", id), "v": int64(id)},
					})
				}
				if _, err := c.rc.IngestBatch(context.Background(), src, 25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
