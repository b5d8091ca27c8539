package query

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"scdb/internal/model"
	"scdb/internal/storage"
)

// rowEnv is the fixture plus one heterogeneous table: the same cells inserted
// in two orders, an explicit null, and a record that lacks the attribute.
func rowEnv() *fakeEnv {
	e := env()
	ab := model.Record{}
	ab["k"], ab["v"] = model.Int(1), model.Null()
	ba := model.Record{}
	ba["v"], ba["k"] = model.Null(), model.Int(1)
	e.tables["h"] = []model.Record{ab, ba, {"k": model.Int(1)}, {"k": model.Int(2), "w": model.String("x")}}
	return e
}

// dotted is a RowsNode with a dotted label, a plain one, and a pair of labels
// that collide on their unqualified name.
func dotted() *RowsNode {
	return &RowsNode{
		Cols: []string{"a.key", "n", "b.id", "id"},
		Rows: [][]model.Value{
			{model.String("k2"), model.Int(1), model.Int(7), model.Int(8)},
			{model.String("k1"), model.Int(2), model.Int(7), model.Int(8)},
		},
	}
}

func sortBy(in Node, refs ...*ColRef) Node {
	keys := make([]OrderKey, len(refs))
	for i, r := range refs {
		keys[i] = OrderKey{Expr: r}
	}
	return &SortNode{Input: in, Keys: keys}
}

// TestRowSemantics pins how a row resolves references and renders, as a table
// that holds on the map-per-row executor and on the frame/slot one alike.
func TestRowSemantics(t *testing.T) {
	sql := func(src string) func() (*Result, error) {
		return func() (*Result, error) {
			stmt, err := Parse(src)
			if err != nil {
				return nil, err
			}
			e := rowEnv()
			plan, err := BuildPlan(stmt, e)
			if err != nil {
				return nil, err
			}
			res, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 1})
			return res, err
		}
	}
	plan := func(n Node) func() (*Result, error) {
		return func() (*Result, error) {
			res, _, err := ExecuteOpts(n, nil, ExecOptions{Parallelism: 1})
			return res, err
		}
	}
	for _, tc := range []struct {
		name    string
		run     func() (*Result, error)
		want    string // rendered result
		wantErr string // or a substring of the error
	}{
		{name: "qualified hit", run: sql("SELECT d.name FROM drugs AS d WHERE d.dose > 100"),
			want: "d.name\n\"Ibuprofen\"\n"},
		{name: "known binding, absent attribute reads null", run: sql("SELECT d.dose, d.nope FROM drugs AS d WHERE d.name = 'Mystery'"),
			want: "d.dose|d.nope\nnull|null\n"},
		{name: "unknown binding", run: sql("SELECT z.name FROM drugs AS d"),
			wantErr: `unknown binding "z"`},
		{name: "unqualified, one frame carries it", run: sql("SELECT gene, dose FROM drugs AS d JOIN targets AS t ON d.name = t.drug WHERE name = 'Warfarin'"),
			want: "gene|dose\n\"VKORC1\"|5.1\n"},
		{name: "unqualified, no frame carries it", run: sql("SELECT nope FROM drugs AS d JOIN targets AS t ON d.name = t.drug WHERE gene = 'DHFR'"),
			want: "nope\nnull\n"},
		{name: "unqualified, two frames carry it", run: sql("SELECT name FROM drugs AS a JOIN drugs AS b ON a.name = b.name"),
			wantErr: `ambiguous column "name"`},
		{name: "ambiguity is per row: only one record has the attribute", run: sql("SELECT dose FROM drugs AS a JOIN drugs AS b ON a.id != b.id WHERE a.name = 'Warfarin' AND b.name = 'Mystery'"),
			want: "dose\n5.1\n"},

		{name: "dotted label, qualified", run: plan(sortBy(dotted(), &ColRef{Binding: "a", Name: "key"})),
			want: "a.key|n|b.id|id\n\"k1\"|2|7|8\n\"k2\"|1|7|8\n"},
		{name: "dotted label, unqualified", run: plan(sortBy(dotted(), &ColRef{Name: "key"})),
			want: "a.key|n|b.id|id\n\"k1\"|2|7|8\n\"k2\"|1|7|8\n"},
		{name: "known qualifier, absent name reads null", run: plan(sortBy(dotted(), &ColRef{Binding: "a", Name: "nope"}, &ColRef{Name: "n"})),
			want: "a.key|n|b.id|id\n\"k2\"|1|7|8\n\"k1\"|2|7|8\n"},
		{name: "unknown qualifier", run: plan(sortBy(dotted(), &ColRef{Binding: "z", Name: "key"})),
			wantErr: `unknown binding "z"`},
		{name: "a label and a dotted label share the name", run: plan(sortBy(dotted(), &ColRef{Name: "id"})),
			wantErr: `ambiguous column "id"`},
		{name: "the dotted one of them, qualified", run: plan(&ProjectNode{Input: dotted(), Items: []SelectItem{{Expr: &ColRef{Binding: "b", Name: "id"}}}}),
			want: "b.id\n7\n7\n"},

		{name: "star unions heterogeneous records, one binding", run: sql("SELECT * FROM h"),
			want: "k|v|w\n1|null|null\n1|null|null\n1|null|null\n2|null|\"x\"\n"},
		{name: "star over two bindings qualifies every column", run: sql("SELECT * FROM drugs AS d JOIN targets AS t ON d.name = t.drug WHERE t.gene = 'DHFR'"),
			want: "d.dose|d.id|d.name|t.drug|t.gene\n7.5|@3|\"Methotrexate\"|\"Methotrexate\"|\"DHFR\"\n"},
		{name: "star keeps an absent attribute null under its binding", run: sql("SELECT * FROM drugs AS d JOIN targets AS t ON d.id != t.gene WHERE d.name = 'Mystery' AND t.gene = 'DHFR'"),
			want: "d.id|d.name|t.drug|t.gene\n@4|\"Mystery\"|\"Methotrexate\"|\"DHFR\"\n"},

		{name: "distinct over slots: null equals null", run: sql("SELECT DISTINCT k, v FROM h"),
			want: "k|v\n1|null\n2|null\n"},
		{name: "distinct over frames: equal cells in any map order are one row, an absent cell is not a null one", run: sql("SELECT DISTINCT * FROM h"),
			want: "k|v|w\n1|null|null\n1|null|null\n2|null|\"x\"\n"},
		{name: "distinct over joined frames", run: sql("SELECT DISTINCT * FROM h AS a JOIN h AS b ON a.k = b.k WHERE a.k = 2"),
			want: "a.k|a.w|b.k|b.w\n2|\"x\"|2|\"x\"\n"},
	} {
		res, err := tc.run()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case renderResult(res) != tc.want:
			t.Errorf("%s:\ngot:\n%swant:\n%s", tc.name, renderResult(res), tc.want)
		}
	}
}

// TestExecutorAllocBudget holds the executor to fewer than one allocation per
// input row, plus a constant for per-morsel slabs and per-group state. With a
// map per row the three plans cost 10.9, 13.5 and 23 objects per input row.
func TestExecutorAllocBudget(t *testing.T) {
	const rows = 10000
	e := env()
	recs := make([]model.Record, rows)
	for i := range recs {
		recs[i] = model.Record{
			"key":    model.String(fmt.Sprintf("it-%07d", i)),
			"slot":   model.Int(int64(i)),
			"region": model.String(fmt.Sprintf("reg%02d", i*7%50)),
			"price":  model.Float(float64(i*37%9973) / 100),
			"qty":    model.Int(int64(1 + i%100)),
		}
	}
	e.tables["items"] = recs
	for name, src := range map[string]string{
		"aggregate": "SELECT region, COUNT(*) AS n, SUM(qty) AS q, MIN(price) AS lo, MAX(price) AS hi FROM items WHERE slot >= 0 AND slot < 10000 GROUP BY region",
		"topk":      "SELECT key, price FROM items WHERE slot >= 0 AND slot < 10000 ORDER BY price DESC, key LIMIT 10",
		"project":   "SELECT key, slot, region, price, qty FROM items WHERE slot >= 0 AND slot < 10000",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := BuildPlan(stmt, e)
		if err != nil {
			t.Fatal(err)
		}
		plan = fuseForTest(plan)
		var out int
		allocs := testing.AllocsPerRun(5, func() {
			res, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			out = len(res.Rows)
		})
		if out == 0 {
			t.Fatalf("%s: no rows", name)
		}
		t.Logf("%s: %.0f allocs for %d input rows, %d output rows", name, allocs, rows, out)
		if budget := float64(rows)/4 + 1500; allocs > budget {
			t.Errorf("%s: %.0f allocs over %d input rows, budget %.0f", name, allocs, rows, budget)
		}
	}
}

// fuseForTest does what the optimizer does to these plans: the filter over the
// scan becomes an IndexScan, and Limit over Sort becomes TopK.
func fuseForTest(n Node) Node {
	switch n := n.(type) {
	case *FilterNode:
		if s, ok := n.Input.(*ScanNode); ok {
			return &IndexScanNode{Table: s.Table, Binding: s.Binding, Pred: n.Pred}
		}
	case *LimitNode:
		if s, ok := n.Input.(*SortNode); ok {
			return &TopKNode{Input: fuseForTest(s.Input), Keys: s.Keys, N: n.N}
		}
	case *ProjectNode:
		return &ProjectNode{Input: fuseForTest(n.Input), Star: n.Star, Items: n.Items}
	case *AggregateNode:
		return &AggregateNode{Input: fuseForTest(n.Input), GroupBy: n.GroupBy, Items: n.Items, Having: n.Having}
	}
	return n
}

// snapshotEnv reads one storage table as of a fixed commit stamp, handing the
// executor the version records themselves, as the engine does.
type snapshotEnv struct {
	*fakeEnv
	table *storage.Table
	csn   storage.CSN
}

func (e *snapshotEnv) HasTable(name string) bool { return name == e.table.Name() }

func (e *snapshotEnv) ScanTable(name string, _ []model.Conjunct, size int) (ScanCursor, bool) {
	return &snapshotCursor{e.table.ScanMorselsCtx(nil, e.csn, size)}, true
}

type snapshotCursor struct{ storage.Cursor }

func (c *snapshotCursor) Info() PushedScanInfo { return PushedScanInfo(c.Cursor.Info()) }

// TestBorrowedRecordsAreSnapshotStable: rows borrow storage's version records
// and copy nothing, which is sound only while storage never writes a published
// version in place. A scan and sort at one commit stamp, racing updates and
// deletes of the same rows, must return exactly the rows visible at that stamp
// (run under -race), and the borrowed records must read the same afterwards.
func TestBorrowedRecordsAreSnapshotStable(t *testing.T) {
	const rows = 20000
	store, err := storage.Open("")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := store.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]model.Record, rows)
	for i := range recs {
		recs[i] = model.Record{"id": model.Int(int64(i)), "v": model.Int(0)}
	}
	ids, err := tb.InsertBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	e := &snapshotEnv{fakeEnv: env(), table: tb, csn: store.Now()}
	var borrowed, copies []model.Record
	c := tb.ScanMorselsCtx(nil, e.csn, 1024)
	for recs := c.Next(); recs != nil; recs = c.Next() {
		for _, rec := range recs {
			borrowed, copies = append(borrowed, rec), append(copies, rec.Clone())
		}
	}

	writer := make(chan error, 1)
	go func() {
		for i, id := range ids {
			w := storage.Write{Table: tb, ID: id}
			if i%3 != 0 {
				w.Rec = model.Record{"id": model.Int(int64(i)), "v": model.Int(1), "w": model.String("new")}
			}
			_, err := store.Commit([]storage.Write{w})
			if err != nil {
				writer <- err
				return
			}
		}
		writer <- nil
	}()
	stmt, err := Parse("SELECT id, v, w FROM t ORDER BY id DESC")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(stmt, e)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res, _, err := ExecuteOpts(plan, e, ExecOptions{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != rows {
			t.Fatalf("round %d: %d rows, want the %d visible at the snapshot", round, len(res.Rows), rows)
		}
		for i, r := range res.Rows {
			if id, _ := r[0].AsInt(); id != int64(rows-1-i) || !model.Equal(r[1], model.Int(0)) || !r[2].IsNull() {
				t.Fatalf("round %d: row %d = %v, want id %d of the snapshot", round, i, r, rows-1-i)
			}
		}
	}
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if n := tb.Len(); n >= rows {
		t.Fatalf("writer deleted nothing: %d live rows", n)
	}
	for i, rec := range borrowed {
		if !bytes.Equal(model.AppendRecord(nil, rec), model.AppendRecord(nil, copies[i])) {
			t.Fatalf("storage wrote a published version in place: %v, was %v", rec, copies[i])
		}
	}
}

// TestOrderByDroppedColumn: a DISTINCT or aggregated selection sorts its
// output, so a key over a column the output dropped used to read null on
// every row and answer in first-encounter order, silently. The planner now
// names the column; keys the output carries still sort.
func TestOrderByDroppedColumn(t *testing.T) {
	for src, col := range map[string]string{
		"SELECT DISTINCT gene FROM targets ORDER BY drug":                       "drug",
		"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene ORDER BY drug":   "drug",
		"SELECT DISTINCT gene AS g FROM targets ORDER BY gene":                  "gene",
		"SELECT DISTINCT t.gene FROM targets AS t ORDER BY x.gene":              "x.gene",
		"SELECT DISTINCT LOWER(gene) FROM targets ORDER BY LOWER(gene)":         "gene",
		"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene ORDER BY n, t.n": "t.n",
	} {
		_, err := runQuery(src)
		if err == nil || !strings.Contains(err.Error(), "reads "+col+",") {
			t.Errorf("%s: err = %v, want one naming %s", src, err, col)
		}
	}
	for src, want := range map[string]string{
		"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene ORDER BY n DESC, gene":     "gene|n\n\"PTGS2\"|2\n\"DHFR\"|1\n\"VKORC1\"|1\n",
		"SELECT gene, COUNT(*) AS n FROM targets GROUP BY gene ORDER BY n * 2, gene DESC": "gene|n\n\"VKORC1\"|1\n\"DHFR\"|1\n\"PTGS2\"|2\n",
		"SELECT DISTINCT gene AS g FROM targets ORDER BY g DESC":                          "g\n\"VKORC1\"\n\"PTGS2\"\n\"DHFR\"\n",
		"SELECT DISTINCT * FROM targets ORDER BY drug LIMIT 1":                            "drug|gene\n\"Acetaminophen\"|\"PTGS2\"\n",
		// A dotted label carries its name under its qualifier: both keys sort,
		// where the first used to fail on the binding and the second to tie.
		"SELECT DISTINCT t.gene FROM targets AS t ORDER BY t.gene":                     "t.gene\n\"DHFR\"\n\"PTGS2\"\n\"VKORC1\"\n",
		"SELECT t.gene, COUNT(*) AS n FROM targets AS t GROUP BY t.gene ORDER BY gene": "t.gene|n\n\"DHFR\"|1\n\"PTGS2\"|2\n\"VKORC1\"|1\n",
		// A plain selection sorts its source rows, where every column exists.
		"SELECT gene FROM targets ORDER BY drug": "gene\n\"PTGS2\"\n\"PTGS2\"\n\"DHFR\"\n\"VKORC1\"\n",
	} {
		if got := renderResult(mustRun(t, src)); got != want {
			t.Errorf("%s:\ngot:\n%swant:\n%s", src, got, want)
		}
	}
}
