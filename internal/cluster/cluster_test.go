package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"scdb/internal/model"
	"scdb/internal/storage"
)

func TestTrackerObserve(t *testing.T) {
	tr := NewTracker()
	tr.Observe([]storage.RowID{1, 2, 3})
	tr.Observe([]storage.RowID{1, 2})
	if got := tr.counts[mkPair(1, 2)]; got != 2 {
		t.Errorf("co-access(1,2) = %d", got)
	}
	if got := tr.counts[mkPair(2, 1)]; got != 2 {
		t.Errorf("co-access must be symmetric: %d", got)
	}
	if got := tr.counts[mkPair(1, 3)]; got != 1 {
		t.Errorf("co-access(1,3) = %d", got)
	}
	if got := tr.counts[mkPair(1, 9)]; got != 0 {
		t.Errorf("unobserved pair = %d", got)
	}
	rows := tr.Rows()
	if len(rows) != 3 || rows[0] != 1 || rows[2] != 3 {
		t.Errorf("Rows = %v", rows)
	}
	// Duplicate IDs in one observation don't self-pair.
	tr2 := NewTracker()
	tr2.Observe([]storage.RowID{5, 5})
	if tr2.counts[mkPair(5, 5)] != 0 {
		t.Error("self co-access recorded")
	}
}

func TestTrackerCapsSetSize(t *testing.T) {
	tr := NewTracker()
	tr.MaxSetSize = 4
	big := make([]storage.RowID, 100)
	for i := range big {
		big[i] = storage.RowID(i + 1)
	}
	tr.Observe(big)
	if len(tr.Rows()) != 4 {
		t.Errorf("capped observation indexed %d rows", len(tr.Rows()))
	}
}

func TestClusterLabelPropagation(t *testing.T) {
	tr := NewTracker()
	// Two tight groups: {1,2,3} and {10,11,12}; weak link between them.
	for i := 0; i < 10; i++ {
		tr.Observe([]storage.RowID{1, 2, 3})
		tr.Observe([]storage.RowID{10, 11, 12})
	}
	tr.Observe([]storage.RowID{3, 10})
	label := tr.Cluster(10)
	if label[1] != label[2] || label[2] != label[3] {
		t.Errorf("group A split: %v", label)
	}
	if label[10] != label[11] || label[11] != label[12] {
		t.Errorf("group B split: %v", label)
	}
	if label[1] == label[10] {
		t.Error("weakly linked groups merged")
	}
	// Determinism.
	again := tr.Cluster(10)
	for id, l := range label {
		if again[id] != l {
			t.Error("clustering nondeterministic")
		}
	}
}

func TestClusteredLayoutImprovesLocality(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const groups = 20
	const per = 8
	// Rows interleaved across groups in insertion order (worst case).
	var ids []storage.RowID
	groupRows := make([][]storage.RowID, groups)
	for i := 0; i < per; i++ {
		for g := 0; g < groups; g++ {
			id := storage.RowID(g + i*groups + 1)
			ids = append(ids, id)
			groupRows[g] = append(groupRows[g], id)
		}
	}
	// Workload: accesses always within one group.
	tr := NewTracker()
	var workload [][]storage.RowID
	for i := 0; i < 400; i++ {
		g := r.Intn(groups)
		workload = append(workload, groupRows[g])
		tr.Observe(groupRows[g])
	}
	static := NewLayout(ids)
	clustered := LayoutFromClusters(tr.Cluster(10), ids)
	pageSize := per
	costStatic := WorkloadCost(static, workload, pageSize)
	costClustered := WorkloadCost(clustered, workload, pageSize)
	if costClustered >= costStatic {
		t.Errorf("clustered layout no better: %d vs %d", costClustered, costStatic)
	}
	// Clustered layout should approach one page per access.
	if costClustered > len(workload)*2 {
		t.Errorf("clustered cost %d too high for %d accesses", costClustered, len(workload))
	}
}

func TestLayoutBasics(t *testing.T) {
	l := NewLayout([]storage.RowID{5, 7, 9})
	if l.Len() != 3 || l.Pos(7) != 1 || l.Pos(42) != -1 {
		t.Error("layout positions broken")
	}
	// Unplaced rows cost one page each.
	if got := l.PagesTouched([]storage.RowID{5, 42}, 16); got != 2 {
		t.Errorf("PagesTouched with miss = %d", got)
	}
	if got := l.PagesTouched([]storage.RowID{5, 7, 9}, 16); got != 1 {
		t.Errorf("single page = %d", got)
	}
	if got := l.PagesTouched(nil, 0); got != 0 {
		t.Errorf("empty access = %d", got)
	}
}

func TestCompressRoundTripAllCodecs(t *testing.T) {
	cases := map[string][]model.Value{
		"constant": repeatVal(model.String("x"), 100),
		"sorted-ints": func() []model.Value {
			var out []model.Value
			for i := 0; i < 100; i++ {
				out = append(out, model.Int(int64(1000+i)))
			}
			return out
		}(),
		"low-cardinality": func() []model.Value {
			var out []model.Value
			for i := 0; i < 90; i++ {
				out = append(out, model.String([]string{"red", "green", "blue"}[i%3]))
			}
			return out
		}(),
		"mixed": {model.Int(1), model.String("a"), model.Null(), model.Float(2.5), model.Bool(true)},
		"empty": {},
	}
	for name, col := range cases {
		c := Compress(col)
		got, err := Decompress(c)
		if err != nil {
			t.Errorf("%s (%s): %v", name, c.Encoding, err)
			continue
		}
		if len(got) != len(col) {
			t.Errorf("%s: %d values, want %d", name, len(got), len(col))
			continue
		}
		for i := range col {
			if !model.Equal(got[i], col[i]) {
				t.Errorf("%s[%d]: %v != %v", name, i, got[i], col[i])
				break
			}
		}
	}
}

func repeatVal(v model.Value, n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestCodecSelection(t *testing.T) {
	// Constant column → RLE wins.
	if c := Compress(repeatVal(model.String("xyz"), 1000)); c.Encoding != EncRLE {
		t.Errorf("constant column encoded as %s", c.Encoding)
	}
	// Sorted ints → delta wins.
	var sorted []model.Value
	for i := 0; i < 1000; i++ {
		sorted = append(sorted, model.Int(int64(1_000_000+i)))
	}
	if c := Compress(sorted); c.Encoding != EncDelta {
		t.Errorf("sorted ints encoded as %s", c.Encoding)
	}
	// Low-cardinality strings → dict (or RLE if runs align); must beat plain.
	var lowCard []model.Value
	for i := 0; i < 500; i++ {
		lowCard = append(lowCard, model.String([]string{"alpha", "beta", "gamma", "delta"}[i%4]))
	}
	c := Compress(lowCard)
	if c.Encoding == EncPlain {
		t.Errorf("low-cardinality column not compressed")
	}
	if c.Size() >= len(encodePlain(lowCard)) {
		t.Error("compression did not shrink")
	}
}

func TestClusteringImprovesCompression(t *testing.T) {
	// Rows have a category attribute; clustering by co-access (queries
	// touch one category at a time) groups equal values → longer runs.
	const n = 300
	cats := []string{"aaaa", "bbbb", "cccc"}
	vals := make([]model.Value, n)
	ids := make([]storage.RowID, n)
	byCat := map[string][]storage.RowID{}
	for i := 0; i < n; i++ {
		c := cats[i%3] // interleaved in storage order
		vals[i] = model.String(c)
		ids[i] = storage.RowID(i + 1)
		byCat[c] = append(byCat[c], ids[i])
	}
	tr := NewTracker()
	tr.MaxSetSize = n
	for i := 0; i < 30; i++ {
		for _, c := range cats {
			tr.Observe(byCat[c])
		}
	}
	clustered := LayoutFromClusters(tr.Cluster(10), ids)
	reordered := make([]model.Value, n)
	for i, id := range ids {
		reordered[clustered.Pos(id)] = vals[i]
	}
	before := len(encodeRLE(vals))
	after := len(encodeRLE(reordered))
	if after >= before {
		t.Errorf("clustering did not improve RLE: %d vs %d bytes", after, before)
	}
}

func TestRatio(t *testing.T) {
	cols := map[string][]model.Value{
		"const": repeatVal(model.Int(7), 200),
	}
	if r := Ratio(cols); r <= 1 {
		t.Errorf("Ratio = %v, want > 1", r)
	}
	if r := Ratio(map[string][]model.Value{}); r != 1 {
		t.Errorf("empty Ratio = %v", r)
	}
}

func TestPropertyCompressRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(50)
		col := make([]model.Value, n)
		for i := range col {
			switch r.Intn(4) {
			case 0:
				col[i] = model.Int(r.Int63n(1000) - 500)
			case 1:
				col[i] = model.String([]string{"a", "bb", "ccc"}[r.Intn(3)])
			case 2:
				col[i] = model.Float(r.NormFloat64())
			default:
				col[i] = model.Null()
			}
		}
		c := Compress(col)
		got, err := Decompress(c)
		if err != nil || len(got) != len(col) {
			return false
		}
		for i := range col {
			if !model.Equal(got[i], col[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
