package scdb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestReadAllocBudget is the read allocation gate: three of the standing
// benchmark's read statements through QueryInfoCtx on its 20,000-row items
// corpus, their select lists reordered so that no warm-up statement shares
// their text. Each run has new text, so the plan cache and the result cache
// miss and the statement is lexed, parsed, optimized and executed. A plain
// statement renders no plan, rule log or operator-stats text, the lexer
// copies no word, a GROUP BY keeps its groups in slabs, and a read of one
// morsel runs on the caller's goroutine (its scan a cursor, no stage
// starting workers), so a point read costs at most 70 objects (63 on
// go1.24/linux/amd64), a 100-row range over slot at most 90 (81) and a
// GROUP BY region over 10,000 rows at most 260 (232). The same runs cost
// 102, 119 and 274 at commit f0c61cd, when every scan ran on a producer
// goroutine and every stage started its pool, and the point read and the
// GROUP BY 195 and 1,640 at commit 43e9492.
func TestReadAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 20,000-row corpus")
	}
	const rows, runs = 20000, 50
	db := benchReadMixDB(t, rand.New(rand.NewSource(1)), rows)
	ctx := context.Background()
	for _, c := range []struct {
		name           string
		stmt           func(i int) string
		budget, parent float64
	}{
		{"point read", func(i int) string {
			return fmt.Sprintf("SELECT name, region, qty, price FROM items WHERE _key = 'it-%07d'", i)
		}, 70, 102},
		{"100-row range", func(i int) string {
			return fmt.Sprintf("SELECT slot, price, _key FROM items WHERE slot >= %d AND slot < %d", i, i+100)
		}, 90, 119},
		{"GROUP BY region", func(i int) string {
			return fmt.Sprintf("SELECT region, COUNT(*) AS n, SUM(qty) AS q, MAX(price) AS hi, MIN(price) AS lo FROM items WHERE slot >= %d AND slot < %d GROUP BY region", i, i+rows/2)
		}, 260, 274},
	} {
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			i++
			res, info, err := db.QueryInfoCtx(ctx, c.stmt(i))
			if err != nil {
				t.Fatal(err)
			}
			if info.PlanCached || info.CacheHit || len(res.Data) == 0 {
				t.Fatalf("%s: run %d plan cached %v, result cached %v, %d rows", c.name, i, info.PlanCached, info.CacheHit, len(res.Data))
			}
		})
		t.Logf("%s: %.0f objects", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s allocates %.0f objects, budget %.0f; the same statement cost %.0f at commit f0c61cd", c.name, allocs, c.budget, c.parent)
		}
	}
}
