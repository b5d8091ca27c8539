package core

import (
	"fmt"
	"strings"
	"testing"

	"scdb/internal/model"
	"scdb/internal/storage"
	"scdb/internal/txn"
)

// columns renders table's sys.columns rows a line each: name, filled and
// the kinds.
func columns(t *testing.T, db *DB, table string) string {
	t.Helper()
	res := mustQuery(t, db, `SELECT name, filled, kinds FROM sys.columns WHERE "table" = '`+table+`' ORDER BY name`)
	var b strings.Builder
	for _, r := range res.Rows {
		name, _ := r[0].AsString()
		filled, _ := r[1].AsInt()
		l, _ := r[2].AsList()
		kinds := make([]string, len(l))
		for i, k := range l {
			kinds[i], _ = k.AsString()
		}
		fmt.Fprintf(&b, "%s %d %s\n", name, filled, strings.Join(kinds, " "))
	}
	return b.String()
}

// commit runs write in one transaction and commits it.
func commit(t *testing.T, db *DB, write func(*txn.Txn) error) {
	t.Helper()
	tx := db.Begin(txn.Snapshot)
	if err := write(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsReadTheRows: sys.columns is the union schema of a table's
// stored rows. Heterogeneity is counted, not rejected (a null is a kind),
// attributes come in name order, and a table the store lacks has no rows.
func TestColumnsReadTheRows(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	commit(t, db, func(tx *txn.Txn) error {
		for _, rec := range []model.Record{
			{"name": model.String("Warfarin"), "dose": model.Float(5.1)},
			{"name": model.String("X"), "dose": model.Null()},
			{"name": model.String("Y"), "formula": model.String("C19")},
		} {
			if _, err := tx.Insert("drugs", rec); err != nil {
				return err
			}
		}
		return nil
	})
	if got, want := columns(t, db, "drugs"), "dose 1 float×1 null×1\nformula 1 string×1\nname 3 string×3\n"; got != want {
		t.Errorf("sys.columns for drugs:\n%swant:\n%s", got, want)
	}
	if got := columns(t, db, "missing"); got != "" {
		t.Errorf("sys.columns for a missing table:\n%s", got)
	}
}

// TestColumnsFollowTxWrites: a row a transaction inserts or deletes moves
// the counts, as a delivery's rows do.
func TestColumnsFollowTxWrites(t *testing.T) {
	db := openLifeSci(t)
	const before = "_key 5 string×5\n_types 5 list×5\nname 5 string×5\n"
	if got := columns(t, db, "drugbank"); got != before {
		t.Fatalf("sys.columns for drugbank after ingest:\n%swant:\n%s", got, before)
	}
	var id storage.RowID
	commit(t, db, func(tx *txn.Txn) (err error) {
		id, err = tx.Insert("drugbank", model.Record{"_key": model.String("DBX"), "name": model.Int(7), "mass": model.Float(1.5)})
		return err
	})
	if got, want := columns(t, db, "drugbank"), "_key 6 string×6\n_types 5 list×5\nmass 1 float×1\nname 6 int×1 string×5\n"; got != want {
		t.Errorf("sys.columns after the insert:\n%swant:\n%s", got, want)
	}
	commit(t, db, func(tx *txn.Txn) error { return tx.Delete("drugbank", id) })
	if got := columns(t, db, "drugbank"); got != before {
		t.Errorf("sys.columns after the delete:\n%swant:\n%s", got, before)
	}
}
