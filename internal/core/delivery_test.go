package core

import (
	"errors"
	"testing"

	"scdb/internal/curate"
	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/model"
)

func namedSpec(key, name string) datagen.EntitySpec {
	return datagen.EntitySpec{Key: key, Attrs: model.Record{"name": model.String(name)}}
}

func rowCount(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	res, _, err := db.Query("SELECT COUNT(*) AS n FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := res.Rows[0][0].AsInt()
	return n
}

// TestRejectedDeliveryWritesNothing: a delivery whose link names a key
// that neither it nor its source holds is refused before any of it is
// written. It used to install its rows and log its link row first, so the
// rows stayed and every later open failed to replay the link.
func TestRejectedDeliveryWritesNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("k1", "first")}}); err != nil {
		t.Fatal(err)
	}
	err = db.Ingest(datagen.Dataset{
		Source:   "s",
		Entities: []datagen.EntitySpec{namedSpec("k2", "second")},
		Links:    []datagen.LinkSpec{{FromKey: "nope", Predicate: "rel", ToKey: "k2"}},
	})
	if !errors.Is(err, curate.ErrInvalidDelivery) {
		t.Errorf("link from an unknown key: err = %v, want ErrInvalidDelivery", err)
	}
	if n := rowCount(t, db, "s"); n != 1 {
		t.Errorf("rows after a refused delivery = %d, want 1", n)
	}
	// A link may name a key its source already holds.
	if err := db.Ingest(datagen.Dataset{
		Source:   "s",
		Entities: []datagen.EntitySpec{namedSpec("k3", "third")},
		Links:    []datagen.LinkSpec{{FromKey: "k1", Predicate: "rel", ToKey: "k3"}},
	}); err != nil {
		t.Fatal(err)
	}
	edges := db.Graph().NumEdges()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after a refused delivery: %v", err)
	}
	defer re.Close()
	if n := rowCount(t, re, "s"); n != 2 {
		t.Errorf("rows after reopen = %d, want 2", n)
	}
	if _, ok := re.graph.FindByKey("s", "k2"); ok {
		t.Error("the refused delivery's entity came back")
	}
	if got := re.Graph().NumEdges(); got != edges {
		t.Errorf("edges after reopen = %d, want %d", got, edges)
	}
}

// TestEmptyKeyRejected: an entity without a key is refused with the rest of
// its delivery. Live ingest used to curate it while replay skips keyless
// rows, so it vanished on reopen.
func TestEmptyKeyRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("", "keyless"), namedSpec("k", "keyed")}})
	if !errors.Is(err, curate.ErrInvalidDelivery) {
		t.Errorf("empty key: err = %v, want ErrInvalidDelivery", err)
	}
	if _, ok := db.Store().Table("s"); ok {
		t.Error("a refused delivery created its table")
	}
	if err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("k", "keyed")}}); err != nil {
		t.Fatal(err)
	}
	live := db.Graph().NumEntities()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Graph().NumEntities(); got != live || got != 1 {
		t.Errorf("entities: %d live, %d after reopen; want 1 and 1", live, got)
	}
}

// TestReservedAttrRejected: a stored row's own columns, _key and _types,
// are not delivered attributes. A delivery naming either is refused whole,
// with nothing written. A delivered _key used to be overwritten by the
// entity's key without a word (WHERE _key = 'zzz' answered nothing), and a
// delivered _types was stored but stripped from the graph on reopen.
func TestReservedAttrRejected(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, name := range []string{model.KeyAttr, model.TypesAttr} {
		bad := namedSpec("a", "alpha one")
		bad.Attrs[name] = model.String("zzz")
		err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("b", "beta two"), bad}})
		if !errors.Is(err, curate.ErrInvalidDelivery) {
			t.Errorf("a delivered %s: err = %v, want ErrInvalidDelivery", name, err)
		}
		if _, ok := db.Store().Table("s"); ok {
			t.Fatalf("a delivery refused for its %s created its table", name)
		}
		if n := db.Graph().NumEntities(); n != 0 {
			t.Fatalf("a delivery refused for its %s left %d entities", name, n)
		}
	}
	if err := db.Ingest(datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{namedSpec("a", "alpha one")}}); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Query("SELECT _key FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(res), "_key\n\"a\"\n"; got != want {
		t.Errorf("SELECT _key FROM s = %q, want %q", got, want)
	}
}

// TestLookupByTextSkipsRowColumns: an entity's attributes are its stored
// row, so a name lookup must answer as it would over copies without _key
// and _types. The corpus has keys and type names that are no entity's name.
func TestLookupByTextSkipsRowColumns(t *testing.T) {
	db, err := Open(lifesciOptions(""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dss := append(datagen.LifeSci(1, 10, 8, 6), datagen.Dataset{Source: "s", Entities: []datagen.EntitySpec{
		{Key: "Kelp Sensor", Types: []string{"Drug"}, Attrs: model.Record{"name": model.String("north buoy")}},
		{Key: "north buoy", Types: []string{"Gene"}, Attrs: model.Record{"name": model.String("Warfarin")}},
	}})
	for _, ds := range dss {
		if err := db.Ingest(ds); err != nil {
			t.Fatal(err)
		}
	}
	reference := func(text string) model.EntityID {
		norm := er.Normalize(text)
		best := model.NoEntity
		db.graph.ForEachEntity(func(e *model.Entity) bool {
			for k, v := range e.Attrs {
				if k == model.KeyAttr || k == model.TypesAttr {
					continue
				}
				if s, ok := v.AsString(); ok && er.Normalize(s) == norm && (best == model.NoEntity || e.ID < best) {
					best = e.ID
				}
			}
			return true
		})
		return best
	}
	probes := map[string]bool{"Drug": true, "Gene": true, "Chemical": true}
	db.graph.ForEachEntity(func(e *model.Entity) bool {
		probes[e.Key] = true
		for _, v := range e.Attrs {
			if s, ok := v.AsString(); ok {
				probes[s] = true
			}
		}
		return true
	})
	for text := range probes {
		if got, want := db.lookupByText(text), reference(text); got != want {
			t.Errorf("lookupByText(%q) = %d, want %d", text, got, want)
		}
	}
}
