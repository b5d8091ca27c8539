package catalog

import (
	"testing"

	"scdb/internal/model"
	"scdb/internal/storage"
)

func open(t *testing.T, dir string) (*storage.Store, *Catalog) {
	t.Helper()
	s, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(s, false)
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

func TestObserveBuildsUnionSchema(t *testing.T) {
	s, c := open(t, "")
	defer s.Close()
	c.Observe("drugs", model.Record{"name": model.String("Warfarin"), "dose": model.Float(5.1)})
	c.Observe("drugs", model.Record{"name": model.String("X"), "dose": model.Null()})
	c.Observe("drugs", model.Record{"name": model.String("Y"), "formula": model.String("C19")})

	schema := c.Schema("drugs")
	if len(schema) != 3 {
		t.Fatalf("schema = %+v", schema)
	}
	if schema[0].Name != "dose" || schema[1].Name != "formula" || schema[2].Name != "name" {
		t.Errorf("attribute order = %+v", schema)
	}
	dose := schema[0]
	if dose.Filled != 1 {
		t.Errorf("dose filled = %d", dose.Filled)
	}
	if dose.Kinds["float"] != 1 || dose.Kinds["null"] != 1 {
		t.Errorf("dose kinds = %v (heterogeneity must be recorded)", dose.Kinds)
	}
	if n := flushedRecords(t, s, c, "drugs"); n != 3 {
		t.Errorf("records = %d", n)
	}
	if got := c.Schema("missing"); len(got) != 0 {
		t.Errorf("missing table schema = %v", got)
	}
}

func TestSchemaIsDataQueryable(t *testing.T) {
	s, c := open(t, "")
	defer s.Close()
	c.Observe("drugs", model.Record{"name": model.String("Warfarin")})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Meta-data lives in an ordinary table of the same store.
	tb, ok := s.Table(TablesTable)
	if !ok {
		t.Fatal("system table missing")
	}
	found := false
	tb.Scan(func(_ storage.RowID, rec model.Record) bool {
		if tn, _ := rec.Get("table").AsString(); tn == "drugs" {
			if attr, _ := rec.Get("attribute").AsString(); attr == "name" {
				found = true
			}
		}
		return true
	})
	if !found {
		t.Error("schema row not queryable as data")
	}
}

func TestSourcesRegistry(t *testing.T) {
	s, c := open(t, "")
	defer s.Close()
	if err := c.RegisterSource(SourceInfo{Name: "drugbank", Kind: "external", Description: "bioinformatics resource"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterSource(SourceInfo{}); err == nil {
		t.Error("nameless source must fail")
	}
	c.RegisterSource(SourceInfo{Name: "ctd", Kind: "external"})
	got := c.Sources()
	if len(got) != 2 || got[0].Name != "ctd" || got[1].Name != "drugbank" {
		t.Errorf("Sources = %+v", got)
	}
}

func TestCatalogPersistence(t *testing.T) {
	dir := t.TempDir()
	s, c := open(t, dir)
	c.Observe("drugs", model.Record{"name": model.String("Warfarin"), "dose": model.Float(5.1)})
	c.Observe("drugs", model.Record{"name": model.String("Ibuprofen")})
	c.RegisterSource(SourceInfo{Name: "drugbank", Kind: "external"})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, c2 := open(t, dir)
	defer s2.Close()
	schema := c2.Schema("drugs")
	if len(schema) != 2 {
		t.Fatalf("recovered schema = %+v", schema)
	}
	if n := flushedRecords(t, s2, c2, "drugs"); n != 2 {
		t.Errorf("recovered count = %d", n)
	}
	srcs := c2.Sources()
	if len(srcs) != 1 || srcs[0].Name != "drugbank" {
		t.Errorf("recovered sources = %+v", srcs)
	}
}

func TestOntologyRoundTrip(t *testing.T) {
	s, c := open(t, "")
	defer s.Close()
	lines := []string{"sub Drug Chemical", "disjoint Chemical Disease", "exists Drug hasTarget Gene"}
	if added, err := c.AppendAxioms(lines); err != nil || len(added) != 3 {
		t.Fatalf("AppendAxioms = %v, %v", added, err)
	}
	o2, err := c.LoadOntology()
	if err != nil {
		t.Fatal(err)
	}
	if !o2.Subsumes("Chemical", "Drug") {
		t.Error("subsumption lost")
	}
	if !o2.AreDisjoint("Drug", "Disease") {
		t.Error("disjointness lost")
	}
	if len(o2.Existentials("Drug")) != 1 {
		t.Error("existential lost")
	}
	// Appending again stores only the line the table lacks.
	if added, err := c.AppendAxioms(append(lines, "concept Gene")); err != nil || len(added) != 1 {
		t.Fatalf("second AppendAxioms = %v, %v", added, err)
	}
	tb, _ := s.Table(OntologyTable)
	if tb.Len() != 4 {
		t.Errorf("axiom rows = %d, want 4", tb.Len())
	}
}

// flushedRecords flushes the catalog and reads the record count its
// tables rows hold for table.
func flushedRecords(t *testing.T, s *storage.Store, c *Catalog, table string) int {
	t.Helper()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table(TablesTable)
	n := int64(-1)
	tb.Scan(func(_ storage.RowID, rec model.Record) bool {
		if tn, _ := rec.Get("table").AsString(); tn == table {
			n, _ = rec.Get("records").AsInt()
		}
		return true
	})
	return int(n)
}

func TestLoadOntologyEmpty(t *testing.T) {
	s, c := open(t, "")
	defer s.Close()
	o, err := c.LoadOntology()
	if err != nil || o == nil {
		t.Fatalf("empty ontology load: %v", err)
	}
	if len(o.Concepts()) != 0 {
		t.Error("fresh ontology must be empty")
	}
}
