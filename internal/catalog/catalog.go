// Package catalog keeps what a curator tells the database about its
// meta-data, as rows of the same store that holds the data (paper
// Sections 1 and 5): "the data schema becomes part of the data", and
// "meta-data and data representations must be unified and their
// distinction eliminated".
//
// There is no DDL, and no copy of the schema: sys.columns reads each
// table's attributes off its stored rows. What the rows cannot say is
// told and stored here, in ordinary tables: the ontology's axioms
// (`_catalog_ontology`), appended when they are told, and each richness
// refresh's source weights (`_catalog_richness`). Meta-data is therefore
// queryable with SCQL like any other table.
package catalog

import (
	"fmt"
	"strings"

	"scdb/internal/model"
	"scdb/internal/ontology"
	"scdb/internal/storage"
)

// System table names. The leading underscore keeps them out of users' way
// but they are ordinary tables: SELECT * FROM _catalog_ontology works.
const (
	OntologyTable = "_catalog_ontology"
	// RichnessTable holds each richness refresh's source weights, as
	// (refresh, source, score) rows.
	RichnessTable = "_catalog_richness"
)

// AppendAxioms stores the axiom lines the ontology table does not hold
// yet, in one batch, and returns them. Rows are only ever appended: axioms
// are monotone, and LoadOntology unions every row.
func AppendAxioms(store *storage.Store, lines []string) ([]string, error) {
	tb, err := store.EnsureTable(OntologyTable)
	if err != nil {
		return nil, err
	}
	stored := map[string]bool{}
	tb.Scan(func(_ storage.RowID, rec model.Record) bool {
		ax, _ := rec.Get("axiom").AsString()
		stored[ax] = true
		return true
	})
	var added []string
	var rows []model.Record
	for _, l := range lines {
		if !stored[l] {
			stored[l] = true
			added = append(added, l)
			rows = append(rows, model.Record{"axiom": model.String(l)})
		}
	}
	if _, err := tb.InsertBatch(rows); err != nil {
		return nil, err
	}
	return added, nil
}

// LoadOntology rebuilds the ontology from the persisted axiom rows.
func LoadOntology(store *storage.Store) (*ontology.Ontology, error) {
	tb, ok := store.Table(OntologyTable)
	if !ok {
		return ontology.New(), nil
	}
	var lines []string
	tb.Scan(func(_ storage.RowID, rec model.Record) bool {
		if ax, ok := rec.Get("axiom").AsString(); ok && ax != "" {
			lines = append(lines, ax)
		}
		return true
	})
	o := ontology.New()
	if len(lines) == 0 {
		return o, nil
	}
	if err := o.Parse(strings.NewReader(strings.Join(lines, "\n"))); err != nil {
		return nil, fmt.Errorf("catalog: corrupt ontology rows: %w", err)
	}
	return o, nil
}
