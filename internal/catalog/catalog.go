// Package catalog makes the database self-descriptive (paper Sections 1
// and 5): "the data schema becomes part of the data", and "meta-data and
// data representations must be unified and their distinction eliminated".
//
// There is no DDL. The catalog *observes* records as they are ingested and
// maintains each table's union schema — attribute names, the value kinds
// seen in them, and fill counts — as ordinary rows in system tables of the
// same store that holds the data (`_catalog_tables`, `_catalog_sources`,
// `_catalog_ontology`, `_catalog_richness`). The ontology is persisted the
// same way, as axiom rows appended when the axioms are told. Meta-data is
// therefore queryable with SCQL like any other table, and schema evolution
// is just new observations.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"scdb/internal/model"
	"scdb/internal/ontology"
	"scdb/internal/storage"
)

// System table names. The leading underscore keeps them out of users' way
// but they are ordinary tables: SELECT * FROM _catalog_tables works.
const (
	TablesTable   = "_catalog_tables"
	SourcesTable  = "_catalog_sources"
	OntologyTable = "_catalog_ontology"
	// RichnessTable holds each richness refresh's source weights, as
	// (refresh, source, score) rows.
	RichnessTable = "_catalog_richness"
)

// AttrInfo describes one attribute of a table's observed union schema.
type AttrInfo struct {
	Name string
	// Kinds counts the value kinds observed (heterogeneity is expected and
	// recorded, not rejected).
	Kinds map[string]int
	// Filled counts records carrying a non-null value.
	Filled int
}

// SourceInfo describes a registered data source.
type SourceInfo struct {
	Name        string
	Kind        string // "table", "stream", "external", ...
	Description string
}

// Catalog maintains the unified meta-data.
type Catalog struct {
	store *storage.Store

	mu      sync.RWMutex
	schemas map[string]map[string]*AttrInfo // table → attr → info
	counts  map[string]int                  // table → observed records
	sources map[string]SourceInfo
}

// Open creates the catalog over a store and loads its persisted
// meta-data. A writable catalog first ensures the system tables exist; a
// read-only one writes nothing and skips absent tables, because a read
// replica must not append local frames: its commit clock is the primary's.
func Open(store *storage.Store, readOnly bool) (*Catalog, error) {
	c := &Catalog{
		store:   store,
		schemas: map[string]map[string]*AttrInfo{},
		counts:  map[string]int{},
		sources: map[string]SourceInfo{},
	}
	if !readOnly {
		for _, t := range []string{TablesTable, SourcesTable, OntologyTable} {
			if _, err := store.EnsureTable(t); err != nil {
				return nil, fmt.Errorf("catalog: %w", err)
			}
		}
	}
	if tt, ok := store.Table(TablesTable); ok {
		c.loadTables(tt)
	}
	if st, ok := store.Table(SourcesTable); ok {
		c.loadSources(st)
	}
	return c, nil
}

func (c *Catalog) loadTables(tt *storage.Table) {
	tt.Scan(func(_ storage.RowID, rec model.Record) bool {
		table, _ := rec.Get("table").AsString()
		attr, _ := rec.Get("attribute").AsString()
		kind, _ := rec.Get("kind").AsString()
		n, _ := rec.Get("count").AsInt()
		filled, _ := rec.Get("filled").AsInt()
		total, _ := rec.Get("records").AsInt()
		if table == "" || attr == "" {
			return true
		}
		info := c.attrLocked(table, attr)
		if kind != "" {
			info.Kinds[kind] += int(n)
		}
		info.Filled += int(filled)
		if int(total) > c.counts[table] {
			c.counts[table] = int(total)
		}
		return true
	})
}

func (c *Catalog) loadSources(st *storage.Table) {
	st.Scan(func(_ storage.RowID, rec model.Record) bool {
		name, _ := rec.Get("name").AsString()
		if name == "" {
			return true
		}
		kind, _ := rec.Get("kind").AsString()
		desc, _ := rec.Get("description").AsString()
		c.sources[name] = SourceInfo{Name: name, Kind: kind, Description: desc}
		return true
	})
}

func (c *Catalog) attrLocked(table, attr string) *AttrInfo {
	m, ok := c.schemas[table]
	if !ok {
		m = map[string]*AttrInfo{}
		c.schemas[table] = m
	}
	info, ok := m[attr]
	if !ok {
		info = &AttrInfo{Name: attr, Kinds: map[string]int{}}
		m[attr] = info
	}
	return info
}

// Observe folds one ingested record into the table's union schema.
func (c *Catalog) Observe(table string, rec model.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[table]++
	for k, v := range rec {
		info := c.attrLocked(table, k)
		if !v.IsNull() {
			info.Filled++
		}
		info.Kinds[v.Kind().String()]++
	}
}

// Schema returns the observed union schema of a table, attributes sorted.
func (c *Catalog) Schema(table string) []AttrInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.schemas[table]
	out := make([]AttrInfo, 0, len(m))
	for _, info := range m {
		cp := AttrInfo{Name: info.Name, Filled: info.Filled, Kinds: map[string]int{}}
		for k, n := range info.Kinds {
			cp.Kinds[k] = n
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegisterSource records a data source.
func (c *Catalog) RegisterSource(info SourceInfo) error {
	if info.Name == "" {
		return fmt.Errorf("catalog: source needs a name")
	}
	c.mu.Lock()
	c.sources[info.Name] = info
	c.mu.Unlock()
	return nil
}

// Sources returns registered sources sorted by name.
func (c *Catalog) Sources() []SourceInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]SourceInfo, 0, len(c.sources))
	for _, s := range c.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Flush persists the in-memory meta-data into the system tables (replacing
// prior contents), making the schema queryable as data and durable with
// the store.
func (c *Catalog) Flush() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.replaceTable(TablesTable, c.schemaRows()); err != nil {
		return err
	}
	return c.replaceTable(SourcesTable, c.sourceRows())
}

func (c *Catalog) schemaRows() []model.Record {
	var rows []model.Record
	tables := make([]string, 0, len(c.schemas))
	for t := range c.schemas {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		attrs := c.schemas[t]
		names := make([]string, 0, len(attrs))
		for a := range attrs {
			names = append(names, a)
		}
		sort.Strings(names)
		for _, a := range names {
			info := attrs[a]
			kinds := make([]string, 0, len(info.Kinds))
			for k := range info.Kinds {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				rows = append(rows, model.Record{
					"table":     model.String(t),
					"attribute": model.String(a),
					"kind":      model.String(k),
					"count":     model.Int(int64(info.Kinds[k])),
					"filled":    model.Int(int64(info.Filled)),
					"records":   model.Int(int64(c.counts[t])),
				})
			}
		}
	}
	return rows
}

func (c *Catalog) sourceRows() []model.Record {
	var rows []model.Record
	names := make([]string, 0, len(c.sources))
	for n := range c.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := c.sources[n]
		rows = append(rows, model.Record{
			"name":        model.String(s.Name),
			"kind":        model.String(s.Kind),
			"description": model.String(s.Description),
		})
	}
	return rows
}

func (c *Catalog) replaceTable(name string, rows []model.Record) error {
	tb, err := c.store.EnsureTable(name)
	if err != nil {
		return err
	}
	var ids []storage.RowID
	tb.Scan(func(id storage.RowID, _ model.Record) bool {
		ids = append(ids, id)
		return true
	})
	for _, id := range ids {
		if err := tb.Delete(id); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if _, err := tb.Insert(r); err != nil {
			return err
		}
	}
	return nil
}

// AppendAxioms stores the axiom lines the ontology table does not hold
// yet, in one batch, and returns them. Rows are only ever appended: axioms
// are monotone, and LoadOntology unions every row.
func (c *Catalog) AppendAxioms(lines []string) ([]string, error) {
	tb, err := c.store.EnsureTable(OntologyTable)
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
func (c *Catalog) LoadOntology() (*ontology.Ontology, error) {
	tb, ok := c.store.Table(OntologyTable)
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
