package core

import (
	"fmt"
	"slices"
	"strings"

	"scdb/internal/catalog"
	"scdb/internal/fusion"
	"scdb/internal/model"
	"scdb/internal/ontology"
	"scdb/internal/query"
	"scdb/internal/richness"
)

// The curation statements (INSERT INTO claims, ADD AXIOMS, REFRESH
// RICHNESS) run under the db.mu write lock: each checks everything, writes
// its rows in one batch, and only then changes the derived layers, so a
// reopen, a crash image and a follower's refresh derive what it answered.

// curate runs one curation statement and answers with one row counting
// what it wrote.
func (db *DB) curate(st *query.CurateStmt, sink query.BatchSink) (*query.Result, error) {
	if db.opts.ReadOnly {
		return nil, fmt.Errorf("%w: %s", ErrReadOnly, st.Name())
	}
	tell, col := db.insertClaims, "inserted"
	switch st.Kind {
	case query.CurateAxioms:
		tell, col = db.addAxioms, "added"
	case query.CurateRichness:
		tell, col = db.refreshRichness, "sources"
	}
	db.mu.Lock()
	n, err := tell(st)
	db.mu.Unlock() // before the sink, which may write to a connection
	if err != nil {
		return nil, err
	}
	res := &query.Result{Columns: []string{col}, Rows: [][]model.Value{{model.Int(int64(n))}}}
	if sink != nil && !sink.EmitBatch(res.Columns, res.Rows) {
		return nil, query.ErrEmitStopped
	}
	return res, nil
}

// claimInputs are the claims columns an INSERT writes: the first four are
// required, context defaults to none and confidence to 1.
var claimInputs = []string{"entity", "attr", "value", "source", "context", "confidence"}

// insertClaims resolves every row's entity, by any indexed name or key,
// before it writes any row; the rows go to the claims table in one batch
// and then join the claim base.
func (db *DB) insertClaims(st *query.CurateStmt) (int, error) {
	if st.Table != "claims" {
		return 0, fmt.Errorf("core: INSERT INTO %s: only claims takes rows", st.Table)
	}
	for i, name := range st.Columns {
		if !slices.Contains(claimInputs, name) || slices.Contains(st.Columns[:i], name) {
			return 0, fmt.Errorf("core: INSERT INTO claims writes each of %s at most once, not %s", strings.Join(claimInputs, ", "), name)
		}
	}
	for _, name := range claimInputs[:4] {
		if !slices.Contains(st.Columns, name) {
			return 0, fmt.Errorf("core: INSERT INTO claims needs column %s", name)
		}
	}
	claims := make([]fusion.Claim, len(st.Rows))
	recs := make([]model.Record, len(st.Rows))
	for i, row := range st.Rows {
		in := map[string]model.Value{"context": model.String(""), "confidence": model.Float(1)}
		for j, name := range st.Columns {
			in[name] = row[j]
		}
		text := map[string]string{}
		for _, name := range []string{"entity", "attr", "source", "context"} {
			s, ok := in[name].AsString()
			if !ok {
				return 0, fmt.Errorf("core: claim %s must be text, got %s", name, in[name])
			}
			text[name] = s
		}
		conf, ok := in["confidence"].AsFloat()
		if !ok || conf <= 0 || conf > 1 {
			return 0, fmt.Errorf("core: claim confidence must be a number in (0, 1], got %s", in["confidence"])
		}
		e, ok := db.graph.Entity(db.lookupByText(text["entity"]))
		if !ok {
			return 0, fmt.Errorf("core: claim about unknown entity %q", text["entity"])
		}
		var ctx []string
		if text["context"] != "" {
			ctx = strings.Split(text["context"], "+")
		}
		claims[i] = fusion.Claim{Source: text["source"], Entity: e.ID, Attr: text["attr"], Value: in["value"], Context: ctx, Confidence: model.Fuzzy(conf)}
		recs[i] = model.Record{"claim_source": model.String(text["source"]), "entity_source": model.String(e.Source),
			"entity_key": model.String(e.Key), "attr": model.String(text["attr"]), "value": in["value"],
			"context": textList(ctx), "conf": model.Float(conf)}
	}
	if err := db.insert(claimsTable, recs); err != nil {
		return 0, err
	}
	for _, c := range claims {
		db.worlds.AddClaim(c)
	}
	return len(claims), nil
}

// addAxioms parses every line into a throwaway ontology first, so one bad
// line fails the statement; the ontology table stores the lines it lacks,
// and only those join the live ontology. Curation uses them from the next
// ingest on; an inference already drawn is re-derived lazily.
func (db *DB) addAxioms(st *query.CurateStmt) (int, error) {
	lines, err := ontology.Lines(strings.Join(st.Axioms, "\n"))
	if err != nil {
		return 0, err
	}
	added, err := catalog.AppendAxioms(db.store, lines)
	if err != nil {
		return 0, err
	}
	return len(added), db.onto.Parse(strings.NewReader(strings.Join(added, "\n")))
}

// refreshRichness measures every source's richness (FS.2), appends the
// scores as the next refresh's rows and weights fusion by them. The
// richness() relation measures without weighting.
func (db *DB) refreshRichness(*query.CurateStmt) (int, error) {
	all := richness.MeasureAll(db.graph)
	recs := make([]model.Record, len(all))
	for i, m := range all {
		recs[i] = model.Record{"refresh": model.Int(db.refresh + 1), "source": model.String(m.Source), "score": model.Float(m.Score)}
	}
	if err := db.insert(catalog.RichnessTable, recs); err != nil {
		return 0, err
	}
	for _, m := range all {
		db.worlds.SetRichness(m.Source, m.Score)
	}
	db.refresh++
	return len(all), nil
}

// insert writes recs to the named table in one batch.
func (db *DB) insert(table string, recs []model.Record) error {
	tb, err := db.store.EnsureTable(table)
	if err == nil {
		_, err = tb.InsertBatch(recs)
	}
	return err
}
