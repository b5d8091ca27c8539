package scdb

import (
	"fmt"

	"scdb/internal/datagen"
)

// This file ships the paper's running examples as ready-made datasets so
// the examples and quickstarts exercise the public API without hand-typing
// the corpus.

// LifeSciAxioms is the Figure-2 ontology in Options.Axioms format: the
// chemical/disease taxonomies, their disjointness, the Drug ⊑
// ∃hasTarget.Gene existential, and the targets role hierarchy.
const LifeSciAxioms = datagen.LifeSciAxioms

// PopulationAxioms is the Warfarin example's disjoint population classes.
const PopulationAxioms = datagen.PopulationAxioms

// LifeSciLinkRules resolves the sample sources' literal references
// (targets_symbol, treats_name) into entity edges.
func LifeSciLinkRules() []LinkRule {
	return []LinkRule{
		{Predicate: "targets_symbol", EdgePredicate: "targets", TargetAttrs: []string{"symbol", "gene_symbol"}, TargetType: "Gene"},
		{Predicate: "treats_name", EdgePredicate: "treats", TargetAttrs: []string{"disease_name"}},
	}
}

// LifeSciPatterns extracts treats/targets relations from abstracts.
func LifeSciPatterns() []Pattern {
	return []Pattern{
		{Trigger: "treats", Predicate: "treats"},
		{Trigger: "targets", Predicate: "targets"},
	}
}

// LifeSciSample generates the three Figure-2 sources (DrugBank-, CTD-, and
// UniProt-like). The canonical paper entities are always present;
// nDrugs/nGenes/nDiseases add deterministic synthetic bulk (0 for just the
// canon). The seed controls the bulk.
func LifeSciSample(seed int64, nDrugs, nGenes, nDiseases int) []Source {
	var out []Source
	for _, ds := range datagen.LifeSci(seed, nDrugs, nGenes, nDiseases) {
		out = append(out, fromDataset(ds))
	}
	return out
}

// ClinicalClaims is the Section-4.2 Warfarin scenario as a statement:
// three demographically biased sources report effective doses of 5.1, 3.4
// and 6.1 mg, each scoped to its population class. Ingest a source that
// defines Warfarin first (LifeSciSample does) and add PopulationAxioms.
const ClinicalClaims = `INSERT INTO claims (entity, attr, value, source, context) VALUES
	('Warfarin', 'effective_dose_mg', 5.1, 'trials-us', 'White'),
	('Warfarin', 'effective_dose_mg', 3.4, 'trials-asia', 'Asian'),
	('Warfarin', 'effective_dose_mg', 6.1, 'trials-africa', 'Black')`

// ClinicalTrialSources generates the per-country trial record tables
// backing the claims (n records per source, dose-jittered).
func ClinicalTrialSources(seed int64, n int) []Source {
	var out []Source
	for _, ts := range datagen.ClinicalTrials(seed, n) {
		src := Source{Name: ts.Source}
		for i, rec := range ts.Records {
			e := Entity{Key: recKey(ts.Source, i), Types: []string{"Trial"}, Attrs: Record{}}
			for k, v := range rec {
				e.Attrs[k] = fromValue(v)
			}
			src.Entities = append(src.Entities, e)
		}
		out = append(out, src)
	}
	return out
}

func recKey(source string, i int) string {
	return fmt.Sprintf("%s:%05d", source, i)
}

// StreamSample generates n single-entity deliveries mimicking devices and
// posts arriving one at a time, with cross-platform duplicates so
// incremental entity resolution has continuous work.
func StreamSample(seed int64, n int) []Source {
	var out []Source
	for _, ds := range datagen.Stream(seed, n) {
		out = append(out, fromDataset(ds))
	}
	return out
}

// fromDataset converts the internal dataset form to the public Source.
func fromDataset(ds datagen.Dataset) Source {
	src := Source{Name: ds.Source, Texts: ds.Texts}
	for _, e := range ds.Entities {
		attrs := Record{}
		for k, v := range e.Attrs {
			attrs[k] = fromValue(v)
		}
		src.Entities = append(src.Entities, Entity{Key: e.Key, Types: e.Types, Attrs: attrs})
	}
	for _, l := range ds.Links {
		link := Link{FromKey: l.FromKey, Predicate: l.Predicate, ToKey: l.ToKey, Confidence: l.Confidence}
		if l.ToKey == "" {
			link.Value = fromValue(l.Literal)
		}
		src.Links = append(src.Links, link)
	}
	return src
}

// OpenSample opens a database with opts and loads one of the bundled
// sample corpora into it: "lifesci" (the Figure-2 sources), "clinical"
// (the canonical life-science entities plus the Warfarin trial sources,
// their claims and richness weights) or "stream" (the device stream). The
// corpus's axioms, link rules and patterns replace those in opts. "" is
// plain Open. It is what the -load flag of scdb and scdb-server runs.
func OpenSample(name string, opts Options) (*DB, error) {
	var srcs []Source
	switch name {
	case "lifesci", "clinical":
		opts.Axioms = LifeSciAxioms + PopulationAxioms
		opts.LinkRules = LifeSciLinkRules()
		opts.Patterns = LifeSciPatterns()
		srcs = LifeSciSample(1, 100, 60, 40)
		if name == "clinical" {
			srcs = append(LifeSciSample(1, 0, 0, 0), ClinicalTrialSources(1, 20)...)
		}
	case "stream":
		opts.Axioms = "concept Device"
		srcs = StreamSample(1, 100)
	case "":
	default:
		return nil, fmt.Errorf("scdb: unknown sample %q (want lifesci, clinical, or stream)", name)
	}
	db, err := Open(opts)
	if err != nil {
		return nil, err
	}
	for _, src := range srcs {
		if err := db.Ingest(src); err != nil {
			db.Close()
			return nil, err
		}
	}
	if name == "clinical" {
		for _, stmt := range []string{ClinicalClaims, "REFRESH RICHNESS"} {
			if _, err := db.Query(stmt); err != nil {
				db.Close()
				return nil, err
			}
		}
	}
	return db, nil
}
