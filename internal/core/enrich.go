package core

import (
	"sort"

	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/semantic"
)

// This file integrates statistical link prediction into the relation layer
// (FS.4) — the "non-deterministic predictive inference power" whose
// transactional consequences FS.11 studies. Its read side is the
// suggest_links() relation (relations.go).

// linkPredictor trains the co-occurrence link predictor on the current
// graph over the reasoner's (asserted + inferred) types, which it returns
// for the predictor's suggestions to read.
func (db *DB) linkPredictor() (*semantic.LinkPredictor, func(model.EntityID) []string) {
	lp := semantic.NewLinkPredictor()
	typesOf := db.reasoner.EntityTypes
	lp.Train(db.graph, typesOf)
	return lp, typesOf
}

// EnrichPredictedLinks adds every suggestion with confidence >= minConf as
// a real (confidence-weighted, source "predicted") edge for every entity
// holding the role's domain concept, re-materializing inference over the
// touched entities. It returns the number of edges added. This is the
// enrichment channel that changes query answers without any client write —
// exactly the non-determinism FS.11's isolation levels arbitrate.
func (db *DB) EnrichPredictedLinks(pred string, perEntity int, minConf model.Fuzzy) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	lp, typesOf := db.linkPredictor()

	domains := db.onto.DomainsOf(pred)
	var candidates []model.EntityID
	if len(domains) > 0 {
		seen := map[model.EntityID]bool{}
		for _, d := range domains {
			for _, id := range db.reasoner.Instances(d) {
				if !seen[id] {
					seen[id] = true
					candidates = append(candidates, id)
				}
			}
		}
	} else {
		candidates = db.graph.EntityIDs()
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })

	added := 0
	var touched []model.EntityID
	for _, from := range candidates {
		for _, s := range lp.Suggest(db.graph, from, pred, typesOf, perEntity) {
			if s.Confidence < minConf {
				continue
			}
			err := db.graph.AddEdge(graph.Edge{
				From: s.From, Predicate: s.Predicate, To: model.Ref(s.To),
				Source: "predicted", Confidence: s.Confidence,
			})
			if err != nil {
				return added, err
			}
			added++
			touched = append(touched, s.From, s.To)
		}
	}
	if added > 0 {
		db.reasoner.MaterializeEntities(touched)
	}
	return added, nil
}
