// Package reason implements ABox reasoning over the relation layer
// (paper Section 3.3): given the entity graph (ABox) and the ontology
// (TBox/RBox), it materializes inferred type memberships (subsumption
// closure and domain/range inference), existential witnesses ("Acetaminophen
// is a Drug, and Drug ⊑ ∃hasTarget.Gene, therefore Acetaminophen has some
// target even though none is asserted"), and inconsistency reports (an
// entity asserted to belong to disjoint concepts).
//
// Inferred facts are kept separate from asserted facts so that they can be
// retracted when the ontology or the graph changes — the continuous,
// non-deterministic enrichment whose transactional consequences FS.11
// examines. Materialization is incremental: only entities affected by a
// change are re-inferred.
package reason

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/ontology"
)

// Witness records an inferred existential: the entity must have Role to
// some instance of Filler although no concrete edge is known.
type Witness struct {
	Entity model.EntityID
	Role   string
	Filler string
	// Because names the concept whose existential restriction fired.
	Because string
}

// Inconsistency reports an entity whose (asserted + inferred) types contain
// a disjoint pair.
type Inconsistency struct {
	Entity   model.EntityID
	ConceptA string
	ConceptB string
}

func (i Inconsistency) String() string {
	return fmt.Sprintf("entity %d belongs to disjoint concepts %q and %q", i.Entity, i.ConceptA, i.ConceptB)
}

// Stats summarizes one materialization pass.
type Stats struct {
	Entities        int // entities (re-)inferred
	InferredTypes   int // inferred type memberships currently held
	Witnesses       int // existential witnesses currently held
	Inconsistencies int // inconsistencies currently held
}

// Reasoner maintains the materialized inferences.
type Reasoner struct {
	g *graph.Graph
	o *ontology.Ontology

	mu        sync.RWMutex
	inferred  map[model.EntityID]map[string]string // entity → concept → justification
	witnesses map[model.EntityID][]Witness
	inconsist map[model.EntityID][]Inconsistency
	// totals counts the entries of the three maps, kept where an entity's
	// entries are replaced or dropped, so a pass reports them without
	// walking every entity.
	totals Stats
	// counts is how many canonical entities hold each concept, asserted or
	// inferred, kept where an entity's types are counted (countLocked):
	// counted holds the sorted type set each typed entity was last counted
	// under, and moved the concepts a pass changed, which it pushes to the
	// ontology, the store the optimizer's statistics are read from (OS.3).
	// An untyped entity has no counted entry.
	counts  map[string]int
	counted map[model.EntityID][]string
	moved   map[string]bool
	version atomic.Uint64 // materialization passes (Version)
}

// New creates a reasoner over the given graph and ontology. No inference
// happens until Materialize is called.
func New(g *graph.Graph, o *ontology.Ontology) *Reasoner {
	return &Reasoner{
		g:         g,
		o:         o,
		inferred:  make(map[model.EntityID]map[string]string),
		witnesses: make(map[model.EntityID][]Witness),
		inconsist: make(map[model.EntityID][]Inconsistency),
		counts:    make(map[string]int),
		counted:   make(map[model.EntityID][]string),
		moved:     make(map[string]bool),
	}
}

// Materialize runs a full inference pass over every entity.
func (r *Reasoner) Materialize() Stats {
	return r.MaterializeEntities(r.g.EntityIDs())
}

// MaterializeEntities re-infers the given entities (and nothing else) —
// the incremental path (FS.1's "adaptively manage instance relations in
// light of new information"). Callers pass the entities they touched;
// domain/range inference also depends on edges, so the direct neighbors of
// each changed entity are re-inferred too. Inferences are held under
// canonical IDs only: a touched ID or neighbor that a merge made an alias
// is re-inferred as its canonical entity, and its own entries are dropped.
// The concept counts move by the re-inferred entities' changes alone, so a
// pass costs what it re-infers, not the graph's size.
func (r *Reasoner) MaterializeEntities(ids []model.EntityID) Stats {
	affected := make(map[model.EntityID]bool, len(ids)*2)
	var merged []model.EntityID
	add := func(id model.EntityID) model.EntityID {
		if c := r.g.Resolve(id); c != id {
			merged = append(merged, id)
			id = c
		}
		affected[id] = true
		return id
	}
	for _, id := range ids {
		id = add(id)
		for _, nb := range r.g.Neighbors(id, "") {
			add(nb)
		}
		for _, nb := range r.g.Incoming(id) {
			add(nb)
		}
	}
	order := make([]model.EntityID, 0, len(affected))
	for id := range affected {
		order = append(order, id)
	}
	slices.Sort(order)

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range merged {
		r.dropLocked(id)
	}
	// Types first, for every affected entity, and only then what reads
	// them: an existential's filler may be inferred later in ID order than
	// the entity whose witness it discharges.
	for _, id := range order {
		r.inferTypesLocked(id)
	}
	for _, id := range order {
		if e, ok := r.g.Entity(id); ok {
			r.inferFactsLocked(e)
		}
	}
	for c := range r.moved {
		r.o.SetInstanceCount(c, r.counts[c])
		if r.counts[c] == 0 {
			delete(r.counts, c)
		}
	}
	clear(r.moved)
	r.version.Add(1)
	s := r.totals
	s.Entities = len(order)
	return s
}

// Version counts materialization passes. A pass moves it last, under the
// write lock, so a reader that sees the new count sees what the pass
// inferred.
func (r *Reasoner) Version() uint64 { return r.version.Load() }

// dropLocked forgets every inference held for id.
func (r *Reasoner) dropLocked(id model.EntityID) {
	setEntryLocked(r.inferred, &r.totals.InferredTypes, id, nil)
	setEntryLocked(r.witnesses, &r.totals.Witnesses, id, nil)
	setEntryLocked(r.inconsist, &r.totals.Inconsistencies, id, nil)
	r.countLocked(id, nil)
}

// countLocked moves the concept counts from the type set id was last
// counted under to types (sorted, as typesOfLocked returns them), marking
// each concept it moves.
func (r *Reasoner) countLocked(id model.EntityID, types []string) {
	old := r.counted[id]
	for i, j := 0, 0; i < len(old) || j < len(types); {
		switch {
		case j == len(types) || i < len(old) && old[i] < types[j]:
			r.counts[old[i]]--
			r.moved[old[i]] = true
			i++
		case i == len(old) || types[j] < old[i]:
			r.counts[types[j]]++
			r.moved[types[j]] = true
			j++
		default:
			i, j = i+1, j+1
		}
	}
	if len(types) > 0 {
		r.counted[id] = types
	} else {
		delete(r.counted, id)
	}
}

// setEntryLocked replaces id's entry in m, or deletes it when v is empty,
// and moves the running total by the change in the entry's size.
func setEntryLocked[V map[string]string | []Witness | []Inconsistency](m map[model.EntityID]V, total *int, id model.EntityID, v V) {
	*total += len(v) - len(m[id])
	if len(v) > 0 {
		m[id] = v
	} else {
		delete(m, id)
	}
}

// inferTypesLocked recomputes the entity's inferred types.
func (r *Reasoner) inferTypesLocked(id model.EntityID) {
	e, ok := r.g.Entity(id)
	if !ok {
		r.dropLocked(id)
		return
	}
	var inf map[string]string // made by the first inference; most entities have none

	// Subsumption closure of asserted types.
	for _, t := range e.Types {
		for _, anc := range r.o.Ancestors(t) {
			if !e.HasType(anc) {
				setInference(&inf, anc, fmt.Sprintf("subsumption: %s ⊑* %s", t, anc))
			}
		}
	}

	// Domain/range inference from edges. An edge with role p implies the
	// subject belongs to p's domains and entity objects to p's ranges —
	// under the role hierarchy, so p's ancestors contribute too.
	for _, edge := range r.g.Edges(id) {
		for _, d := range r.o.DomainsOf(edge.Predicate) {
			r.addWithAncestorsLocked(e, &inf, d, fmt.Sprintf("domain of %s", edge.Predicate))
		}
	}
	for _, from := range r.g.Incoming(id) {
		for _, edge := range r.g.Edges(from) {
			to, ok := edge.To.AsRef()
			if !ok || r.g.Resolve(to) != id {
				continue
			}
			for _, rng := range r.o.RangesOf(edge.Predicate) {
				r.addWithAncestorsLocked(e, &inf, rng, fmt.Sprintf("range of %s", edge.Predicate))
			}
		}
	}
	setEntryLocked(r.inferred, &r.totals.InferredTypes, id, inf)
}

// inferFactsLocked recomputes the entity's witnesses and inconsistencies
// from the types every affected entity now holds.
func (r *Reasoner) inferFactsLocked(e *model.Entity) {
	id := e.ID
	// Existential witnesses: for every restriction C ⊑ ∃R.D on any held
	// type, check for a concrete R-edge (or sub-role edge) to an entity of
	// type D; absent one, record a witness.
	var wits []Witness
	allTypes := r.typesOfLocked(e, r.inferred[id])
	seen := map[ontology.Existential]bool{}
	for _, t := range allTypes {
		for _, ex := range r.o.Existentials(t) {
			if seen[ex] {
				continue
			}
			seen[ex] = true
			if !r.hasRoleFillerLocked(id, ex.Role, ex.Filler) {
				wits = append(wits, Witness{Entity: id, Role: ex.Role, Filler: ex.Filler, Because: t})
			}
		}
	}
	if len(wits) > 0 {
		sort.Slice(wits, func(i, j int) bool {
			if wits[i].Role != wits[j].Role {
				return wits[i].Role < wits[j].Role
			}
			return wits[i].Filler < wits[j].Filler
		})
	}
	setEntryLocked(r.witnesses, &r.totals.Witnesses, id, wits)

	// Inconsistencies: pairwise disjointness over all held types.
	var incons []Inconsistency
	for i := 0; i < len(allTypes); i++ {
		for j := i + 1; j < len(allTypes); j++ {
			if r.o.AreDisjoint(allTypes[i], allTypes[j]) {
				incons = append(incons, Inconsistency{Entity: id, ConceptA: allTypes[i], ConceptB: allTypes[j]})
			}
		}
	}
	setEntryLocked(r.inconsist, &r.totals.Inconsistencies, id, incons)
	r.countLocked(id, allTypes)
}

// addWithAncestorsLocked infers c and its ancestors for e where e neither
// asserts nor already infers them. *inf is made by its first write.
func (r *Reasoner) addWithAncestorsLocked(e *model.Entity, inf *map[string]string, c, why string) {
	if !e.HasType(c) {
		if _, dup := (*inf)[c]; !dup {
			setInference(inf, c, why)
		}
	}
	for _, anc := range r.o.Ancestors(c) {
		if !e.HasType(anc) {
			if _, dup := (*inf)[anc]; !dup {
				setInference(inf, anc, why+" (then subsumption)")
			}
		}
	}
}

// setInference records why type t is inferred, making *inf first if it is
// nil.
func setInference(inf *map[string]string, t, why string) {
	if *inf == nil {
		*inf = make(map[string]string)
	}
	(*inf)[t] = why
}

// typesOfLocked returns asserted + inferred types, sorted.
func (r *Reasoner) typesOfLocked(e *model.Entity, inf map[string]string) []string {
	set := make(map[string]bool, len(e.Types)+len(inf))
	for _, t := range e.Types {
		set[t] = true
	}
	for t := range inf {
		set[t] = true
	}
	res := make([]string, 0, len(set))
	for t := range set {
		res = append(res, t)
	}
	sort.Strings(res)
	return res
}

// hasRoleFillerLocked reports whether the entity has a concrete edge whose
// predicate specializes role and whose target holds the filler concept
// (asserted, inferred, or by subsumption).
func (r *Reasoner) hasRoleFillerLocked(id model.EntityID, role, filler string) bool {
	for _, edge := range r.g.Edges(id) {
		if !r.o.SubsumesRole(role, edge.Predicate) {
			continue
		}
		to, ok := edge.To.AsRef()
		if !ok {
			continue
		}
		to = r.g.Resolve(to)
		te, ok := r.g.Entity(to)
		if !ok {
			continue
		}
		for _, t := range te.Types {
			if t == filler || r.o.Subsumes(filler, t) {
				return true
			}
		}
		for t := range r.inferred[to] {
			if t == filler || r.o.Subsumes(filler, t) {
				return true
			}
		}
	}
	return false
}

// Stats returns the current inference counts without re-inferring.
func (r *Reasoner) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.totals
}

// EntityTypes returns the entity's asserted plus inferred types, sorted.
func (r *Reasoner) EntityTypes(id model.EntityID) []string {
	id = r.g.Resolve(id)
	e, ok := r.g.Entity(id)
	if !ok {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.typesOfLocked(e, r.inferred[id])
}

// HasType reports whether the entity holds the concept, asserted or
// inferred, or by subsumption from any held type.
func (r *Reasoner) HasType(id model.EntityID, concept string) bool {
	for _, t := range r.EntityTypes(id) {
		if t == concept || r.o.Subsumes(concept, t) {
			return true
		}
	}
	return false
}

// Explain returns the justification for the entity holding the concept:
// "asserted" for asserted types, the inference rule otherwise, or "" if the
// membership does not hold. Evidence-based answers are a core demand of the
// paper's query model ("the results must become evidence-based and
// justified").
func (r *Reasoner) Explain(id model.EntityID, concept string) string {
	id = r.g.Resolve(id)
	e, ok := r.g.Entity(id)
	if !ok {
		return ""
	}
	if e.HasType(concept) {
		return "asserted"
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if why, ok := r.inferred[id][concept]; ok {
		return why
	}
	// Subsumption from a held type without materialized entry.
	for _, t := range r.typesOfLocked(e, r.inferred[id]) {
		if r.o.Subsumes(concept, t) {
			return fmt.Sprintf("subsumption: %s ⊑* %s", t, concept)
		}
	}
	return ""
}

// Instances returns the IDs of all entities holding the concept (asserted
// or inferred), ascending.
func (r *Reasoner) Instances(concept string) []model.EntityID {
	var res []model.EntityID
	r.g.ForEachEntity(func(e *model.Entity) bool {
		if r.HasType(e.ID, concept) {
			res = append(res, e.ID)
		}
		return true
	})
	return res
}

// Witnesses returns the existential witnesses held for the entity.
func (r *Reasoner) Witnesses(id model.EntityID) []Witness {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.witnesses[r.g.Resolve(id)]
}

// AllWitnesses returns every held witness, ordered by entity.
func (r *Reasoner) AllWitnesses() []Witness {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]model.EntityID, 0, len(r.witnesses))
	for id := range r.witnesses {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var res []Witness
	for _, id := range ids {
		res = append(res, r.witnesses[id]...)
	}
	return res
}

// Inconsistencies returns every held inconsistency, ordered by entity.
func (r *Reasoner) Inconsistencies() []Inconsistency {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := make([]model.EntityID, 0, len(r.inconsist))
	for id := range r.inconsist {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var res []Inconsistency
	for _, id := range ids {
		res = append(res, r.inconsist[id]...)
	}
	return res
}
