package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"scdb/internal/crowd"
	"scdb/internal/fusion"
	"scdb/internal/model"
	"scdb/internal/query"
	"scdb/internal/richness"
	"scdb/internal/uncertain"
)

// The engine's read-only relations, scanned through SCQL like any table:
// claims, named bare, and the paper's answers as relation-valued functions
// (FROM justify('Warfarin', 'effective_dose_mg', 5.0, 0.5)). An entity
// argument is matched by any indexed name or key, and an entity column
// holds the entity's best-known name.
//
// Lock rule: rows are built under the db.mu read lock queryCtx holds, so a
// body never takes db.mu again: a second read lock would queue behind a
// writer waiting for the first (IngestCtx's install step) and deadlock.

// relation is one entry of the table: its columns, a function's
// parameters, and its rows, a value per column. A bare relation takes no
// arguments and counts its rows for the optimizer with card.
type relation struct {
	cols   []string
	params []param
	bare   bool
	card   func(db *DB) int
	rows   func(e *queryEnv, args []model.Value) ([][]model.Value, error)
}

type param struct {
	name string
	kind argKind
}

var relations = map[string]relation{
	"claims": {bare: true, rows: claimRows, card: func(db *DB) int { return len(db.worlds.Claims()) },
		cols: []string{"entity", "attr", "value", "source", "context", "confidence", "justification"}},
	"witnesses":       {rows: witnessRows, cols: []string{"entity", "role", "filler", "because"}},
	"inconsistencies": {rows: inconsistencyRows, cols: []string{"entity", "concept_a", "concept_b"}},
	"conflicts":       {rows: conflictRows, cols: []string{"entity", "attr", "value", "sources", "reconcilable"}},
	"resolve": {rows: resolveRows, cols: []string{"value", "support"},
		params: []param{{"entity", argEntity}, {"attr", argText}, {"policy", argText}}},
	"justify": {rows: justifyRows, params: []param{{"entity", argEntity}, {"attr", argText}, {"target", argNumber}, {"tol", argNumber}},
		cols: []string{"context", "context_degree", "naive_certain", "degree", "explanation", "sensitive", "narrow_range", "refinements"}},
	"discover": {rows: discoverRows, cols: []string{"step", "entity"},
		params: []param{{"entity", argEntity}, {"steps", argInt}, {"seed", argInt}}},
	"crowd": {rows: crowdRows, cols: []string{"value", "agreement", "asks", "spent"},
		params: []param{{"entity", argEntity}, {"attr", argText}, {"budget", argNumber}, {"accuracy", argNumber}, {"seed", argInt}}},
	"suggest_links": {rows: suggestRows, cols: []string{"from", "predicate", "to", "confidence"},
		params: []param{{"entity", argEntity}, {"predicate", argText}, {"k", argInt}}},
	"richness": {rows: richnessRows, cols: []string{"source", "entities", "edges", "avg_degree", "density",
		"distinct_predicates", "fill_rate", "value_entropy", "connectivity", "score"}},
	"worlds": {rows: worldRows, cols: []string{"world", "context", "probability", "value", "source", "marginal"},
		params: []param{{"entity", argEntity}, {"attr", argText}}},
}

// argKind is the kind of literal a parameter takes. An integer may be a
// float without a fraction (5.0 renders as 5); an entity is named as text.
type argKind int

const (
	argText argKind = iota
	argNumber
	argInt
	argEntity
)

func (k argKind) String() string { return [...]string{"text", "a number", "an integer", "text"}[k] }

func (k argKind) accepts(v model.Value) bool {
	if k == argText || k == argEntity {
		_, ok := v.AsString()
		return ok
	}
	f, ok := v.AsFloat()
	return ok && (k == argNumber || f == math.Trunc(f))
}

// function returns the relation name(args…) calls, its arguments checked.
func function(name string, args []model.Value) (relation, error) {
	r, ok := relations[name]
	if !ok || r.bare {
		return relation{}, fmt.Errorf("core: unknown function %s()", name)
	}
	if len(args) != len(r.params) {
		names := make([]string, len(r.params))
		for i, p := range r.params {
			names[i] = p.name
		}
		return relation{}, fmt.Errorf("core: %s(%s) takes %d arguments, got %d", name, strings.Join(names, ", "), len(r.params), len(args))
	}
	for i, p := range r.params {
		if !p.kind.accepts(args[i]) {
			return relation{}, fmt.Errorf("core: %s() argument %s must be %s, got %s", name, p.name, p.kind, args[i])
		}
	}
	return r, nil
}

// checkCalls rejects, before planning, a call that function refuses.
func checkCalls(stmt *query.SelectStmt) error {
	for _, t := range stmt.Sources() {
		if t.Call {
			if _, err := function(t.Name, t.Args); err != nil {
				return err
			}
		}
	}
	return nil
}

// scan builds the relation's records and chunks them.
func (r relation) scan(e *queryEnv, args []model.Value, size int) (query.ScanCursor, error) {
	rows, err := r.rows(e, args)
	if err != nil {
		return nil, err
	}
	recs := make([]model.Record, len(rows))
	for i, vals := range rows {
		recs[i] = make(model.Record, len(r.cols))
		for j, c := range r.cols {
			recs[i][c] = vals[j]
		}
	}
	return &query.RecordChunks{Recs: recs, Size: size}, nil
}

// ScanFunction implements query.Env's function scan. Entity arguments
// reach the body as refs.
func (e *queryEnv) ScanFunction(name string, args []model.Value, size int) (query.ScanCursor, error) {
	r, err := function(name, args)
	if err != nil {
		return nil, err
	}
	args = slices.Clone(args) // the plan's literals stay as written
	for i, p := range r.params {
		if p.kind == argEntity {
			ent, ok := e.db.graph.Entity(e.db.lookupByText(textArg(args[i])))
			if !ok {
				return nil, fmt.Errorf("core: unknown entity %s", args[i])
			}
			args[i] = model.Ref(ent.ID)
		}
	}
	return r.scan(e, args, size)
}

func textArg(v model.Value) string    { s, _ := v.AsString(); return s }
func numberArg(v model.Value) float64 { f, _ := v.AsFloat(); return f }

// entityLabel names an entity by its best-known name.
func (db *DB) entityLabel(id model.EntityID) model.Value {
	e, ok := db.graph.Entity(id)
	if !ok {
		return model.String(fmt.Sprintf("entity(%d)", id))
	}
	for _, attr := range []string{"name", "symbol", "label", "disease_name", "gene_symbol"} {
		if s, ok := e.Attrs.Get(attr).AsString(); ok && s != "" {
			return model.String(s)
		}
	}
	return model.String(e.Key)
}

func textList(ss []string) model.Value {
	vals := make([]model.Value, len(ss))
	for i, s := range ss {
		vals[i] = model.String(s)
	}
	return model.List(vals...)
}

// distinctValues returns claims' values in value order, and their sources.
func distinctValues(claims []fusion.Claim) ([]model.Value, map[uint64][]string) {
	var values []model.Value
	sources := map[uint64][]string{}
	for _, c := range claims {
		h := c.Value.Hash()
		if _, seen := sources[h]; !seen {
			values = append(values, c.Value)
		}
		sources[h] = append(sources[h], c.Source)
	}
	sort.Slice(values, func(i, j int) bool { return model.Less(values[i], values[j]) })
	return values, sources
}

// claimRows answers the claim base under the statement's answer semantics
// (Section 4.2):
//
//	default       — every claim as a row;
//	UNDER CERTAIN — only claims from (entity, attr) groups where all
//	                sources agree: the classical certain answer, blind to
//	                context, which justify()'s naive_certain also prints;
//	UNDER FUZZY t — claims whose value is justified to degree >= t within
//	                some context class (parallel-world justification).
//
// UNDER CERTAIN is the one certain-answer rule. The possible-worlds
// reading, a value that holds in every world of non-zero probability, is
// marginal = 1 in worlds(): a value claimed in every context class keeps it
// even when a class also claims another value, which UNDER CERTAIN drops.
func claimRows(e *queryEnv, _ []model.Value) ([][]model.Value, error) {
	w := e.db.worlds
	var rows [][]model.Value
	for _, c := range w.Claims() {
		val := c.Value
		justification := 1.0
		switch e.mode {
		case query.AnswerCertain:
			if !w.NaiveCertain(c.Entity, c.Attr, func(v model.Value) bool { return model.Equal(v, val) }) {
				continue
			}
		case query.AnswerFuzzy:
			j := w.Justified(c.Entity, c.Attr, func(v model.Value) model.Fuzzy {
				if model.Equal(v, val) {
					return 1
				}
				return 0
			})
			if !j.Degree.AtLeast(e.fuzzyT) {
				continue
			}
			justification = float64(j.Degree)
		}
		rows = append(rows, []model.Value{model.Ref(c.Entity), model.String(c.Attr), c.Value, model.String(c.Source),
			model.String(strings.Join(c.Context, "+")), model.Float(float64(c.Confidence)), model.Float(justification)})
	}
	return rows, nil
}

// worldRows lays out the possible worlds of the claims about (entity,
// attr) (FS.3, FS.10): fusion's c-table has one world per context class,
// weighted by the class's share of richness × confidence, and a row per
// claim the world holds, by world in context-label order. marginal is the
// value's probability over all worlds.
func worldRows(e *queryEnv, args []model.Value) ([][]model.Value, error) {
	id, _ := args[0].AsRef()
	ct, err := e.db.worlds.ToCTable(id, textArg(args[1]))
	if err != nil {
		return nil, err
	}
	values := func(recs []model.Record) []model.Value {
		vals := make([]model.Value, len(recs))
		for i, r := range recs {
			vals[i] = r["value"]
		}
		return vals
	}
	marginal := map[uint64]float64{}
	for _, a := range ct.Answers(values) {
		marginal[a.Value.Hash()] = a.Prob
	}
	var rows [][]model.Value
	ct.Space.EnumWorlds(func(a uncertain.Assignment, p float64) bool {
		for _, r := range ct.Instantiate(a) {
			rows = append(rows, []model.Value{model.Int(int64(a[fusion.WorldVar])), r["context"], model.Float(p),
				r["value"], r["source"], model.Float(marginal[r["value"].Hash()])})
		}
		return true
	})
	return rows, nil
}

// witnessRows: the inferred existentials (§3.3), edges known to exist
// though none is asserted.
func witnessRows(e *queryEnv, _ []model.Value) ([][]model.Value, error) {
	var rows [][]model.Value
	for _, w := range e.db.reasoner.AllWitnesses() {
		rows = append(rows, []model.Value{e.db.entityLabel(w.Entity), model.String(w.Role), model.String(w.Filler), model.String(w.Because)})
	}
	return rows, nil
}

// inconsistencyRows: entities whose types include two disjoint concepts.
func inconsistencyRows(e *queryEnv, _ []model.Value) ([][]model.Value, error) {
	var rows [][]model.Value
	for _, ic := range e.db.reasoner.Inconsistencies() {
		rows = append(rows, []model.Value{e.db.entityLabel(ic.Entity), model.String(ic.ConceptA), model.String(ic.ConceptB)})
	}
	return rows, nil
}

// conflictRows: a row per distinct value of a disagreeing attribute, by
// entity, attribute and value. Reconcilable means the claims live in
// pairwise disjoint context classes: parallel worlds, not errors.
func conflictRows(e *queryEnv, _ []model.Value) ([][]model.Value, error) {
	var rows [][]model.Value
	for _, cf := range e.db.worlds.Conflicts() {
		values, sources := distinctValues(cf.Claims)
		for _, v := range values {
			rows = append(rows, []model.Value{e.db.entityLabel(cf.Entity), model.String(cf.Attr), v,
				textList(sources[v.Hash()]), model.Bool(cf.Reconcilable)})
		}
	}
	return rows, nil
}

// resolveRows fuses the claims about (entity, attr) into one value and the
// share of weight behind it, by policy (fusion.Policy's names).
func resolveRows(e *queryEnv, args []model.Value) ([][]model.Value, error) {
	id, _ := args[0].AsRef()
	for _, p := range []fusion.Policy{fusion.PolicyVote, fusion.PolicyRichnessWeighted, fusion.PolicyMostConfident} {
		if p.String() == textArg(args[2]) {
			v, support, err := e.db.worlds.Resolve(id, textArg(args[1]), p)
			return [][]model.Value{{v, model.Float(float64(support))}}, err
		}
	}
	return nil, fmt.Errorf("core: resolve() policy must be 'vote', 'richness' or 'confident', got %s", args[2])
}

// justifyRows runs the §4.2 loop for "is target an acceptable value of
// attr?" under fuzzy closeness within tol: a row per context class, by
// context, each carrying the whole answer beside the class's degree.
func justifyRows(e *queryEnv, args []model.Value) ([][]model.Value, error) {
	id, _ := args[0].AsRef()
	ans := e.db.refiner.AnswerWithRefinement(id, textArg(args[1]), numberArg(args[2]), numberArg(args[3]))
	questions := make([]string, len(ans.Refinements))
	for i, r := range ans.Refinements {
		questions[i] = r.Question
	}
	var rows [][]model.Value
	for _, ctx := range slices.Sorted(maps.Keys(ans.Justified.ByContext)) {
		rows = append(rows, []model.Value{model.String(ctx), model.Float(float64(ans.Justified.ByContext[ctx])),
			model.Bool(ans.NaiveCertain), model.Float(float64(ans.Justified.Degree)), model.String(ans.Justified.Explanation),
			model.Bool(ans.Sensitive), model.Bool(ans.NarrowRange), textList(questions)})
	}
	return rows, nil
}

// maxWalk bounds a discover() walk: it holds the read lock, uncancelable.
const maxWalk = 1 << 16

// discoverRows runs FS.6's seeded random walk of steps steps from the
// entity; step numbers the entities found from 1, in first-visit order.
func discoverRows(e *queryEnv, args []model.Value) ([][]model.Value, error) {
	id, _ := args[0].AsRef()
	if numberArg(args[1]) > maxWalk {
		return nil, fmt.Errorf("core: discover() walks at most %d steps, got %s", maxWalk, args[1])
	}
	var rows [][]model.Value
	for i, found := range e.db.refiner.RandomWalk(id, int(numberArg(args[1])), int64(numberArg(args[2]))) {
		rows = append(rows, []model.Value{model.Int(int64(i + 1)), e.db.entityLabel(found)})
	}
	return rows, nil
}

// crowdRows asks seven simulated workers of the given accuracy (FS.8) to
// pick among the values claimed for (entity, attr) within budget unit-cost
// asks, the richness-weighted fusion winner standing as the truth they
// check. Deterministic per seed.
func crowdRows(e *queryEnv, args []model.Value) ([][]model.Value, error) {
	id, _ := args[0].AsRef()
	attr := textArg(args[1])
	winner, _, err := e.db.worlds.Resolve(id, attr, fusion.PolicyRichnessWeighted)
	if err != nil {
		return nil, err
	}
	task := crowd.Task{ID: fmt.Sprintf("%d/%s", id, attr)}
	task.Candidates, _ = distinctValues(e.db.worlds.ClaimsAbout(id, attr))
	for i, c := range task.Candidates {
		if model.Equal(c, winner) {
			task.Truth = i
		}
	}
	sim := crowd.NewSimulator(int64(numberArg(args[4])))
	for w := 0; w < 7; w++ {
		sim.AddWorker(crowd.Worker{ID: fmt.Sprintf("w%d", w), Accuracy: numberArg(args[3]), Cost: 1})
	}
	out := sim.Resolve([]crowd.Task{task}, numberArg(args[2]), crowd.AllocAdaptive)
	return [][]model.Value{{out.Answers[task.ID], model.Float(out.Agreement[task.ID]), model.Int(int64(out.Asks)), model.Float(out.Spent)}}, nil
}

// suggestRows proposes up to k missing predicate edges from the entity,
// learned from co-occurrence patterns in the curated graph (FS.4).
func suggestRows(e *queryEnv, args []model.Value) ([][]model.Value, error) {
	id, _ := args[0].AsRef()
	lp, typesOf := e.db.linkPredictor()
	var rows [][]model.Value
	for _, s := range lp.Suggest(e.db.graph, id, textArg(args[1]), typesOf, int(numberArg(args[2]))) {
		rows = append(rows, []model.Value{e.db.entityLabel(s.From), model.String(s.Predicate), e.db.entityLabel(s.To), model.Float(float64(s.Confidence))})
	}
	return rows, nil
}

// richnessRows measures every source's richness (FS.2), richest first. It
// only measures: REFRESH RICHNESS is what weights fusion by the scores.
func richnessRows(e *queryEnv, _ []model.Value) ([][]model.Value, error) {
	var rows [][]model.Value
	for _, m := range richness.MeasureAll(e.db.graph) {
		rows = append(rows, []model.Value{model.String(m.Source), model.Int(int64(m.Entities)), model.Int(int64(m.Edges)),
			model.Float(m.AvgDegree), model.Float(m.Density), model.Int(int64(m.DistinctPredicates)),
			model.Float(m.FillRate), model.Float(m.ValueEntropy), model.Float(m.Connectivity), model.Float(m.Score)})
	}
	return rows, nil
}
