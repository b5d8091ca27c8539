// Package semantic implements the statistical half of the semantic layer
// (paper FS.4): "the vertical data expansion be enriched by adding
// statistical models, such as those offered by machine learning,
// specifically to improve the linkage coverage and accuracy". Two models
// are provided:
//
//   - TypePredictor: a multinomial naive-Bayes classifier over attribute
//     tokens that predicts concept membership for entities whose types are
//     unknown — extending what TBox-only inference (subsumption,
//     domain/range) can derive.
//   - LinkPredictor: co-occurrence statistics over (subject type,
//     predicate, object type) patterns plus common-neighbor evidence that
//     propose missing edges with a confidence below 1, the
//     "non-deterministic predictive inference" whose transactional
//     consequences FS.11 studies.
//
// Both models emit confidence-annotated results rather than hard facts,
// matching the paper's requirement that every data item may be uncertain.
package semantic

import (
	"math"
	"sort"

	"scdb/internal/er"
	"scdb/internal/graph"
	"scdb/internal/model"
)

// Prediction is one predicted concept membership.
type Prediction struct {
	Concept    string
	Confidence model.Fuzzy
}

// TypePredictor is a multinomial naive-Bayes classifier from attribute
// tokens to concepts, with add-one smoothing.
type TypePredictor struct {
	classDocs   map[string]int
	tokenCounts map[string]map[string]int
	classTokens map[string]int
	vocab       map[string]bool
	totalDocs   int
}

// NewTypePredictor creates an untrained predictor.
func NewTypePredictor() *TypePredictor {
	return &TypePredictor{
		classDocs:   map[string]int{},
		tokenCounts: map[string]map[string]int{},
		classTokens: map[string]int{},
		vocab:       map[string]bool{},
	}
}

// entityTokens extracts the normalized token bag of an entity's attribute
// values (attribute names included, since schema words carry signal too),
// leaving out a stored row's own columns.
func entityTokens(e *model.Entity) []string {
	var out []string
	for _, k := range e.Attrs.Keys() {
		v := e.Attrs[k]
		if v.IsNull() || model.IsRowColumn(k) {
			continue
		}
		out = append(out, er.Tokens(k)...)
		out = append(out, er.Tokens(v.Text())...)
	}
	return out
}

// Train adds one labeled example per concept in types.
func (p *TypePredictor) Train(e *model.Entity, types []string) {
	toks := entityTokens(e)
	for _, c := range types {
		p.classDocs[c]++
		p.totalDocs++
		tc, ok := p.tokenCounts[c]
		if !ok {
			tc = map[string]int{}
			p.tokenCounts[c] = tc
		}
		for _, t := range toks {
			tc[t]++
			p.classTokens[c]++
			p.vocab[t] = true
		}
	}
}

// TrainGraph trains from every typed entity in the graph, using typesOf to
// supply labels (typically the reasoner's asserted+inferred types, or just
// the asserted ones).
func (p *TypePredictor) TrainGraph(g *graph.Graph, typesOf func(model.EntityID) []string) int {
	n := 0
	g.ForEachEntity(func(e *model.Entity) bool {
		if ts := typesOf(e.ID); len(ts) > 0 {
			p.Train(e, ts)
			n++
		}
		return true
	})
	return n
}

// Classes returns the trained concepts, sorted.
func (p *TypePredictor) Classes() []string {
	cs := make([]string, 0, len(p.classDocs))
	for c := range p.classDocs {
		cs = append(cs, c)
	}
	sort.Strings(cs)
	return cs
}

// Predict returns the topK concepts for the entity with normalized
// posterior confidences (softmax over log-posteriors). An untrained
// predictor returns nil.
func (p *TypePredictor) Predict(e *model.Entity, topK int) []Prediction {
	if p.totalDocs == 0 || topK <= 0 {
		return nil
	}
	toks := entityTokens(e)
	classes := p.Classes()
	logPost := make([]float64, len(classes))
	v := float64(len(p.vocab))
	for i, c := range classes {
		lp := math.Log(float64(p.classDocs[c]) / float64(p.totalDocs))
		denom := float64(p.classTokens[c]) + v
		for _, t := range toks {
			lp += math.Log((float64(p.tokenCounts[c][t]) + 1) / denom)
		}
		logPost[i] = lp
	}
	// Softmax with max-shift for stability.
	maxLP := math.Inf(-1)
	for _, lp := range logPost {
		if lp > maxLP {
			maxLP = lp
		}
	}
	sum := 0.0
	for i := range logPost {
		logPost[i] = math.Exp(logPost[i] - maxLP)
		sum += logPost[i]
	}
	preds := make([]Prediction, len(classes))
	for i, c := range classes {
		preds[i] = Prediction{Concept: c, Confidence: model.Fuzzy(logPost[i] / sum).Clamp()}
	}
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Confidence != preds[j].Confidence {
			return preds[i].Confidence > preds[j].Confidence
		}
		return preds[i].Concept < preds[j].Concept
	})
	if len(preds) > topK {
		preds = preds[:topK]
	}
	return preds
}

// Suggestion is one predicted edge with its confidence.
type Suggestion struct {
	From       model.EntityID
	Predicate  string
	To         model.EntityID
	Confidence model.Fuzzy
}

// LinkPredictor learns (subject type, predicate, object type) patterns and
// suggests missing edges supported by common-neighbor evidence.
type LinkPredictor struct {
	// patterns[pred][subjType][objType] = count
	patterns map[string]map[string]map[string]int
	predObs  map[string]int
}

// NewLinkPredictor creates an untrained predictor.
func NewLinkPredictor() *LinkPredictor {
	return &LinkPredictor{patterns: map[string]map[string]map[string]int{}, predObs: map[string]int{}}
}

// Train tallies the type patterns of every entity-valued edge.
func (l *LinkPredictor) Train(g *graph.Graph, typesOf func(model.EntityID) []string) int {
	n := 0
	g.ForEachEdge(func(e graph.Edge) bool {
		to, ok := e.To.AsRef()
		if !ok {
			return true
		}
		n++
		l.predObs[e.Predicate]++
		pm, ok := l.patterns[e.Predicate]
		if !ok {
			pm = map[string]map[string]int{}
			l.patterns[e.Predicate] = pm
		}
		for _, st := range typesOf(e.From) {
			om, ok := pm[st]
			if !ok {
				om = map[string]int{}
				pm[st] = om
			}
			for _, ot := range typesOf(to) {
				om[ot]++
			}
		}
		return true
	})
	return n
}

// Suggest proposes up to topK missing pred-edges from the entity: targets
// whose type completes a trained pattern, ranked by common-neighbor count
// (via any predicate, both directions) scaled by pattern support.
// Confidence is normalized to (0,1): suggestions are enrichment candidates,
// never hard facts.
func (l *LinkPredictor) Suggest(g *graph.Graph, from model.EntityID, pred string, typesOf func(model.EntityID) []string, topK int) []Suggestion {
	if topK <= 0 || l.predObs[pred] == 0 {
		return nil
	}
	// Pattern-compatible object types for this subject.
	objTypes := map[string]int{}
	for _, st := range typesOf(from) {
		for ot, n := range l.patterns[pred][st] {
			objTypes[ot] += n
		}
	}
	if len(objTypes) == 0 {
		return nil
	}
	existing := map[model.EntityID]bool{from: true}
	for _, e := range g.EdgesByPredicate(from, pred) {
		if to, ok := e.To.AsRef(); ok {
			existing[to] = true
		}
	}
	neighborhood := undirectedNeighbors(g, from)

	type scored struct {
		id    model.EntityID
		score float64
	}
	var cands []scored
	g.ForEachEntity(func(cand *model.Entity) bool {
		if existing[cand.ID] {
			return true
		}
		support := 0
		for _, t := range typesOf(cand.ID) {
			support += objTypes[t]
		}
		if support == 0 {
			return true
		}
		common := 0
		for nb := range undirectedNeighbors(g, cand.ID) {
			if neighborhood[nb] {
				common++
			}
		}
		score := float64(support) * (1 + float64(common))
		cands = append(cands, scored{cand.ID, score})
		return true
	})
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > topK {
		cands = cands[:topK]
	}
	maxScore := cands[0].score
	out := make([]Suggestion, len(cands))
	for i, c := range cands {
		// Scale into (0, 0.95]: predicted links never reach certainty.
		out[i] = Suggestion{
			From:       from,
			Predicate:  pred,
			To:         c.id,
			Confidence: model.Fuzzy(0.95 * c.score / maxScore).Clamp(),
		}
	}
	return out
}

func undirectedNeighbors(g *graph.Graph, id model.EntityID) map[model.EntityID]bool {
	set := map[model.EntityID]bool{}
	for _, nb := range g.Neighbors(id, "") {
		set[nb] = true
	}
	for _, nb := range g.Incoming(id) {
		set[nb] = true
	}
	return set
}
