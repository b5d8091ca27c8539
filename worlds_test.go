package scdb

import (
	"fmt"
	"math"
	"testing"

	"scdb/internal/datagen"
	"scdb/internal/fusion"
	"scdb/internal/model"
)

// worldsQuery lays out the possible worlds of (Warfarin, attr).
func worldsQuery(attr string) string {
	return "SELECT world, context, probability, value, source, marginal FROM worlds('Warfarin', '" + attr + "')"
}

// marginals maps each value worlds() answers to its marginal.
func marginals(t *testing.T, db *DB, attr string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, r := range rowsOf(t, db, worldsQuery(attr)) {
		out[fmt.Sprint(r[3])] = r[5].(float64)
	}
	return out
}

// TestCertainRules pins UNDER CERTAIN's rule, every claim about (entity,
// attr) agrees, against the possible-worlds reading, marginal 1 in
// worlds(), over disjoint population classes: they part where a value is
// claimed in every class but contested inside one.
func TestCertainRules(t *testing.T) {
	db := openSample(t)
	for _, src := range ClinicalTrialSources(1, 20) {
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
	}
	rowsOf(t, db, ClinicalClaims)
	rowsOf(t, db, `INSERT INTO claims (entity, attr, value, source, context) VALUES
		('Warfarin', 'contested', 5, 'a', 'White'), ('Warfarin', 'contested', 7, 'b', 'White'),
		('Warfarin', 'contested', 5, 'c', 'Asian'),
		('Warfarin', 'agreed', 5, 'a', 'White'), ('Warfarin', 'agreed', 5, 'c', 'Asian')`)
	certain := func(attr string) string {
		return fmt.Sprint(rowsOf(t, db, "SELECT value FROM claims WHERE attr = '"+attr+"' ORDER BY source UNDER CERTAIN"))
	}
	for _, c := range []struct {
		attr, certain string
		marginals     string
	}{
		// 5 holds in both worlds, beside 7 in the White one.
		{"contested", "[]", "map[5:1 7:0.6666666666666666]"},
		{"agreed", "[[5] [5]]", "map[5:1]"},
		// The paper's Warfarin question: each dose holds in one world.
		{"effective_dose_mg", "[]", "map[3.4:0.3333333333333333 5.1:0.3333333333333333 6.1:0.3333333333333333]"},
	} {
		if got := certain(c.attr); got != c.certain {
			t.Errorf("%s UNDER CERTAIN = %s, want %s", c.attr, got, c.certain)
		}
		if got := fmt.Sprint(marginals(t, db, c.attr)); got != c.marginals {
			t.Errorf("%s marginals = %s, want %s", c.attr, got, c.marginals)
		}
	}
	if got := marginals(t, db, "effective_dose_mg")["5.1"]; got != 1.0/3 {
		t.Errorf("5.1 before REFRESH RICHNESS: marginal %v, want 1/3 (E-FS10)", got)
	}

	// Weighted by the measured richness, the marginal is fusion's c-table
	// probability to the last bit.
	rowsOf(t, db, "REFRESH RICHNESS")
	w := fusion.New(datagen.PopulationOntology())
	for _, r := range rowsOf(t, db, "SELECT source, score FROM richness()") {
		w.SetRichness(r[0].(string), r[1].(float64))
	}
	for _, c := range []struct {
		source, context string
		dose            float64
	}{{"trials-us", "White", 5.1}, {"trials-asia", "Asian", 3.4}, {"trials-africa", "Black", 6.1}} {
		w.AddClaim(fusion.Claim{Source: c.source, Entity: 1, Attr: "effective_dose_mg", Value: model.Float(c.dose), Context: []string{c.context}})
	}
	ct, err := w.ToCTable(1, "effective_dose_mg")
	if err != nil {
		t.Fatal(err)
	}
	want := ct.QueryProb(func(recs []model.Record) bool {
		for _, r := range recs {
			if model.Equal(r["value"], model.Float(5.1)) {
				return true
			}
		}
		return false
	})
	if got := marginals(t, db, "effective_dose_mg")["5.1"]; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("5.1 after REFRESH RICHNESS: marginal %v, c-table %v", got, want)
	}
	if got := certain("effective_dose_mg"); got != "[]" {
		t.Errorf("effective_dose_mg UNDER CERTAIN after REFRESH RICHNESS = %s", got)
	}
}
