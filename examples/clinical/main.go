// Clinical reproduces the paper's Section 4.2 worked example end to end:
// "Is 5.0 mg an effective dosage of Warfarin for preventing a blood clot?"
//
// Three clinical sources are internally consistent but demographically
// biased: effective doses of 5.1 mg (White), 3.4 mg (Asian), and 6.1 mg
// (Black) populations. A naive certain-answer evaluation returns FALSE —
// the sources disagree. The parallel-world evaluation recognizes, via the
// ontology's disjoint population classes, that each claim holds on its own
// premise, raises the paper's three refinement questions automatically,
// and returns a justified YES (degree 0.8) with evidence.
package main

import (
	"fmt"
	"log"

	"scdb"
)

func main() {
	db, err := scdb.Open(scdb.Options{
		Axioms:    scdb.LifeSciAxioms + scdb.PopulationAxioms,
		LinkRules: scdb.LifeSciLinkRules(),
		Patterns:  scdb.LifeSciPatterns(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// The drug knowledge base defines Warfarin...
	for _, src := range scdb.LifeSciSample(1, 0, 0, 0) {
		must(db.Ingest(src))
	}
	// ...the per-country trial tables provide raw records...
	for _, src := range scdb.ClinicalTrialSources(11, 20) {
		must(db.Ingest(src))
	}
	// ...each source asserts its context-scoped effective dose, and the
	// sources are weighted by measured richness (FS.2 feeding FS.9).
	for _, stmt := range []string{scdb.ClinicalClaims, "REFRESH RICHNESS"} {
		_, err := db.Query(stmt)
		must(err)
	}

	// The loop's answer is a relation: one row per context class, each
	// carrying the whole answer beside its class's degree.
	fmt.Println("Query: is 5.0 mg an effective Warfarin dose (tolerance 0.5 mg)?")
	rows, err := db.Query(`SELECT context, context_degree, naive_certain, degree, explanation, sensitive, narrow_range, refinements
		FROM justify('Warfarin', 'effective_dose_mg', 5.0, 0.5) ORDER BY context`)
	must(err)
	ans := rows.Data[0]
	fmt.Printf("\n  naive certain answer:  %v   (the paper's point: disagreement → false)\n", ans[2])
	fmt.Printf("  justified answer:      degree %.2f — %s\n", ans[3], ans[4])
	fmt.Println("\n  per-context support:")
	for _, r := range rows.Data {
		fmt.Printf("    %-8s %.2f\n", r[0], r[1])
	}
	fmt.Println("\n  refinements the system raised on its own:")
	for _, q := range ans[7].([]any) {
		fmt.Printf("    - %s\n", q)
	}
	fmt.Printf("\n  sensitivity discovered: %v   narrow therapeutic range: %v\n", ans[5], ans[6])

	// The same story through SCQL's answer modes over the claims table.
	fmt.Println("\nSCQL answer modes over the claim base:")
	rows, err = db.Query("SELECT value, source, context FROM claims ORDER BY value")
	must(err)
	fmt.Printf("  default:        %d rows (all parallel worlds)\n", len(rows.Data))
	rows, err = db.Query("SELECT value FROM claims UNDER CERTAIN")
	must(err)
	fmt.Printf("  UNDER CERTAIN:  %d rows (no unanimity)\n", len(rows.Data))
	rows, err = db.Query("SELECT value, context FROM claims ORDER BY value UNDER FUZZY(0.9)")
	must(err)
	fmt.Printf("  UNDER FUZZY:    %d rows (each justified within its class)\n", len(rows.Data))
	for _, r := range rows.Data {
		fmt.Printf("     dose %v mg within %v\n", r[0], r[1])
	}

	// Raw trial records remain queryable relationally, per source.
	rows, err = db.Query(`SELECT AVG(dose_mg) AS mean_dose, COUNT(*) AS n FROM "trials-asia"`)
	must(err)
	fmt.Printf("\ntrials-asia: mean dose %.2f over %v records\n", rows.Data[0][0], rows.Data[0][1])

	// Conflicts are first-class: the engine can tell a contradiction from
	// parallel worlds, and can fall back to the crowd (FS.8) when asked.
	fmt.Println("\nConflict ledger:")
	rows, err = db.Query(`SELECT entity, attr, COUNT(*) AS n, reconcilable FROM conflicts()
		GROUP BY entity, attr, reconcilable ORDER BY entity, attr`)
	must(err)
	for _, c := range rows.Data {
		kind := "contradiction"
		if c[3] == true {
			kind = "parallel worlds (disjoint contexts)"
		}
		fmt.Printf("  %s.%s — %d values — %s\n", c[0], c[1], c[2], kind)
	}
	rows, err = db.Query("SELECT value, agreement, asks FROM crowd('Warfarin', 'effective_dose_mg', 15, 0.85, 7)")
	must(err)
	crowd := rows.Data[0]
	fmt.Printf("\nCrowd check (budget 15, workers 85%% accurate): %v mg, agreement %.0f%%, %d asks\n",
		crowd[0], 100*crowd[1].(float64), crowd[2])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
