// Explore demonstrates the exploration surface of the self-curating
// database: schema observation without DDL (meta-data as data), random-walk
// discovery from a query seed (FS.6), query-by-example completion of
// partial records (FS.7), and the conflict ledger with crowd fallback
// (FS.8).
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
	for _, src := range scdb.LifeSciSample(21, 60, 40, 25) {
		must(db.Ingest(src))
	}

	// 1. No DDL ever ran, yet every table has a schema — observed, with
	// heterogeneity recorded rather than rejected.
	// The schema is data: the system relation sys.columns.
	fmt.Println("Observed schema of 'drugbank' (no CREATE TABLE anywhere):")
	schema, err := db.Query(`SELECT name, filled, kinds FROM sys.columns WHERE "table" = 'drugbank' ORDER BY name`)
	must(err)
	for _, a := range schema.Data {
		fmt.Printf("  %-16s filled %3d  kinds %v\n", a...)
	}

	// 2. Random-walk discovery: what is connected to Methotrexate?
	rows, err := db.Query("SELECT entity FROM discover('Methotrexate', 12, 7) ORDER BY step")
	must(err)
	fmt.Println("\nDiscovered from Methotrexate (seeded walk):")
	for i, r := range rows.Data {
		if i == 6 {
			fmt.Printf("  ... and %d more\n", len(rows.Data)-6)
			break
		}
		fmt.Printf("  %s\n", r[0])
	}

	// 3. Query-by-example: a partial record fills its own gaps from
	// similar rows.
	comp, err := db.Complete("drugbank", scdb.Record{
		"name": "Methotrexate", "_types": nil,
	}, []string{"_types"}, 5)
	must(err)
	fmt.Printf("\nQBE: Methotrexate's types completed as %v (confidence %.2f)\n",
		comp.Completed["_types"], comp.Confidence["_types"])

	// 4. Conflicting claims: ledger + crowd fallback.
	_, err = db.Query(`INSERT INTO claims (entity, attr, value, source)
		VALUES ('Ibuprofen', 'otc', TRUE, 'blog'), ('Ibuprofen', 'otc', FALSE, 'registry')`)
	must(err)
	fmt.Println("\nConflicts:")
	rows, err = db.Query(`SELECT entity, attr, COUNT(*) AS n, reconcilable FROM conflicts()
		GROUP BY entity, attr, reconcilable ORDER BY entity, attr`)
	must(err)
	for _, c := range rows.Data {
		fmt.Printf("  %s.%s: %d values, reconcilable=%v\n", c[0], c[1], c[2], c[3])
	}
	_, err = db.Query("REFRESH RICHNESS")
	must(err)
	rows, err = db.Query("SELECT value, agreement, asks FROM crowd('Ibuprofen', 'otc', 10, 0.9, 3)")
	must(err)
	ans := rows.Data[0]
	fmt.Printf("Crowd says otc=%v (agreement %.0f%%, %d asks)\n", ans[0], 100*ans[1].(float64), ans[2])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
