package scdb_test

import (
	"fmt"
	"log"

	"scdb"
)

// Example shows the minimal end-to-end flow: open, ingest two
// heterogeneous sources, and let curation unify them.
func Example() {
	db, err := scdb.Open(scdb.Options{
		Axioms: "sub Gadget Product\ndisjoint Product Vendor\nexists Product soldBy Vendor",
		LinkRules: []scdb.LinkRule{{
			Predicate: "vendor_name", EdgePredicate: "soldBy",
			TargetAttrs: []string{"name"}, TargetType: "Vendor",
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Ingest(scdb.Source{
		Name: "catalog",
		Entities: []scdb.Entity{
			{Key: "p1", Types: []string{"Gadget"}, Attrs: scdb.Record{"name": "Widget", "price": 9.5}},
		},
		Links: []scdb.Link{{FromKey: "p1", Predicate: "vendor_name", Value: "Acme Corp"}},
	})
	db.Ingest(scdb.Source{
		Name:     "registry",
		Entities: []scdb.Entity{{Key: "v1", Types: []string{"Vendor"}, Attrs: scdb.Record{"name": "Acme Corp"}}},
	})

	rows, _ := db.Query(`SELECT name, price FROM Gadget AS g WHERE REACHES(g._id, 'Acme Corp', 1) WITH SEMANTICS`)
	for _, r := range rows.Data {
		fmt.Println(r[0], r[1])
	}
	// Output: Widget 9.5
}

// ExampleDB_Query_justify reproduces the paper's Warfarin question through
// the justify() relation: the naive certain answer is false, the
// parallel-world answer is justified.
func ExampleDB_Query_justify() {
	db, err := scdb.Open(scdb.Options{
		Axioms:    scdb.LifeSciAxioms + scdb.PopulationAxioms,
		LinkRules: scdb.LifeSciLinkRules(),
		Patterns:  scdb.LifeSciPatterns(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	for _, src := range scdb.LifeSciSample(1, 0, 0, 0) {
		db.Ingest(src)
	}
	if _, err := db.Query(scdb.ClinicalClaims); err != nil {
		log.Fatal(err)
	}

	rows, err := db.Query(`SELECT naive_certain, degree, sensitive FROM justify('Warfarin', 'effective_dose_mg', 5.0, 0.5) LIMIT 1`)
	if err != nil {
		log.Fatal(err)
	}
	ans := rows.Data[0]
	fmt.Printf("naive certain: %v\n", ans[0])
	fmt.Printf("justified: %.2f\n", ans[1])
	fmt.Printf("sensitive to context: %v\n", ans[2])
	// Output:
	// naive certain: false
	// justified: 0.80
	// sensitive to context: true
}

// ExampleDB_Query_witnesses shows the existential inference from the
// paper through the witnesses() relation: every Drug must have a target,
// even before one is known.
func ExampleDB_Query_witnesses() {
	db, err := scdb.Open(scdb.Options{
		Axioms: "sub Aspirin_Class Drug\nexists Drug hasTarget Gene\nconcept Gene",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Ingest(scdb.Source{
		Name: "kb",
		Entities: []scdb.Entity{
			{Key: "d1", Types: []string{"Drug"}, Attrs: scdb.Record{"name": "Newdrug"}},
		},
	})
	rows, err := db.Query("SELECT entity, role, filler FROM witnesses()")
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range rows.Data {
		fmt.Printf("%s must have %s to some %s\n", w[0], w[1], w[2])
	}
	// Output: Newdrug must have hasTarget to some Gene
}

// ExampleDB_Explain shows the semantic optimizer proving a query empty
// from disjointness alone.
func ExampleDB_Explain() {
	db, err := scdb.Open(scdb.Options{Axioms: "sub Drug Chemical\nsub Tumor Disease\ndisjoint Chemical Disease"})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	db.Ingest(scdb.Source{Name: "kb", Entities: []scdb.Entity{
		{Key: "d", Types: []string{"Drug"}, Attrs: scdb.Record{"name": "x"}},
	}})
	info, _ := db.Explain(`SELECT name FROM Drug AS d WHERE ISA(d._id, 'Tumor') WITH SEMANTICS`)
	fmt.Print(info.Plan)
	// Output:
	// Project name
	//   Empty ("Drug" and "Tumor" are disjoint)
}
