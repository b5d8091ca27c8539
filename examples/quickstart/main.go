// Quickstart: open an in-memory self-curating database, ingest two small
// heterogeneous sources, and watch curation unify them — no schema
// declarations, no manual ETL.
package main

import (
	"fmt"
	"log"

	"scdb"
)

func main() {
	db, err := scdb.Open(scdb.Options{
		// A three-line ontology: products and vendors are disjoint, and
		// every product has some vendor.
		Axioms: `
sub Gadget Product
disjoint Product Vendor
exists Product soldBy Vendor
`,
		// Resolve the catalog's literal "vendor" field to vendor entities.
		LinkRules: []scdb.LinkRule{{
			Predicate:     "vendor_name",
			EdgePredicate: "soldBy",
			TargetAttrs:   []string{"name"},
			TargetType:    "Vendor",
		}},
	})
	must(err)
	defer db.Close()

	// Source 1: a product catalog. Note the literal vendor reference.
	must(db.Ingest(scdb.Source{
		Name: "catalog",
		Entities: []scdb.Entity{
			{Key: "p1", Types: []string{"Gadget"}, Attrs: scdb.Record{"name": "Widget Mini", "price": 9.5}},
			{Key: "p2", Types: []string{"Gadget"}, Attrs: scdb.Record{"name": "Widget Max", "price": 49.0}},
			{Key: "p3", Types: []string{"Product"}, Attrs: scdb.Record{"name": "Mystery Box"}},
		},
		Links: []scdb.Link{
			{FromKey: "p1", Predicate: "vendor_name", Value: "Acme Corp"},
			{FromKey: "p2", Predicate: "vendor_name", Value: "Acme Corp"},
		},
	}))

	// Source 2: a vendor registry, arriving later. The pending vendor
	// references resolve automatically (continuous online integration).
	must(db.Ingest(scdb.Source{
		Name: "registry",
		Entities: []scdb.Entity{
			{Key: "v1", Types: []string{"Vendor"}, Attrs: scdb.Record{"name": "Acme Corp", "country": "US"}},
		},
	}))

	// SCQL across both layers: relational filter + graph reachability.
	rows, err := db.Query(`SELECT name, price FROM Gadget AS g WHERE REACHES(g._id, 'Acme Corp', 1) ORDER BY price WITH SEMANTICS`)
	must(err)
	fmt.Println("Gadgets sold by Acme Corp:")
	for _, row := range rows.Data {
		fmt.Printf("  %-12v $%v\n", row[0], row[1])
	}

	// The semantic layer noticed that Mystery Box, being a Product, must
	// have a vendor — even though none is known yet.
	fmt.Println("\nExistential witnesses (inferred but unresolved facts):")
	rows, err = db.Query(`SELECT entity, role, filler, because FROM witnesses()`)
	must(err)
	for _, w := range rows.Data {
		fmt.Printf("  %s must have %s to some %s (because it is a %s)\n", w[0], w[1], w[2], w[3])
	}

	// Meta-data is data: the schema is read from the stored rows.
	rows, err = db.Query(`SELECT name, filled, kinds FROM sys.columns WHERE "table" = 'catalog' ORDER BY name`)
	must(err)
	fmt.Println("\nSchema of 'catalog' (no CREATE TABLE anywhere):")
	for _, c := range rows.Data {
		fmt.Printf("  %-8v filled %v  %v\n", c[0], c[1], c[2])
	}

	st := db.Stats()
	fmt.Printf("\nEngine: %d tables, %d entities, %d edges, %d concepts, %d witnesses\n",
		st.Tables, st.Entities, st.Edges, st.Concepts, st.Witnesses)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
