// Biobrowse: the ACeDB scenario of §1.1 — a biological database whose
// schema "imposes only loose constraints" and whose trees have arbitrary
// depth. The example browses it without knowing its structure, finds
// values at unknown depths, extracts a schema after the fact, and checks
// that the loose schema really is loose.
//
//	go run ./examples/biobrowse
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	g := workload.ACeDB(workload.BioConfig{Objects: 300, MaxDepth: 14, Fanout: 3, Seed: 11})
	db := core.FromGraph(g)
	fmt.Println("ACeDB-style database:", db.Describe())

	// --- Browsing: what does this thing even look like? (§1.3)
	fmt.Println("\ntop label paths (DataGuide):")
	for _, a := range db.Browse(2, 12) {
		parts := make([]string, len(a.Path))
		for i, l := range a.Path {
			parts[i] = l.String()
		}
		fmt.Printf("  %-25s extent %d\n", strings.Join(parts, "."), a.ExtentLen)
	}

	// --- Values at arbitrary depth: conventional techniques cannot query
	// trees of unknown depth; a regular path expression can.
	deepInts := countRows(db, "path: Object._*.(> 90000)")
	fmt.Printf("\nint values > 90000 at any depth: %d\n", deepInts)

	// How deep do Gene chains nest?
	for depth := 1; ; depth++ {
		q := "Object." + strings.Repeat("_.", depth-1) + "Gene"
		if countRows(db, "path: "+q) == 0 {
			fmt.Printf("deepest Gene edge: depth %d\n", depth-1)
			break
		}
	}

	// --- Structure discovery (§5): extract a schema, then demonstrate the
	// ACeDB property — data with *missing* fields still conforms (loose),
	// data with *wrong types* does not.
	s := db.InferSchema()
	nodes, edges := s.Size()
	fmt.Printf("\ninferred schema: %d nodes, %d edges\n", nodes, edges)
	fmt.Println("data conforms to inferred schema:", db.Conforms(s))

	partial, _ := core.ParseText(`{Object: {Name: "obj-x"}}`)
	fmt.Println("object with fields missing conforms:", partial.Conforms(s))

	wrong, _ := core.ParseText(`{Object: {Name: 42}}`)
	fmt.Println("object with wrongly-typed Name conforms:", wrong.Conforms(s))
}

// countRows prepares src and returns how many rows its execution streams.
func countRows(db *core.Database, src string) int {
	s, err := db.Prepare(src)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := s.Query(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	return n
}
