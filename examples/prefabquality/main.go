// prefabquality reproduces the paper's Table 2 quality assessment: every
// built-in aligner plus Sample-Align-D is scored on a PREFAB-like
// benchmark with the Q measure (correctly aligned residue pairs /
// reference pairs). Run with:
//
//	go run ./examples/prefabquality [-sets 6]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	samplealign "repro"
)

func main() {
	numSets := flag.Int("sets", 6, "number of PREFAB-like sets (paper: 1000)")
	flag.Parse()

	sets, err := samplealign.GeneratePrefab(*numSets, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d PREFAB-like sets (pair references from recorded evolution)\n\n", len(sets))

	methods := []string{
		"sample-align-d:4", "muscle-refined", "muscle", "tcoffee", "nwnsi", "fftnsi", "clustal",
	}
	fmt.Printf("%-20s %8s %10s\n", "METHOD", "Q", "seconds")
	for _, m := range methods {
		start := time.Now()
		q, err := samplealign.EvaluatePrefab(context.Background(), m, sets)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %8.3f %10.1f\n", m, q, time.Since(start).Seconds())
	}
	fmt.Println("\npaper's Table 2 (for shape comparison): Sample-Align-D 0.544, MUSCLE 0.645,")
	fmt.Println("MUSCLE-p 0.634, T-Coffee 0.615, NWNSI 0.615, FFTNSI 0.591, CLUSTALW 0.563")
}
