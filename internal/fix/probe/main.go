// Command probe scores corpus cases of the application package it is
// compiled with and prints each case's buggy and fixed verdicts as a JSON
// object keyed by case name. The repair engine runs it with
// `go run -overlay`, substituting a patched application file, so the
// verdicts are those of the patched program.
//
//	go run ./internal/fix/probe -case stride-overlap
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/apps"
	"repro/internal/fix"
)

func main() {
	name := flag.String("case", "", "corpus case to score (default: all)")
	schedules := flag.Int("schedules", 0, "explorer schedules per sweep (0 = default)")
	seed := flag.Uint64("seed", 0, "explorer seed (0 = default)")
	maxRanks := flag.Int("max-ranks", 0, "cap on each case's rank count (0 = default)")
	flag.Parse()
	cfg := fix.VerifyConfig{Schedules: *schedules, Seed: *seed, MaxRanks: *maxRanks}
	scores := map[string]fix.Scores{}
	for _, bc := range apps.CorpusCases() {
		if *name == "" || bc.Name == *name {
			scores[bc.Name] = cfg.Score(bc)
		}
	}
	if len(scores) == 0 {
		fmt.Fprintf(os.Stderr, "probe: no corpus case %q\n", *name)
		os.Exit(2)
	}
	if err := json.NewEncoder(os.Stdout).Encode(scores); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}
