package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// goldenSeed is the seed whose generated inputs and oracle answers are
// pinned in golden/seed-1.json; other seeds recompute the oracle unpinned.
const goldenSeed = 1

const goldenPath = "golden/seed-1.json"

//go:embed golden/seed-1.json
var goldenJSON []byte

// pin is the digest of one workload's generated inputs, and of its distinct
// statements each paired with the answer the oracle expects.
type pin struct {
	Inputs  string `json:"inputs"`
	Answers string `json:"answers"`
}

// checkGolden fails when a generator (internal/dataset, internal/wordnet,
// internal/phonetic's G2P) or the workload definition no longer produces the
// pinned inputs, so that a later change cannot alter what is measured by
// editing a generator.
func checkGolden(w *workload) error {
	if w.seed != goldenSeed || !w.sc.golden {
		return nil
	}
	var pins map[string]pin
	if err := json.Unmarshal(goldenJSON, &pins); err != nil {
		return fmt.Errorf("%s: %w", goldenPath, err)
	}
	want, ok := pins[w.name]
	if !ok {
		return fmt.Errorf("%s has no entry for %s; run with -update-golden", goldenPath, w.name)
	}
	if got := (pin{w.inputs.String(), w.answers.String()}); got != want {
		return fmt.Errorf("%s: the generated workload drifted from %s: inputs %s (pinned %s), answers %s (pinned %s). "+
			"A generator or the workload changed; numbers would not compare with earlier runs", w.name, goldenPath, got.Inputs, want.Inputs, got.Answers, want.Answers)
	}
	return nil
}

// updateGolden regenerates golden/seed-1.json; run from the benchmark's
// directory.
func updateGolden() error {
	pins := make(map[string]pin)
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := builders[name](goldenSeed, fullScale)
		pins[name] = pin{w.inputs.String(), w.answers.String()}
	}
	b, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
