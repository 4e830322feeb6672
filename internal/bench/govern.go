package bench

import (
	"fmt"
	"time"
)

// GovernOverheadConfig parameterizes the cancellation-checkpoint overhead
// measurement.
type GovernOverheadConfig struct {
	Names     int
	Threshold int
	// Queries bounds how many Ψ scan queries each pass averages over.
	Queries int
	// Rounds is how many timed passes each measurement block takes (the
	// minimum is reported, which is robust to scheduling noise).
	Rounds int
	Seed   int64
}

// GovernOverheadResult compares the Table 4 Ψ scan with governance off
// (plain Exec, nil Resources, the exact pre-governance iterator tree)
// against the same scan under an effectively-infinite statement timeout,
// where every operator carries the amortized cancellation checkpoint.
type GovernOverheadResult struct {
	UngovernedSec float64
	GovernedSec   float64
	// OverheadPct is (governed - ungoverned) / ungoverned * 100.
	OverheadPct float64
	// Matches sanity-checks both modes computed the same answer.
	Matches int64
}

// RunGovernOverhead measures what the per-row cancellation checkpoints cost
// on the paper's Ψ scan workload. The governed pass sets a statement
// timeout of ten minutes — far beyond the scan's runtime — so the deadline
// never fires but the checkpointed execution path (context polling every
// 1024 row-steps, memory accounting in materializing operators) is fully
// active. The M-Tree is disabled so both passes take the in-kernel scan
// plan the checkpoints actually instrument.
func RunGovernOverhead(cfg GovernOverheadConfig) (*GovernOverheadResult, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 3
	}
	if cfg.Queries <= 0 {
		cfg.Queries = 5
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 25
	}
	db, err := NewNamesDB(NamesConfig{Names: cfg.Names, ProbeNames: 10, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	queries := db.Queries
	if len(queries) > cfg.Queries {
		queries = queries[:cfg.Queries]
	}
	if _, err := db.Eng.Exec(`SET enable_mtree = off`); err != nil {
		return nil, err
	}

	pass := func() (time.Duration, int64, error) {
		var total time.Duration
		var matches int64
		for _, q := range queries {
			res, err := db.Eng.Exec(fmt.Sprintf(
				`SELECT count(*) FROM names WHERE name LEXEQUAL %s THRESHOLD %d`, quote(q.Text), cfg.Threshold))
			if err != nil {
				return 0, 0, err
			}
			total += res.Elapsed
			matches += res.Rows[0][0].Int()
		}
		return total, matches, nil
	}

	// measure runs one mode once, after an untimed warm-up pass that plans
	// the statements under the mode's settings.
	measure := func(setting string) (time.Duration, int64, error) {
		if _, err := db.Eng.Exec(setting); err != nil {
			return 0, 0, err
		}
		if _, _, err := pass(); err != nil { // warm-up, untimed
			return 0, 0, err
		}
		return pass()
	}
	const (
		ungovSet = `SET statement_timeout = 0`
		govSet   = `SET statement_timeout = 600000`
	)

	// The two modes are timed back-to-back within every round, with the
	// order flipped each round, so background load, CPU throttling, and
	// frequency drift hit both equally; the minimum round per mode is
	// reported, which is robust to load spikes.
	var minUngov, minGov time.Duration = -1, -1
	var ungovMatches, govMatches int64
	for r := 0; r < cfg.Rounds; r++ {
		order := []string{ungovSet, govSet}
		if r%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, setting := range order {
			d, m, err := measure(setting)
			if err != nil {
				return nil, err
			}
			if setting == ungovSet {
				if minUngov < 0 || d < minUngov {
					minUngov = d
				}
				ungovMatches = m
			} else {
				if minGov < 0 || d < minGov {
					minGov = d
				}
				govMatches = m
			}
		}
	}
	if _, err := db.Eng.Exec(`SET statement_timeout = 0`); err != nil {
		return nil, err
	}
	if ungovMatches != govMatches {
		return nil, fmt.Errorf("bench: governance changed the answer: %d vs %d", ungovMatches, govMatches)
	}

	res := &GovernOverheadResult{
		UngovernedSec: minUngov.Seconds() / float64(len(queries)),
		GovernedSec:   minGov.Seconds() / float64(len(queries)),
		Matches:       govMatches,
	}
	if res.UngovernedSec > 0 {
		res.OverheadPct = (res.GovernedSec - res.UngovernedSec) / res.UngovernedSec * 100
	}
	return res, nil
}
