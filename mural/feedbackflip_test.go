package mural_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/mural"
)

// TestFeedbackFlipsMTreeMisplan reproduces the table4 misplan and checks
// that selectivity feedback corrects it: on the benchmark's names corpus at
// threshold 0 the histogram underestimates how many spellings collapse onto
// one phoneme, so the planner prices an M-Tree probe below the sequential
// scan. One observed (governed) execution establishes the true selectivity,
// and the re-planned statement must switch to the plain scan — with the
// same answer. ANALYZE then purges the feedback and the misplan returns.
func TestFeedbackFlipsMTreeMisplan(t *testing.T) {
	eng, err := mural.Open(mural.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.MustExec(`CREATE TABLE names (id INT, name UNITEXT)`)
	recs := dataset.GenerateNames(dataset.NamesConfig{Records: 1500, Seed: 2006})
	var rows []string
	var probes []types.UniText // the first 20 English names
	for _, r := range recs {
		rows = append(rows, fmt.Sprintf("(%d, unitext('%s', %s))", r.ID, strings.ReplaceAll(r.Name.Text, "'", "''"), r.Name.Lang))
		if r.Name.Lang == types.LangEnglish && len(probes) < 20 {
			probes = append(probes, r.Name)
		}
	}
	for i := 0; i < len(rows); i += 500 {
		eng.MustExec(`INSERT INTO names VALUES ` + strings.Join(rows[i:min(i+500, len(rows))], ","))
	}
	eng.MustExec(`CREATE INDEX idx_names_mtree ON names (name) USING MTREE`)
	eng.MustExec(`ANALYZE`)
	// Governed session: feedback folds only on governed executions.
	eng.MustExec(`SET statement_timeout = 600000`)

	flipped := false
	for _, u := range probes {
		// Table 4's query shape: a bare TEXT literal (read as English).
		q := fmt.Sprintf(
			"SELECT * FROM names WHERE name LEXEQUAL '%s' THRESHOLD 0", u.Text)
		before := eng.MustExec("EXPLAIN " + q).Plan
		if !strings.Contains(before, "IndexScan(MTree)") {
			t.Fatalf("static plan must pick the M-Tree probe at k=0:\n%s", before)
		}
		cold := eng.MustExec(q)
		after := eng.MustExec("EXPLAIN " + q).Plan
		if strings.Contains(after, "IndexScan(MTree)") {
			// Few matches: the probe genuinely is cheaper, no flip expected.
			continue
		}
		if !strings.Contains(after, "SeqScan") {
			t.Fatalf("feedback plan is neither MTree nor SeqScan:\n%s", after)
		}
		flipped = true
		warm := eng.MustExec(q)
		if len(warm.Rows) != len(cold.Rows) {
			t.Fatalf("plan flip changed the answer: %d rows vs %d", len(warm.Rows), len(cold.Rows))
		}
		// DDL-class statements invalidate the observations.
		eng.MustExec(`ANALYZE`)
		eng.MustExec(`SET statement_timeout = 600000`)
		reset := eng.MustExec("EXPLAIN " + q).Plan
		if !strings.Contains(reset, "IndexScan(MTree)") {
			t.Fatalf("ANALYZE must purge feedback and restore the static plan:\n%s", reset)
		}
		break
	}
	if !flipped {
		t.Fatal("no probe query flipped to a plain scan after one observed run")
	}
}
