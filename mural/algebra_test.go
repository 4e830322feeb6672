package mural

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/wordnet"
)

// Table 1 of the paper states the algebraic interaction of the multilingual
// operators: Ψ commutes and associates/distributes over the standard
// operators; Ω does not commute (TC is directional) but distributes. These
// tests check the observable consequences on real query results.

func algebraEngine(t *testing.T) *Engine {
	t.Helper()
	net := wordnet.Generate(wordnet.Config{Synsets: 3000, Seed: 13})
	e, err := Open(Config{WordNet: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	e.MustExec(`CREATE TABLE l (id INT, v UNITEXT)`)
	e.MustExec(`CREATE TABLE r (id INT, v UNITEXT)`)
	e.MustExec(`INSERT INTO l VALUES
		(1, unitext('nehru', english)), (2, unitext('gandhi', english)),
		(3, unitext('நேரு', tamil)), (4, unitext('patel', english)),
		(5, unitext('history', english)), (6, unitext('historiography', english))`)
	e.MustExec(`INSERT INTO r VALUES
		(1, unitext('neru', english)), (2, unitext('காந்தி', tamil)),
		(3, unitext('bose', english)),
		(4, unitext('history', english)), (5, unitext('discipline', english))`)
	e.MustExec(`ANALYZE`)
	return e
}

func count(t *testing.T, e *Engine, q string) int64 {
	t.Helper()
	res, err := e.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res.Rows[0][0].Int()
}

// TestPsiCommutes: Ψ(a,b) == Ψ(b,a) — Table 1 lists Ψ as commutative.
func TestPsiCommutes(t *testing.T) {
	e := algebraEngine(t)
	ab := count(t, e, `SELECT count(*) FROM l, r WHERE l.v LEXEQUAL r.v THRESHOLD 2`)
	ba := count(t, e, `SELECT count(*) FROM l, r WHERE r.v LEXEQUAL l.v THRESHOLD 2`)
	if ab != ba || ab == 0 {
		t.Errorf("Ψ not commutative: %d vs %d", ab, ba)
	}
}

// TestOmegaDoesNotCommute: Ω(a,b) means a ∈ TC(b); swapping the operands
// changes the result — Table 1 lists Ω as non-commutative.
func TestOmegaDoesNotCommute(t *testing.T) {
	e := algebraEngine(t)
	// historiography ∈ TC(history) but not vice versa.
	fwd := count(t, e, `SELECT count(*) FROM l WHERE v SEMEQUAL 'history'`)
	// 'history' and 'historiography' both under TC(history): fwd = 2
	if fwd != 2 {
		t.Fatalf("Ω forward = %d, want 2", fwd)
	}
	rev := count(t, e, `SELECT count(*) FROM l WHERE v SEMEQUAL 'historiography'`)
	if rev != 1 { // only historiography itself
		t.Errorf("Ω reverse = %d, want 1", rev)
	}
}

// TestPsiDistributesOverSelection: σ_p(R) Ψ S == σ_p(R Ψ S) when p touches
// only R's attributes.
func TestPsiDistributesOverSelection(t *testing.T) {
	e := algebraEngine(t)
	pushed := count(t, e, `SELECT count(*) FROM l, r WHERE l.v LEXEQUAL r.v THRESHOLD 2 AND l.id < 4`)
	// Force the filter above the join via a different formulation: the
	// planner pushes selections, so equality of results is the observable
	// property (the executor recheck keeps semantics identical).
	manual := 0
	res, err := e.Exec(`SELECT l.id FROM l, r WHERE l.v LEXEQUAL r.v THRESHOLD 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[0].Int() < 4 {
			manual++
		}
	}
	if int64(manual) != pushed {
		t.Errorf("selection pushdown changed Ψ results: %d vs %d", manual, pushed)
	}
}

// TestPsiThresholdMonotone: the Ψ result set grows monotonically with the
// threshold (a consequence of the metric semantics the algebra relies on).
func TestPsiThresholdMonotone(t *testing.T) {
	e := algebraEngine(t)
	prev := int64(-1)
	for k := 0; k <= 4; k++ {
		got := count(t, e, fmt.Sprintf(`SELECT count(*) FROM l, r WHERE l.v LEXEQUAL r.v THRESHOLD %d`, k))
		if got < prev {
			t.Errorf("Ψ result shrank at k=%d: %d < %d", k, got, prev)
		}
		prev = got
	}
}

// TestUniTextTextOperations: §3.2.1 — ordinary text comparisons apply to
// the Text component of UniText, while ≐ compares both components.
func TestUniTextTextOperations(t *testing.T) {
	e := algebraEngine(t)
	e.MustExec(`CREATE TABLE tx (v UNITEXT)`)
	e.MustExec(`INSERT INTO tx VALUES (unitext('alpha', english)), (unitext('alpha', tamil)), (unitext('beta', english))`)
	if got := count(t, e, `SELECT count(*) FROM tx WHERE v < 'b'`); got != 2 {
		t.Errorf("text < on UNITEXT = %d", got)
	}
	if got := count(t, e, `SELECT count(*) FROM tx WHERE text(v) = 'alpha'`); got != 2 {
		t.Errorf("text() equality = %d", got)
	}
	if got := count(t, e, `SELECT count(*) FROM tx WHERE v = unitext('alpha', tamil)`); got != 1 {
		t.Errorf("≐ equality = %d", got)
	}
}

// TestComposeDecomposeRoundTrip: the ⊕/⊖ operators of §3.1 exposed as
// unitext()/text()/lang().
func TestComposeDecomposeRoundTrip(t *testing.T) {
	e := algebraEngine(t)
	res, err := e.Exec(`SELECT text(unitext('काशी', hindi)), lang(unitext('काशी', hindi)) FROM l LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Text() != "काशी" || res.Rows[0][1].Text() != "hindi" {
		t.Errorf("⊖(⊕(x)) = %v", res.Rows[0])
	}
}

// TestCoreAndOutsideAgree is the cross-validation property: the native
// engine and the outside-the-server UDF path must compute identical Ψ
// answers on a randomized workload (they share nothing above the storage
// layer).
func TestCoreAndOutsideAgree(t *testing.T) {
	// covered end-to-end in internal/server tests and internal/bench; here
	// we assert the engine-side invariant that the same query re-run with
	// every access path enabled/disabled is stable.
	e := algebraEngine(t)
	q := `SELECT count(*) FROM l WHERE v LEXEQUAL 'nehru' THRESHOLD 2 IN english, tamil`
	want := count(t, e, q)
	for i := 0; i < 5; i++ {
		if got := count(t, e, q); got != want {
			t.Fatalf("nondeterministic result: %d vs %d", got, want)
		}
	}
	if want == 0 {
		t.Error("workload has no matches")
	}
}

// TestExplainShowsPsiAndOmega: EXPLAIN output names the multilingual
// operators so plans are auditable.
func TestExplainShowsPsiAndOmega(t *testing.T) {
	e := algebraEngine(t)
	res := e.MustExec(`EXPLAIN SELECT count(*) FROM l, r WHERE l.v LEXEQUAL r.v THRESHOLD 1`)
	if !strings.Contains(res.Plan, "Psi") && !strings.Contains(res.Plan, "Ψ") {
		t.Errorf("plan does not show Ψ:\n%s", res.Plan)
	}
	res = e.MustExec(`EXPLAIN SELECT count(*) FROM l WHERE v SEMEQUAL 'history'`)
	if !strings.Contains(res.Plan, "Ω") {
		t.Errorf("plan does not show Ω:\n%s", res.Plan)
	}
}
