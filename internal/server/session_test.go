package server

import (
	"errors"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/client"
)

// A SET lasts for its connection and touches no other: B's plans, deadline
// and cached plans are the same before and after A reconfigures itself.
func TestSetIsPerConnection(t *testing.T) {
	eng, a := startServer(t)
	b, err := client.Dial(a.RemoteAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	run := func(c *client.Conn, q string) (string, error) {
		cur, err := c.Query(q)
		if err != nil {
			return "", err
		}
		rows, err := cur.All()
		var out strings.Builder
		for _, r := range rows {
			out.WriteString(r.String() + "\n")
		}
		return out.String(), err
	}
	must := func(c *client.Conn, q string) string {
		t.Helper()
		out, err := run(c, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return out
	}
	exec := func(c *client.Conn, q string) {
		t.Helper()
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	loadBigNames(t, a, 400)
	exec(a, `ANALYZE`)
	exec(b, `SET workers = 2`)
	const (
		psi   = `EXPLAIN SELECT id FROM names WHERE name LEXEQUAL 'akash' THRESHOLD 1 IN english`
		join  = `EXPLAIN SELECT count(*) FROM names p JOIN names q ON p.id = q.id`
		count = `SELECT count(*) FROM names`
	)
	must(b, count)
	before := must(b, psi) + must(b, join)
	if !strings.Contains(before, "Gather workers=2") || !strings.Contains(before, "HashJoin") {
		t.Fatalf("precondition: B's plans use no Gather or hash join:\n%s", before)
	}

	for _, q := range []string{`SET workers = 1`, `SET statement_timeout = 1`, `SET enable_hashjoin = off`} {
		exec(a, q)
	}
	if got := must(a, psi); strings.Contains(got, "Gather") {
		t.Fatalf("A's own SET workers = 1 did not take:\n%s", got)
	}
	if after := must(b, psi) + must(b, join); after != before {
		t.Errorf("A's SET moved B's EXPLAIN:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	hits := eng.CacheStats().Plan.Hits
	must(b, count)
	if got := eng.CacheStats().Plan.Hits; got != hits+1 {
		t.Errorf("B's repeated SELECT: plan hits %d -> %d, want +1", hits, got)
	}
	if _, err := run(a, bigPsiJoin); !errors.Is(err, client.ErrQueryTimeout) {
		t.Errorf("A's Ψ join under its 1 ms timeout = %v, want ErrQueryTimeout", err)
	}
	must(b, bigPsiJoin) // fails the test if B timed out
}
