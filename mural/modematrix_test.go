package mural

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// matrixQueries is how many generated queries TestModeMatrix runs (query i
// is randomQuery's draw from seed i); matrixRows is the size of table a.
const matrixQueries, matrixRows = 200, 600

// matrixPinned are the queries that found a divergence, run as seeds -1, -2,
// ... ahead of the generated ones.
var matrixPinned = []matrixQuery{
	// Gather workers that each met the error joined their error texts.
	{sql: "SELECT id, lang(id) FROM a WHERE name LEXEQUAL 0.5 THRESHOLD 0"},
}

// matrixSwitches are the SET switches a mode turns off, each with the plan
// nodes it governs.
var matrixSwitches = []struct{ name, nodes string }{
	{"enable_hashjoin", "HashJoin"},
	{"enable_indexscan", "IndexScan(BTree)"},
	{"enable_mtree", "IndexScan(MTree) PsiJoin(MTree)"},
	{"enable_mdi", "IndexScan(MDI)"},
	{"enable_qgram", "IndexScan(QGram)"},
}

// TestModeMatrix checks over random queries that every plan the engine can
// choose returns the same answer, the identity Table 1's algebra and Fig. 7's
// forced plans rest on. A mode is a session of one engine that differs only
// in SET (workers 1, 2 or 8, each with every path on, one switch off, all
// off, or a forced join order), the generic filter (a bare Ψ/Ω rewritten off
// the fused kernel), or an on-disk engine whose pool is smaller than its
// tables. Each mode must return the first mode's multiset (its rows in order
// under ORDER BY ... LIMIT) or error text, take the path that defines it at
// least once, and never a path it has off.
func TestModeMatrix(t *testing.T) {
	ctx := context.Background()
	langs := []types.LangID{types.LangEnglish, types.LangFrench, types.LangTamil}
	net := wordnet.Generate(wordnet.Config{Synsets: 2000, Seed: 1, Langs: langs})
	d := newMatrixData(net, langs)
	open := func(cfg Config) *Engine {
		cfg.WordNet, cfg.FeedbackEntries = net, -1
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		for _, q := range d.load {
			e.MustExec(q)
		}
		return e
	}
	mem, disk := open(Config{}), open(Config{Dir: t.TempDir(), BufferPages: 8})
	if pages, err := disk.TablePages("a"); err != nil || pages <= 8 {
		t.Fatalf("table a has %d pages (err %v), want more than the on-disk pool's 8 frames", pages, err)
	}

	type mode struct {
		name, order string // order: its forced join order's first table
		s           *Session
		generic     bool     // it runs bare Ψ/Ω queries rewritten off the fused kernel
		must, never []string // plan nodes it must take at least once, and never
	}
	var modes []*mode
	add := func(e *Engine, name string, workers int, sets ...string) {
		m := &mode{name: fmt.Sprintf("%s workers=%d", name, workers), s: e.Session(), generic: name == "generic filter"}
		if workers == 1 {
			m.never = []string{"Gather"}
		} else {
			m.must = []string{"Gather"}
		}
		for _, sw := range matrixSwitches {
			if slices.Contains(sets, sw.name+" = off") {
				m.never = append(m.never, strings.Fields(sw.nodes)...)
			} else {
				m.must = append(m.must, strings.Fields(sw.nodes)...)
			}
		}
		for _, set := range append(sets, fmt.Sprintf("workers = %d", workers)) {
			if _, err := m.s.ExecContext(ctx, "SET "+set); err != nil {
				t.Fatal(err)
			}
			if order, ok := strings.CutPrefix(set, "force_join_order = "); ok {
				m.order, _, _ = strings.Cut(order, ",")
			}
		}
		// Only a join that keeps the small b outside partitions its inner.
		if workers > 1 && !m.generic && m.order != "a" {
			m.must = append(m.must, gatherJoin)
		}
		modes = append(modes, m)
	}
	var allOff []string
	for _, sw := range matrixSwitches {
		allOff = append(allOff, sw.name+" = off")
	}
	for _, w := range []int{1, 2, 8} {
		add(mem, "every path off", w, allOff...)
		add(mem, "generic filter", w, allOff...)
		add(mem, "every path on", w)
		for _, set := range allOff {
			add(mem, set, w, set)
		}
		add(mem, "a then b", w, "force_join_order = a, b")
		add(mem, "b then a", w, "force_join_order = b, a")
	}
	add(disk, "on disk", 2)
	add(disk, "on disk, every path off", 2, allOff...)

	// The first mode's answers are the reference. At least one query must
	// fail there, and a quarter of the Ψ, Ω and join queries that succeed
	// must match rows, or the modes agree on nothing.
	var queries []matrixQuery
	for seed := -len(matrixPinned); seed < matrixQueries; seed++ {
		q := randomQuery(rand.New(rand.NewSource(int64(seed))), d)
		if seed < 0 {
			q = matrixPinned[-seed-1]
		}
		queries = append(queries, q)
	}
	want, errs, found := make([]string, len(queries)), 0, [3][2]int{}
	for j, q := range queries {
		res, err := modes[0].s.ExecContext(ctx, q.sql)
		if want[j] = matrixAnswer(res, err, q.ordered); err != nil {
			errs++
			continue
		}
		matched := len(res.Rows) > 0 && !(strings.HasPrefix(q.sql, "SELECT count(*)") && res.Rows[0][0].Int() == 0)
		for c, in := range []bool{strings.Contains(q.sql, "LEXEQUAL"), strings.Contains(q.sql, "SEMEQUAL"), q.joined} {
			if in {
				found[c][0]++
			}
			if in && matched {
				found[c][1]++
			}
		}
	}
	if errs == 0 {
		t.Error("no generated query failed: the error path went untested")
	}
	for c, n := range found {
		if 4*n[1] < n[0] {
			t.Errorf("%d of %d %s queries matched rows, want a quarter", n[1], n[0], []string{"Ψ", "Ω", "join"}[c])
		}
	}
	// Every mode, the first among them, then runs every query in a subtest
	// of its own (-run 'TestModeMatrix/b_then_a_workers=2' runs one mode):
	// the first mode's re-run repeats each statement in the session that
	// planned it.
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for j, q := range queries {
				seed, text := j-len(matrixPinned), q.sql
				if m.generic {
					if text = q.generic; text == "" {
						continue
					}
				}
				res, err := m.s.ExecContext(ctx, text)
				if got := matrixAnswer(res, err, q.ordered); got != want[j] {
					t.Fatalf("seed %d: %s\n%.800s\nwant (%s):\n%.800s", seed, text, got, modes[0].name, want[j])
				}
				if err != nil {
					continue
				}
				for _, node := range m.never {
					if strings.Contains(res.Plan, node) {
						t.Fatalf("seed %d: %s planned %s:\n%s", seed, text, node, res.Plan)
					}
				}
				m.must = slices.DeleteFunc(m.must, func(node string) bool { return planned(res.Plan, node) })
				if outer := firstScan.FindStringSubmatch(res.Plan); q.joined && m.order != "" && outer[1] != m.order {
					t.Fatalf("seed %d: %s is not joined in that order:\n%s", seed, text, res.Plan)
				}
			}
			for _, node := range m.must {
				t.Errorf("never planned %s: the mode tested nothing of it", node)
			}
		})
	}
}

// gatherJoin names a Gather right above a Ψ nested-loop join whose inner
// scan, under its Materialize, is the plan's one partitioned scan.
const gatherJoin = "Gather above PsiJoin(NL) over a partitioned inner"

var gatherOverJoin = regexp.MustCompile(`Gather workers=\d+ .*\n *PsiJoin\(NL\)`)

// planned reports whether a plan has node.
func planned(plan, node string) bool {
	if node == gatherJoin {
		_, inner, _ := strings.Cut(plan, "Materialize")
		return gatherOverJoin.MatchString(plan) && strings.Count(plan, "[parallel]") == 1 && strings.Contains(inner, "[parallel]")
	}
	return strings.Contains(plan, node)
}

// firstScan finds a plan's first scan and its table, a join's outer input.
var firstScan = regexp.MustCompile(`Scan\S* (\w+)`)

// matrixAnswer renders a statement's outcome for comparison: its error
// text, or its rows, sorted unless their order is part of the answer.
func matrixAnswer(res *Result, err error, ordered bool) string {
	if err != nil {
		return "error: " + err.Error()
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r.String()
	}
	if !ordered {
		slices.Sort(rows)
	}
	return fmt.Sprintf("%d rows\n%s", len(rows), strings.Join(rows, "\n"))
}

// matrixData is the harness's load and the constants its queries draw
// from. Tables a and b share one schema. a's names are English and Tamil
// (they rarely share a phoneme, so a Ψ probe at k = 0 is selective); b's are
// of every script, so a Ψ join matches across languages. word is a word form
// of the net in one of three languages, title the English lemma of its
// synset. c holds 1,000 English and Tamil names, a's among them, and nothing
// else: narrow enough that its M-Tree is priced below the scan, which a's
// never is.
type matrixData struct {
	load  []string
	names []string // Ψ constants of name and alias: bases of a's names, their renderings, misses
	words []string // Ψ constants of word and title: forms of the stored words
	omega []string // Ω constants: English lemmas of the stored words' synsets or their ancestors, misses
}

func newMatrixData(net *wordnet.Net, langs []types.LangID) *matrixData {
	rng := rand.New(rand.NewSource(1))
	recs := dataset.GenerateNames(dataset.NamesConfig{Records: 2400, Seed: 1})
	// A cluster's records are its English, Hindi, Tamil and Kannada names.
	latin := func(i int) types.UniText { return recs[i/2*4+i%2*2].Name }
	quote := func(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }
	lit := func(u types.UniText) string { return fmt.Sprintf("unitext(%s, %s)", quote(u.Text), u.Lang) }
	d := &matrixData{}
	table := func(ddl string, n int, row func(i int) string) {
		d.load = append(d.load, "CREATE TABLE "+ddl)
		for i := 0; i < n; i += 250 {
			var rows []string
			for j := i; j < min(i+250, n); j++ {
				rows = append(rows, row(j))
			}
			d.load = append(d.load, "INSERT INTO "+ddl[:1]+" VALUES "+strings.Join(rows, ", "))
		}
	}
	var syns []wordnet.SynsetID // the stored words' synsets
	wide := func(name types.UniText, i int) string {
		syn, lang := wordnet.SynsetID(rng.Intn(net.NumSynsets())), langs[rng.Intn(len(langs))]
		syns = append(syns, syn)
		word := net.Lemma(lang, syn)
		if i%7 == 0 {
			word = strings.ToUpper(word)
		}
		vals := []string{lit(name), lit(recs[rng.Intn(len(recs))].Name), lit(types.Compose(word, lang)), quote(net.Lemma(types.LangEnglish, syn))}
		if i%13 < len(vals) {
			vals[i%13] = "NULL"
		}
		return fmt.Sprintf("(%d, %d, %d.%d, %s)", i, rng.Intn(16), rng.Intn(100), rng.Intn(10), strings.Join(vals, ", "))
	}
	const schema = " (id INT, grp INT, val FLOAT, name UNITEXT, alias UNITEXT, word UNITEXT, title TEXT)"
	table("a"+schema, matrixRows, func(i int) string { return wide(latin(i), i) })
	table("b"+schema, 120, func(i int) string { return wide(recs[i*13].Name, i) })
	table("c (id INT, name UNITEXT)", 1000, func(i int) string { return fmt.Sprintf("(%d, %s)", i, lit(latin(i))) })
	for _, ix := range []string{"a (id) USING BTREE", "a (grp) USING BTREE", "a (alias) USING QGRAM", "a (name) USING MDI",
		"a (name) USING MTREE", "b (name) USING MTREE", "c (name) USING MTREE"} {
		d.load = append(d.load, fmt.Sprintf("CREATE INDEX %s_%d ON %s", ix[:1], len(d.load), ix))
	}
	d.load = append(d.load, "ANALYZE")
	for i := 0; i < 40; i++ {
		r := recs[rng.Intn(2*matrixRows)] // of a cluster a holds
		syn, lang := syns[rng.Intn(len(syns))], langs[rng.Intn(len(langs))]
		d.names = append(d.names, quote(r.Roman), quote(r.Roman), lit(r.Name))
		d.words = append(d.words, quote(net.Lemma(types.LangEnglish, syn)), lit(types.Compose(net.Lemma(lang, syn), lang)))
		for up := rng.Intn(4); up > 0 && net.Parent(syn) != wordnet.NoSynset; up-- {
			syn = net.Parent(syn)
		}
		d.omega = append(d.omega, quote(net.Lemma(types.LangEnglish, syn)))
	}
	d.names = append(d.names, "'ZZQX'", "NULL", quote(strings.ToUpper(recs[3].Roman)))
	d.omega = append(d.omega, "'no such concept'", "NULL", quote(strings.ToUpper(net.Lemma(types.LangEnglish, 0))), lit(types.Compose(net.Lemma(types.LangFrench, 5), types.LangFrench)))
	return d
}

// matrixQuery is one generated statement. generic: the statement rewritten
// so that its lone Ψ or Ω leaves the fused kernel ("" when it has none).
// ordered: its rows' order is part of its answer. joined: it joins a and b.
type matrixQuery struct {
	sql, generic    string
	ordered, joined bool
}

// randomQuery draws one statement over d's tables: Ψ and Ω selections
// under mixed AND/OR/NOT, aggregates, ORDER BY ... LIMIT, equi-joins, Ψ
// joins that hoist, that do not and that probe an M-Tree, Ω joins, and
// statements that fail.
func randomQuery(rng *rand.Rand, d *matrixData) matrixQuery {
	tbl := pick(rng, "a", "a", "a", "b")
	where, bare := d.lead(rng, "")
	switch kind := rng.Intn(12); kind {
	case 0, 1, 2, 3:
		q := matrixQuery{sql: fmt.Sprintf("SELECT %s FROM %s WHERE %s", pick(rng, "id", "id, name", "*", "text(alias), word", "title, lang(name)"), tbl, where)}
		if kind == 2 { // a probe of c's M-Tree
			where, bare = d.psiAtom(rng, "", "name", rng.Intn(2)*rng.Intn(4)), rng.Intn(3) > 0
			if !bare {
				where += fmt.Sprintf(" AND id < %d", rng.Intn(1100))
			}
			q.sql = fmt.Sprintf("SELECT %s FROM c WHERE %s", pick(rng, "id", "*", "lang(name)"), where)
		}
		if kind == 3 {
			q.sql += " AND " + d.pred(rng, "", 2)
		} else if bare {
			q.generic = q.sql + " AND id >= 0"
		}
		return q
	case 4:
		return matrixQuery{sql: fmt.Sprintf(pick(rng, "SELECT grp, count(*), sum(val), avg(id) FROM %s WHERE %s GROUP BY grp",
			"SELECT count(*), sum(id), avg(val) FROM %s WHERE %s", "SELECT DISTINCT grp FROM %s WHERE %s"), tbl, where)}
	case 5:
		return matrixQuery{ordered: true, sql: fmt.Sprintf("SELECT id, name, val FROM %s WHERE %s ORDER BY %s LIMIT %d", tbl, where, pick(rng, "id", "id DESC", "grp, id", "val DESC, id"), 1+rng.Intn(12))}
	case 6:
		return matrixQuery{joined: true, sql: fmt.Sprintf("SELECT a.id, b.id, b.name FROM a JOIN b ON %s WHERE %s AND b.id < %d AND %s", pick(rng, "a.id = b.grp", "a.grp = b.grp", "a.id = b.id"), d.pred(rng, "a.", 1), 10+rng.Intn(30), d.pred(rng, "b.", 0))}
	case 7, 8:
		on := fmt.Sprintf("b.%s THRESHOLD %d", pick(rng, "name LEXEQUAL a.name", "name LEXEQUAL a.name", "name LEXEQUAL a.alias", "alias LEXEQUAL a.name", "word LEXEQUAL a.title"), rng.Intn(2)*rng.Intn(4))
		// Under OR the Ψ is no longer alone: the join does not hoist.
		on = fmt.Sprintf(pick(rng, "%s", "%s", "(%s OR b.grp = a.grp)", "%s IN english, tamil", "%s IN hindi"), on)
		q := matrixQuery{joined: true, sql: fmt.Sprintf("SELECT b.id, a.id FROM b, a WHERE %s AND %s", pick(rng, fmt.Sprintf("b.id = %d", rng.Intn(120)), fmt.Sprintf("b.id < %d", 1+rng.Intn(4)), fmt.Sprintf("a.id = %d", rng.Intn(matrixRows))), on)}
		if rng.Intn(3) == 0 {
			q.ordered, q.sql = true, q.sql+fmt.Sprintf(" ORDER BY a.id, b.id LIMIT %d", 1+rng.Intn(20))
		}
		return q
	case 9:
		return matrixQuery{joined: true, sql: fmt.Sprintf("SELECT b.id, a.id FROM b, a WHERE b.id < %d AND a.%s SEMEQUAL b.%s%s", 2+rng.Intn(8), pick(rng, "word", "title"), pick(rng, "word", "title"), pick(rng, "", " IN english, french"))}
	case 10:
		return matrixQuery{sql: fmt.Sprintf("SELECT %s FROM %s WHERE %s", pick(rng, "id", "lang(grp)", "sum(name)", "phoneme(title)"), tbl, pick(rng, where, where,
			"name LEXEQUAL 5 THRESHOLD 1", "word SEMEQUAL 7", "alias LEXEQUAL unitext('x', 'klingon') THRESHOLD 0", "id < 'abc'", "nosuch = 1"))}
	default:
		return matrixQuery{sql: fmt.Sprintf("SELECT count(*), sum(val) FROM %s WHERE %s", tbl, d.pred(rng, "", 3))}
	}
}

// lead draws a WHERE clause whose first conjunct an access path can take: a
// Ψ probe, an Ω, an id or grp comparison, or a random predicate over
// relation p ("a." or ""). bare: the clause is one Ψ or Ω of a column and a
// constant.
func (d *matrixData) lead(rng *rand.Rand, p string) (where string, bare bool) {
	switch rng.Intn(8) {
	case 0, 1, 2:
		return d.psiAtom(rng, p, pick(rng, "name", "alias", "word", "title"), rng.Intn(2)*rng.Intn(4)), true
	case 3:
		return d.omegaAtom(rng, p), true
	case 4:
		return fmt.Sprintf("%sid = %d AND %s", p, rng.Intn(matrixRows), d.pred(rng, p, 1)), false
	case 5:
		return fmt.Sprintf("%sgrp = %d AND %sid < %d", p, rng.Intn(18), p, rng.Intn(matrixRows)), false
	}
	return d.pred(rng, p, 2), false
}

// pred draws a predicate over relation p: one atom at depth 0, above it
// atoms under AND, OR and NOT.
func (d *matrixData) pred(rng *rand.Rand, p string, depth int) string {
	if depth > 0 && rng.Intn(3) > 0 {
		s := fmt.Sprintf("(%s %s %s)", d.pred(rng, p, depth-1), pick(rng, "AND", "OR"), d.pred(rng, p, depth-1))
		return pick(rng, "", "", "", "NOT ") + s
	}
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf("%sid %s %d", p, pick(rng, "=", "<", ">", "<=", ">=", "<>"), rng.Intn(matrixRows))
	case 1:
		return fmt.Sprintf("%sgrp = %d", p, rng.Intn(18))
	case 2:
		return fmt.Sprintf("%sval < %d.5", p, rng.Intn(100))
	case 3:
		return fmt.Sprintf("text(%sname) LIKE '%c%%'", p, 'a'+rng.Intn(26))
	case 4, 5:
		return d.psiAtom(rng, p, pick(rng, "name", "alias", "word", "title"), rng.Intn(4))
	}
	return d.omegaAtom(rng, p)
}

func (d *matrixData) psiAtom(rng *rand.Rand, p, col string, k int) string {
	consts := d.names
	if col == "word" || col == "title" {
		consts = d.words
	}
	return fmt.Sprintf("%s%s LEXEQUAL %s THRESHOLD %d%s", p, col, pick(rng, consts...), k, pick(rng, "", "", "", " IN english", " IN english, tamil", " IN hindi, kannada"))
}

func (d *matrixData) omegaAtom(rng *rand.Rand, p string) string {
	return fmt.Sprintf("%s%s SEMEQUAL %s%s", p, pick(rng, "word", "title"), pick(rng, d.omega...), pick(rng, "", "", "", " IN english", " IN french, tamil"))
}

func pick(rng *rand.Rand, xs ...string) string { return xs[rng.Intn(len(xs))] }
