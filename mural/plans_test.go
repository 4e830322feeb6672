package mural

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

var updateGolden = flag.Bool("update", false, "rewrite the plan corpus's golden files")

// The plan-and-count corpus: EXPLAIN and EXPLAIN ANALYZE of every statement
// of testdata/plans/psi_omega.sql, over a deterministic load, at workers 1
// and 2, against golden files. A change that moves a plan line or a Ψ/Ω
// count shows here as a diff; go test ./mural -run TestPlanCorpus -update
// rewrites the golden files.
func TestPlanCorpus(t *testing.T) {
	stmts := readCorpus(t, "psi_omega.sql")
	e := openCorpusEngine(t)
	seen := map[string]bool{}
	for _, workers := range []int{1, 2} {
		e.MustExec(fmt.Sprintf("SET workers = %d", workers))
		var b strings.Builder
		fmt.Fprintf(&b, "# psi_omega.sql at workers = %d. Masked: time=, elapsed=, peak=. Caches: counts are this statement's.\n", workers)
		if workers > 1 {
			b.WriteString("# Masked at 2 workers: g2p= (a worker that claims no inner page of a join compiles no outer row);\n")
			b.WriteString("# under LIMIT, where the workers race for the rows it keeps, rows= and loops= below the Limit, psi_evals=, omega_probes=.\n")
		}
		m := corpusMask{workers: workers}
		for _, q := range stmts {
			fmt.Fprintf(&b, "\n-- %s\n", q)
			for _, prefix := range []string{"EXPLAIN ", "EXPLAIN ANALYZE "} {
				res, err := e.Exec(prefix + q)
				if err != nil {
					fmt.Fprintf(&b, "%serror: %v\n", prefix, err)
					continue
				}
				b.WriteString(m.apply(res.Plan, strings.Contains(q, " LIMIT ")))
				for _, line := range strings.Split(res.Plan, "\n") {
					if f := strings.Fields(line); len(f) > 0 {
						seen[f[0]] = true
					}
				}
			}
		}
		checkGolden(t, fmt.Sprintf("psi_omega.w%d.golden", workers), b.String())
	}
	// Every operator the executor builds runs somewhere in the corpus.
	for op := plan.OpSeqScan; op <= plan.OpGather; op++ {
		if !seen[op.String()] {
			t.Errorf("no corpus plan has a %s node", op)
		}
	}
}

var (
	timingMask = regexp.MustCompile(`\b(time|elapsed|peak)=[^ )\n]+`)
	countMask  = regexp.MustCompile(`\b(psi_evals|omega_probes)=\d+`)
	rowsMask   = regexp.MustCompile(`\(actual rows=\d+ loops=\d+`)
	cachesLine = regexp.MustCompile(`Caches: g2p=(\d+)/(\d+) plan=(\d+)/(\d+) \(hits/misses, engine lifetime\)`)
)

// corpusMask blanks what varies from run to run in one engine's plans:
// timings and peak memory always; at more than one worker the counts the
// workers race for: the G2P cache's lookups, and under a LIMIT the rows and
// the Ψ/Ω counts. It prints the Caches line's engine-lifetime
// counters as the statement's own, so that a raced statement's lookups do not
// move the lines after it.
type corpusMask struct {
	workers int
	caches  [4]int64 // the engine-lifetime counters at the last Caches line
}

func (m *corpusMask) apply(p string, limit bool) string {
	raced := limit && m.workers > 1
	p = timingMask.ReplaceAllString(p, "$1=*")
	p = cachesLine.ReplaceAllStringFunc(p, func(line string) string {
		var now [4]int64
		for i, s := range cachesLine.FindStringSubmatch(line)[1:] {
			fmt.Sscan(s, &now[i])
		}
		d := [4]int64{now[0] - m.caches[0], now[1] - m.caches[1], now[2] - m.caches[2], now[3] - m.caches[3]}
		m.caches = now
		g2p := fmt.Sprintf("%d/%d", d[0], d[1])
		if m.workers > 1 {
			g2p = "*"
		}
		return fmt.Sprintf("Caches: g2p=%s plan=%d/%d (hits/misses)", g2p, d[2], d[3])
	})
	if !raced {
		return p
	}
	p = countMask.ReplaceAllString(p, "$1=*")
	lines := strings.Split(p, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, " ") {
			lines[i] = rowsMask.ReplaceAllString(l, "(actual rows=* loops=*")
		}
	}
	return strings.Join(lines, "\n")
}

// readCorpus reads one statement a line from testdata/plans/name, skipping
// blank lines and "--" comments.
func readCorpus(t *testing.T, name string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "testdata", "plans", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var stmts []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "--") {
			stmts = append(stmts, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return stmts
}

// checkGolden compares got with testdata/plans/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("..", "testdata", "plans", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("%s:%d:\n got: %s\nwant: %s", name, i+1, gl, wl)
		}
	}
	t.Log("a change that moves a golden line says why in CHANGES.md; -update rewrites the file")
}

// openCorpusEngine loads the corpus's tables into an in-memory engine with
// a 2,000-synset net and no feedback store, so EXPLAIN depends only on the
// data and the settings.
func openCorpusEngine(t *testing.T) *Engine {
	t.Helper()
	langs := []types.LangID{types.LangEnglish, types.LangFrench, types.LangTamil}
	net := wordnet.Generate(wordnet.Config{Synsets: 2000, Seed: 1, Langs: langs})
	e, err := Open(Config{WordNet: net, FeedbackEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	lit := func(u types.UniText) string {
		return fmt.Sprintf("unitext('%s', %s)", strings.ReplaceAll(u.Text, "'", "''"), u.Lang)
	}
	load := func(ddl string, rows []string) {
		e.MustExec(ddl)
		name := strings.Fields(ddl)[2]
		for i := 0; i < len(rows); i += 500 {
			e.MustExec("INSERT INTO " + name + " VALUES " + strings.Join(rows[i:min(i+500, len(rows))], ", "))
		}
		e.MustExec("ANALYZE " + name)
	}

	recs := dataset.GenerateNames(dataset.NamesConfig{Records: 6000, Seed: 1})
	var names, texts, probe []string
	for _, r := range recs {
		names = append(names, fmt.Sprintf("(%d, %s)", r.ID, lit(r.Name)))
		if r.Name.Lang == types.LangEnglish && len(texts) < 600 {
			text := r.Name.Text
			if len(texts)%5 == 0 {
				text = strings.ToUpper(text)
			}
			texts = append(texts, fmt.Sprintf("(%d, '%s')", len(texts), text))
		}
	}
	texts = append(texts, "(600, NULL)", "(601, NULL)")
	for i, id := range []int{0, 4, 100, 1, 2, 2000, 4001} {
		probe = append(probe, fmt.Sprintf("(%d, %s)", i, lit(recs[id].Name)))
	}
	probe = append(probe, "(7, NULL)")
	load("CREATE TABLE names (id INT, name UNITEXT)", names)
	load("CREATE TABLE texts (id INT, name TEXT)", texts)
	load("CREATE TABLE probe (id INT, name UNITEXT)", probe)

	rng := rand.New(rand.NewSource(1))
	var docs []string
	for id := 0; id < 2000; id++ {
		syn := wordnet.SynsetID(rng.Intn(net.NumSynsets()))
		lang := langs[rng.Intn(len(langs))]
		word := net.Lemma(lang, syn)
		switch {
		case id%50 == 0:
			docs = append(docs, fmt.Sprintf("(%d, NULL, NULL)", id))
			continue
		case id%7 == 0:
			word = strings.ToUpper(word)
		case id%97 == 0:
			word = "ḥistöry_" + word
		}
		title := net.Lemma(types.LangEnglish, syn)
		if id%9 == 0 {
			title = strings.ToUpper(title[:1]) + title[1:]
		}
		docs = append(docs, fmt.Sprintf("(%d, '%s', %s)", id, title, lit(types.Compose(word, lang))))
	}
	load("CREATE TABLE doc (id INT, title TEXT, category UNITEXT)", docs)
	load("CREATE TABLE concept (id INT, word UNITEXT)", []string{
		"(0, unitext('history', english))", "(1, unitext('Music', english))",
		"(2, unitext('french:science', french))", "(3, unitext('entity', english))",
		"(4, unitext('tamil:art', tamil))", "(5, NULL)",
	})

	// The tables below serve the statements at the end of the corpus only,
	// so the plans and counts above do not depend on them.
	// The index tables hold the English and Tamil names of the first 1,000
	// generated: the two rarely share a phoneme, so a probe at k = 0 is
	// estimated at about one row and each metric index is priced below the
	// sequential scan.
	var indexed []string
	for i := 0; len(indexed) < 1000; i++ {
		if l := recs[i].Name.Lang; l == types.LangEnglish || l == types.LangTamil {
			indexed = append(indexed, names[i])
		}
	}
	for _, ix := range []string{"mtree", "mdi", "qgram"} {
		load("CREATE TABLE names_"+ix+" (id INT, name UNITEXT)", indexed)
		e.MustExec(fmt.Sprintf("CREATE INDEX names_%s_name ON names_%s (name) USING %s", ix, ix, strings.ToUpper(ix)))
	}
	load("CREATE TABLE names_btree (id INT, name UNITEXT)", indexed)
	e.MustExec("CREATE INDEX names_btree_id ON names_btree (id) USING BTREE")
	var pairs []string
	for i := 0; i < 300; i++ {
		alias := lit(recs[(i*7+i%3)%len(recs)].Name)
		if i%4 == 0 {
			alias = lit(recs[i+1].Name)
		}
		if i%50 == 0 {
			alias = "NULL"
		}
		pairs = append(pairs, fmt.Sprintf("(%d, %s, %s)", i, lit(recs[i].Name), alias))
	}
	load("CREATE TABLE pairs (id INT, name UNITEXT, alias UNITEXT)", pairs)
	var terms []string
	for id := 0; id < 300; id++ {
		syn := wordnet.SynsetID(rng.Intn(net.NumSynsets()))
		lang := langs[rng.Intn(len(langs))]
		word := net.Lemma(lang, syn)
		if id%7 == 0 {
			word = strings.ToUpper(word)
		}
		// The concept is an ancestor of the word's synset for two rows in
		// three, an unrelated synset for the rest.
		concept := wordnet.SynsetID(rng.Intn(net.NumSynsets()))
		if id%3 != 0 {
			concept = syn
			for d := rng.Intn(3); d > 0 && net.Parent(concept) != wordnet.NoSynset; d-- {
				concept = net.Parent(concept)
			}
		}
		cu := lit(types.Compose(net.Lemma(types.LangEnglish, concept), types.LangEnglish))
		if id%50 == 0 {
			cu = "NULL"
		}
		title := net.Lemma(types.LangEnglish, syn)
		if p := net.Parent(syn); p != wordnet.NoSynset {
			title = net.Lemma(types.LangEnglish, p)
		}
		terms = append(terms, fmt.Sprintf("(%d, %s, %s, '%s')", id, lit(types.Compose(word, lang)), cu, title))
	}
	// Two words whose text is not ASCII but folds to a word form: "K" is
	// the Kelvin sign, which strings.ToLower folds to "k".
	terms = append(terms, "(300, unitext('\u212Anowledge_domain', english), NULL, '\u212Anowledge_domain')",
		"(301, unitext('\u212ANOWLEDGE_DOMAIN', english), NULL, 'x')")
	load("CREATE TABLE terms (id INT, word UNITEXT, concept UNITEXT, title TEXT)", terms)
	return e
}
