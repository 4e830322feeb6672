package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/mural-db/mural/internal/dataset"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
	"github.com/mural-db/mural/mural"
)

// scale sizes the four fixtures. README.md gives the reason for each number
// of the full scale; smoke is what main_test.go runs.
type scale struct {
	scanNames  int // rows of psi_scan's names table
	joinNames  int // rows of psi_join's names table
	probes     int // rows of psi_join's probe table
	joinWindow int // probe rows one join statement covers
	synsets    int // synsets of omega_scan's taxonomy, in three languages
	docs       int // rows of omega_scan's doc table
	tcLo, tcHi int // closure sizes of the concepts omega_scan asks about
	taxRows    int // rows of the taxonomy table index.btree.closure_ms_tc1k walks
	oltpRows   int // rows of oltp_mixed's names table at set-up
	oltpFrames int // buffer pool frames oltp_mixed is reopened with
	oltpFresh  int // names held back for oltp_mixed's single-row INSERTs
	fresh      int // rows held back for the batch INSERTs of the other workloads
	batch      int // rows per INSERT on those workloads
	writeEvery int // on those workloads every writeEvery-th statement is an INSERT
	queries    int // distinct query names (psi_scan) and hot concepts (omega_scan)
	psiLookups int // distinct query names of oltp_mixed's Ψ lookups
	golden     bool
}

var fullScale = scale{
	scanNames: 100000, joinNames: 25000, probes: 256, joinWindow: 2,
	synsets: wordnet.WordNetSynsets, docs: 50000, tcLo: 100, tcHi: 10000, taxRows: 20000,
	oltpRows: 30000, oltpFrames: 96, oltpFresh: 60000,
	fresh: 45000, batch: 25, writeEvery: 3, queries: 64, psiLookups: 32, golden: true,
}

var smokeScale = scale{
	scanNames: 1000, joinNames: 1000, probes: 16, joinWindow: 2,
	synsets: 2000, docs: 1000, tcLo: 5, tcHi: 500, taxRows: 500,
	oltpRows: 1000, oltpFrames: 16, oltpFresh: 3000,
	fresh: 600, batch: 5, writeEvery: 3, queries: 8, psiLookups: 4,
}

// stmt is one statement of a workload with the check of its reply.
type stmt struct {
	sql string
	// rows is how many rows an INSERT must report; 0 marks a read.
	rows int64
	// check verifies the rows of a read against the oracle.
	check func(rows []types.Tuple) error
	// acked records an acknowledged INSERT.
	acked func()
}

// table is created and loaded at set-up.
type table struct {
	name, ddl string
	rows      []string // SQL value tuples
}

// Writers take disjoint thirds of a workload's INSERT statements.
const (
	partConn0 = iota
	partConn1
	partReplay
	parts
)

// workload is one prepared workload: generated inputs, the oracle's answers,
// and a deterministic statement stream per connection.
type workload struct {
	name   string
	conns  int
	seed   int64
	sc     scale
	disk   bool         // on disk with WAL, closed and reopened with sc.oltpFrames
	net    *wordnet.Net // taxonomy pinned in the engine
	tables []table
	index  string // CREATE INDEX statement run after the load
	// INSERTs go to sink, which holds sinkRows rows after set-up. oltp_mixed
	// inserts single rows into the table it reads; the other workloads
	// insert batches into a side table, so that the table their reads scan
	// stays as the oracle knows it.
	sink     string
	sinkRows int
	batch    int
	inserts  []insert
	// warm is how many statements of connection 0's stream cover the
	// distinct statement texts once.
	warm   int
	stream func(w *workload, conn int) func() stmt
	// acks[p] lists the INSERTs writer p had acknowledged, in order. Only
	// p's goroutine appends while statements are in flight.
	acks      [parts][]int
	exhausted bool
	// inputs and answers pin what the generators and the oracle produced.
	inputs, answers folder
	// tcRoot is a concept with |TC| near 1000 (omega_scan only).
	tcRoot wordnet.SynsetID
	// phonemes and g2pNames are the fixture's own data for the phonetic probes.
	phonemes []string
	g2pNames []types.UniText
}

// insert is one prepared INSERT statement and the size of the tuples in it.
type insert struct {
	sql       string
	userBytes int
}

// writer returns the INSERT stream of one part of the prepared INSERTs. A
// side table takes the same rows again when they run out; oltp_mixed needs
// fresh ids, so there ok turns false.
func (w *workload) writer(part int) func() (stmt, bool) {
	k := 0
	return func() (stmt, bool) {
		i := part + parts*k
		if i >= len(w.inserts) {
			if w.disk {
				w.exhausted = true
				return stmt{}, false
			}
			i %= len(w.inserts)
		}
		k++
		return stmt{sql: w.inserts[i].sql, rows: int64(w.batch), acked: func() { w.acks[part] = append(w.acks[part], i) }}, true
	}
}

func (w *workload) ackedRows() int {
	n := 0
	for _, a := range w.acks {
		n += len(a) * w.batch
	}
	return n
}

func (w *workload) ackedBytes() int64 {
	var n int64
	for _, a := range w.acks {
		for _, i := range a {
			n += int64(w.inserts[i].userBytes)
		}
	}
	return n
}

// batchInserts prepares the INSERTs of a read-only workload: sc.batch rows
// each, into the side table.
func (w *workload) batchInserts(ddl string, rows []string, bytes []int) {
	w.tables = append(w.tables, table{name: "inbox", ddl: ddl})
	w.sink, w.batch = "inbox", w.sc.batch
	for i := 0; i+w.batch <= len(rows); i += w.batch {
		n := 0
		for _, b := range bytes[i : i+w.batch] {
			n += b
		}
		w.inserts = append(w.inserts, insert{"INSERT INTO inbox VALUES " + strings.Join(rows[i:i+w.batch], ","), n})
	}
}

func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

func uniLit(u types.UniText) string { return fmt.Sprintf("unitext(%s, %s)", quote(u.Text), u.Lang) }

func nameRow(r dataset.NameRecord) string { return fmt.Sprintf("(%d, %s)", r.ID, uniLit(r.Name)) }

func nameTuple(r dataset.NameRecord) types.Tuple {
	return types.Tuple{types.NewInt(int64(r.ID)), types.NewUniText(r.Name)}
}

// nameBytes is the size of a names tuple as the user supplied it: the id, the
// text, its language, and the phoneme string the engine derives and stores.
func nameBytes(r dataset.NameRecord) int { return 8 + len(r.Name.Text) + 1 + len(r.Name.Phoneme) }

// cycle returns a stream that walks a seeded permutation of n items forever.
func cycle(rng *rand.Rand, n int) func() int {
	order := rng.Perm(n)
	i := -1
	return func() int {
		i++
		return order[i%n]
	}
}

// genNames generates a names table of initial rows plus held-back rows that
// the workload's INSERTs bring.
func (w *workload) genNames(initial, held int) []dataset.NameRecord {
	recs := dataset.GenerateNames(dataset.NamesConfig{Records: initial + held, Seed: w.seed, NoiseRate: -1})
	rows := make([]string, initial)
	for i, r := range recs {
		w.inputs.add(r.ID, r.Name.Text, r.Name.Lang, r.Name.Phoneme)
		if i < initial {
			rows[i] = nameRow(r)
			w.phonemes = append(w.phonemes, r.Name.Phoneme)
		}
	}
	w.tables = append(w.tables, table{"names", `CREATE TABLE names (id INT, name UNITEXT)`, rows})
	for _, r := range recs[initial : initial+min(held, 512)] {
		w.g2pNames = append(w.g2pNames, types.Compose(r.Name.Text, r.Name.Lang))
	}
	if !w.disk {
		var heldRows []string
		var heldBytes []int
		for _, r := range recs[initial:] {
			heldRows, heldBytes = append(heldRows, nameRow(r)), append(heldBytes, nameBytes(r))
		}
		w.batchInserts(`CREATE TABLE inbox (id INT, name UNITEXT)`, heldRows, heldBytes)
	}
	return recs
}

func phonemeRunes(recs []dataset.NameRecord) [][]rune {
	out := make([][]rune, len(recs))
	for i, r := range recs {
		out[i] = []rune(r.Name.Phoneme)
	}
	return out
}

// readMostly is the stream of a workload whose reads are a fixed set of
// statements: the first warm of them in order (the warm-up pass), then a
// seeded cyclic order over them all, with every sc.writeEvery-th statement a
// batch INSERT into the side table.
func readMostly(reads func(w *workload, conn int) func() stmt) func(w *workload, conn int) func() stmt {
	return func(w *workload, conn int) func() stmt {
		read, write := reads(w, conn), w.writer(conn)
		i := 0
		return func() stmt {
			if i++; i > w.warm && i%w.sc.writeEvery == 0 {
				s, _ := write()
				return s
			}
			return read()
		}
	}
}

// fixedReads visits stmts in order once, then in a seeded cyclic order.
func fixedReads(stmts []stmt) func(w *workload, conn int) func() stmt {
	return func(w *workload, conn int) func() stmt {
		next := cycle(rand.New(rand.NewSource(w.seed+int64(conn))), len(stmts))
		i := -1
		return func() stmt {
			if i++; i < len(stmts) {
				return stmts[i]
			}
			return stmts[next()]
		}
	}
}

func newPsiScan(seed int64, sc scale) *workload {
	w := &workload{name: "psi_scan", conns: 1, seed: seed, sc: sc}
	recs := w.genNames(sc.scanNames, sc.fresh)
	ph := phonemeRunes(recs[:sc.scanNames])
	rng := rand.New(rand.NewSource(seed))
	picks := rng.Perm(sc.scanNames)[:sc.queries]
	queries := make([][]rune, len(picks))
	for i, p := range picks {
		queries[i] = ph[p]
	}
	matches := psiMatches(queries, ph, 2)
	stmts := make([]stmt, len(picks))
	for i, p := range picks {
		var want answer
		for _, m := range matches[i] {
			want.add(nameTuple(recs[m]))
		}
		sql := fmt.Sprintf("SELECT id, name FROM names WHERE name LEXEQUAL %s THRESHOLD 2", uniLit(recs[p].Name))
		w.answers.add(sql, want.rows, want.sum)
		stmts[i] = stmt{sql: sql, check: wantAnswer(want)}
	}
	w.warm, w.stream = len(stmts), readMostly(fixedReads(stmts))
	return w
}

func newPsiJoin(seed int64, sc scale) *workload {
	w := &workload{name: "psi_join", conns: 1, seed: seed, sc: sc}
	recs := w.genNames(sc.joinNames, sc.fresh)
	ph := phonemeRunes(recs[:sc.joinNames])
	// Probe rows: English renderings of distinct clusters, as in the paper's
	// join of a small outer table with the names table.
	var probes []int
	seen := map[int]bool{}
	for i, r := range recs[:sc.joinNames] {
		if len(probes) == sc.probes {
			break
		}
		if r.Name.Lang == types.LangEnglish && !seen[r.Cluster] {
			seen[r.Cluster] = true
			probes = append(probes, i)
		}
	}
	prows := make([]string, len(probes))
	queries := make([][]rune, len(probes))
	for i, p := range probes {
		prows[i] = fmt.Sprintf("(%d, %s)", i, uniLit(recs[p].Name))
		queries[i] = ph[p]
	}
	w.tables = append(w.tables, table{"probe", `CREATE TABLE probe (id INT, name UNITEXT)`, prows})
	matches := psiMatches(queries, ph, 2)
	var stmts []stmt
	for lo := 0; lo+sc.joinWindow <= len(probes); lo += sc.joinWindow {
		var want answer
		for p := lo; p < lo+sc.joinWindow; p++ {
			for _, m := range matches[p] {
				want.add(types.Tuple{types.NewInt(int64(p)), types.NewInt(int64(recs[m].ID))})
			}
		}
		sql := fmt.Sprintf("SELECT p.id, n.id FROM probe p, names n WHERE p.id >= %d AND p.id < %d AND p.name LEXEQUAL n.name THRESHOLD 2", lo, lo+sc.joinWindow)
		w.answers.add(sql, want.rows, want.sum)
		stmts = append(stmts, stmt{sql: sql, check: wantAnswer(want)})
	}
	w.warm, w.stream = len(stmts), readMostly(fixedReads(stmts))
	return w
}

var omegaLangs = []types.LangID{types.LangEnglish, types.LangFrench, types.LangTamil}

func newOmegaScan(seed int64, sc scale) *workload {
	w := &workload{name: "omega_scan", conns: 1, seed: seed, sc: sc}
	net := mural.GenerateWordNet(mural.WordNetConfig{Synsets: sc.synsets, Seed: seed, Langs: omegaLangs})
	w.net = net
	for id := 0; id < net.NumSynsets(); id++ {
		w.inputs.add(net.Parent(wordnet.SynsetID(id)), net.Lemma(types.LangEnglish, wordnet.SynsetID(id)))
	}
	rng := rand.New(rand.NewSource(seed))
	cats := make([]types.UniText, sc.docs+sc.fresh)
	rows := make([]string, len(cats))
	bytes := make([]int, len(cats))
	for i := range cats {
		lang := omegaLangs[rng.Intn(len(omegaLangs))]
		syn := wordnet.SynsetID(rng.Intn(net.NumSynsets()))
		cats[i] = types.Compose(net.Lemma(lang, syn), lang)
		w.inputs.add(i, cats[i].Text, lang)
		title := fmt.Sprintf("doc %d", i)
		rows[i] = fmt.Sprintf("(%d, %s, %s)", i, quote(title), uniLit(cats[i]))
		bytes[i] = 8 + len(title) + len(cats[i].Text) + 1
	}
	w.tables = []table{{"doc", `CREATE TABLE doc (id INT, title TEXT, category UNITEXT)`, rows[:sc.docs]}}
	w.batchInserts(`CREATE TABLE inbox (id INT, title TEXT, category UNITEXT)`, rows[sc.docs:], bytes[sc.docs:])

	// Concepts: every synset whose closure size is on Fig. 8's axis. The hot
	// ones are spread evenly over that axis and recur; the others are asked
	// once each, so their closure is not yet in the cache.
	var cands []wordnet.SynsetID
	for id := 0; id < net.NumSynsets(); id++ {
		if s := net.ClosureSize(wordnet.SynsetID(id)); s >= sc.tcLo && s <= sc.tcHi {
			cands = append(cands, wordnet.SynsetID(id))
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return net.ClosureSize(cands[i]) < net.ClosureSize(cands[j]) })
	nHot := min(sc.queries, len(cands)/2)
	isHot := make(map[wordnet.SynsetID]bool, nHot)
	var hot, cold []wordnet.SynsetID
	off := rng.Intn(len(cands) / nHot)
	for i := 0; i < nHot; i++ {
		c := cands[off+i*len(cands)/nHot]
		isHot[c] = true
		hot = append(hot, c)
	}
	for _, c := range cands {
		if !isHot[c] {
			cold = append(cold, c)
		}
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	w.tcRoot = net.FindClosureOfSize(1000)

	// Oracle: a document matches a concept when one of its category's
	// synsets has one of the concept word's synsets among its ancestors,
	// found by walking parent pointers up from the document.
	concepts := append(append([]wordnet.SynsetID(nil), hot...), cold...)
	askedBy := make(map[wordnet.SynsetID][]int) // synset → concepts whose English word names it
	for ci, c := range concepts {
		for _, root := range net.SynsetsOf(types.LangEnglish, net.Lemma(types.LangEnglish, c)) {
			askedBy[root] = append(askedBy[root], ci)
		}
	}
	want := make([]answer, len(concepts))
	last := make([]int, len(concepts))
	for i := range last {
		last[i] = -1
	}
	for d := 0; d < sc.docs; d++ {
		row := types.Tuple{types.NewInt(int64(d))}
		for _, s := range net.SynsetsOf(cats[d].Lang, cats[d].Text) {
			for a := s; a != wordnet.NoSynset; a = net.Parent(a) {
				for _, ci := range askedBy[a] {
					if last[ci] != d {
						last[ci] = d
						want[ci].add(row)
					}
				}
			}
		}
	}
	stmts := make([]stmt, len(concepts))
	for ci, c := range concepts {
		sql := fmt.Sprintf("SELECT id FROM doc WHERE category SEMEQUAL %s IN english, french, tamil", quote(net.Lemma(types.LangEnglish, c)))
		w.answers.add(sql, want[ci].rows, want[ci].sum)
		stmts[ci] = stmt{sql: sql, check: wantAnswer(want[ci])}
	}
	w.warm = nHot
	w.stream = readMostly(func(w *workload, conn int) func() stmt {
		nextHot := fixedReads(stmts[:nHot])(w, conn)
		i, c := 0, conn*len(cold)/2
		return func() stmt {
			// After the warm-up pass over the hot concepts, every fourth
			// read asks about a concept for the first time.
			if i++; i > nHot && i%4 == 0 && len(cold) > 0 {
				c++
				return stmts[nHot+c%len(cold)]
			}
			return nextHot()
		}
	})
	return w
}

func newOLTPMixed(seed int64, sc scale) *workload {
	w := &workload{name: "oltp_mixed", conns: 2, seed: seed, sc: sc, disk: true,
		index: `CREATE INDEX idx_names_id ON names (id) USING BTREE`}
	recs := w.genNames(sc.oltpRows, sc.oltpFresh)
	ph := phonemeRunes(recs)
	initial := sc.oltpRows
	w.sink, w.sinkRows, w.batch = "names", initial, 1
	for _, r := range recs[initial:] {
		w.inserts = append(w.inserts, insert{"INSERT INTO names VALUES " + nameRow(r), nameBytes(r)})
	}

	// Ψ lookups at threshold 1 over a small set of query names. The oracle
	// knows the matches among the rows loaded at set-up, and which of the
	// held-back rows match once they are inserted.
	rng := rand.New(rand.NewSource(seed))
	picks := rng.Perm(initial)[:sc.psiLookups]
	queries := make([][]rune, len(picks))
	for i, p := range picks {
		queries[i] = ph[p]
	}
	matches := psiMatches(queries, ph, 1)
	type lookup struct {
		sql    string
		loaded answer // the matches among the rows loaded at set-up
		held   []int  // the INSERTs whose row matches, ascending
	}
	lookups := make([]lookup, len(picks))
	for i, p := range picks {
		l := lookup{sql: fmt.Sprintf("SELECT id FROM names WHERE name LEXEQUAL %s THRESHOLD 1", uniLit(recs[p].Name))}
		for _, m := range matches[i] {
			if m < initial {
				l.loaded.add(types.Tuple{types.NewInt(int64(m))})
			} else {
				l.held = append(l.held, m-initial)
			}
		}
		w.answers.add(l.sql, l.loaded.rows, l.loaded.sum, len(l.held))
		lookups[i] = l
	}

	checkLookup := func(l lookup, conn, ownAcked int) func([]types.Tuple) error {
		return func(rows []types.Tuple) error {
			var got answer
			seen := make(map[int]bool)
			for _, t := range rows {
				id := int(t[0].Int())
				if id < initial {
					got.add(t)
					continue
				}
				i := sort.SearchInts(l.held, id-initial)
				if i == len(l.held) || l.held[i] != id-initial {
					return fmt.Errorf("row id %d is not within 1 edit of the query", id)
				}
				seen[id-initial] = true
			}
			if got != l.loaded {
				return fmt.Errorf("got %d of the loaded rows (digest %016x), oracle says %d (digest %016x)", got.rows, got.sum, l.loaded.rows, l.loaded.sum)
			}
			// Read your writes: every matching row this connection had
			// acknowledged before the lookup must be in the reply.
			for _, h := range l.held {
				if h%parts == conn && h/parts < ownAcked && !seen[h] {
					return fmt.Errorf("row id %d, inserted earlier on this connection, is missing", initial+h)
				}
			}
			return nil
		}
	}

	w.stream = func(w *workload, conn int) func() stmt {
		rng := rand.New(rand.NewSource(seed*7919 + int64(conn)))
		write := w.writer(conn)
		return func() stmt {
			r := rng.Intn(10)
			if r >= 7 {
				if s, ok := write(); ok {
					return s
				}
				r = 0
			}
			own := w.acks[conn]
			if r == 6 {
				l := lookups[rng.Intn(len(lookups))]
				return stmt{sql: l.sql, check: checkLookup(l, conn, len(own))}
			}
			id := rng.Intn(initial + len(own))
			if id >= initial {
				id = initial + own[id-initial]
			}
			want := digestRows([]types.Tuple{nameTuple(recs[id])})
			return stmt{sql: fmt.Sprintf("SELECT id, name FROM names WHERE id = %d", id), check: wantAnswer(want)}
		}
	}
	// Pin the shape of the stream too: the first statements of a connection
	// that has had nothing acknowledged.
	next := w.stream(w, partConn0)
	for i := 0; i < 200; i++ {
		w.answers.add(next().sql)
	}
	w.warm = 200
	return w
}

var builders = map[string]func(seed int64, sc scale) *workload{
	"psi_scan":   newPsiScan,
	"psi_join":   newPsiJoin,
	"omega_scan": newOmegaScan,
	"oltp_mixed": newOLTPMixed,
}
