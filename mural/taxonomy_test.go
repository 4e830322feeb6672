package mural

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

var taxLangs = []types.LangID{types.LangEnglish, types.LangFrench, types.LangTamil}

func taxNet(seed int64) *wordnet.Net {
	return wordnet.Generate(wordnet.Config{Synsets: 2000, Seed: seed, Langs: taxLangs})
}

// taxRows inserts n documents from id on: word forms of net in its
// languages, some upper-cased, some in Hindi (which net lacks), unknown
// words and NULLs, and records each row's value in docs by id.
func taxRows(t *testing.T, e *Engine, net *wordnet.Net, rng *rand.Rand, from, n int, docs map[int64]types.Value) {
	t.Helper()
	for id := from; id < from+n; id++ {
		lang := append(taxLangs, types.LangHindi)[rng.Intn(4)]
		text := net.Lemma(types.LangEnglish, wordnet.SynsetID(rng.Intn(60)))
		if lang != types.LangHindi {
			text = net.Lemma(lang, wordnet.SynsetID(rng.Intn(net.NumSynsets())))
		}
		switch rng.Intn(8) {
		case 0:
			text = strings.ToUpper(text[:1]) + text[1:]
		case 1:
			text = "zorkmid"
		}
		v, lit := types.NewUniText(types.Compose(text, lang)), fmt.Sprintf("unitext('%s', %s)", text, lang)
		if rng.Intn(10) == 0 {
			v, lit = types.Null(), "NULL"
		}
		docs[int64(id)] = v
		e.MustExec(fmt.Sprintf("INSERT INTO doc VALUES (%d, %s)", id, lit))
	}
}

// taxQueries are Ω scans of doc: the fused scan with the constant on either
// side and an IN list, an unknown constant, and the generic filter (a
// conjunct keeps it from fusing).
var taxQueries = []struct {
	sql     string
	concept string
	left    bool
	langs   []types.LangID
}{
	{"SELECT id FROM doc WHERE cat SEMEQUAL 'history'", "history", false, nil},
	{"SELECT id FROM doc WHERE cat SEMEQUAL 'History' IN english, tamil", "history", false, []types.LangID{types.LangEnglish, types.LangTamil}},
	{"SELECT id FROM doc WHERE cat SEMEQUAL 'entity'", "entity", false, nil},
	{"SELECT id FROM doc WHERE 'discipline' SEMEQUAL cat", "discipline", true, nil},
	{"SELECT id FROM doc WHERE cat SEMEQUAL 'zorkmid'", "zorkmid", false, nil},
	{"SELECT id FROM doc WHERE cat SEMEQUAL 'science' AND id >= 0", "science", false, nil},
}

// taxWant is the answer of query q over docs by the parent-pointer walk.
func taxWant(net *wordnet.Net, docs map[int64]types.Value, q int) []int64 {
	c := taxQueries[q]
	var ids []int64
	for id, v := range docs {
		if v.IsNull() {
			continue
		}
		u := v.UniText()
		lhs, rhs := net.SynsetsOf(u.Lang, u.Text), net.SynsetsOf(types.LangEnglish, c.concept)
		if c.left {
			lhs, rhs = rhs, lhs
		} else if len(c.langs) > 0 && !slices.Contains(c.langs, u.Lang) {
			continue
		}
		found := false
		for _, s := range lhs {
			for _, r := range rhs {
				found = found || net.IsDescendant(s, r)
			}
		}
		if found {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// taxCheck runs every query on e, under net, against the walk.
func taxCheck(t *testing.T, e *Engine, net *wordnet.Net, docs map[int64]types.Value) {
	t.Helper()
	matched := 0
	for q, c := range taxQueries {
		res, err := e.Exec(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var got []int64
		for _, row := range res.Rows {
			got = append(got, row[0].Int())
		}
		slices.Sort(got)
		if want := taxWant(net, docs, q); !slices.Equal(got, want) {
			t.Fatalf("%s: %v, the walk says %v", c.sql, got, want)
		}
		matched += len(got)
	}
	if matched == 0 {
		t.Fatal("no query matched a row")
	}
}

// slotLabels is the Ω label in the slot of each live row of doc, by id.
func slotLabels(t *testing.T, e *Engine) map[int64]uint32 {
	t.Helper()
	np, err := e.TablePages("doc")
	if err != nil {
		t.Fatal(err)
	}
	scan, err := e.ScanRecords("doc", 0, np)
	if err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	labels := map[int64]uint32{}
	for more := true; more; {
		if more, err = scan.NextPage(func(pg storage.Page) error {
			for i := range pg.Len() {
				keys, live := pg.Keys(i)
				rec, _ := pg.Record(i)
				if !live {
					continue
				}
				row, _, err := types.DecodeTuple(rec)
				if err != nil {
					return err
				}
				if _, k, ok := types.SlotKeys(keys); ok {
					labels[row[0].Int()] = k.Label
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return labels
}

// A database pins the first taxonomy an Open supplies: reopening it with
// another fails with ErrTaxonomy, after a clean Close and after a crash whose
// log alone holds the pin, and leaves the database as it was, so the pinned
// taxonomy still opens it to the same answers.
func TestReopenWithAnotherTaxonomyFails(t *testing.T) {
	netA, netB := taxNet(1), taxNet(2)
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			dir := t.TempDir()
			h := newCrashHarness(-1)
			cfg := h.config(dir)
			cfg.WordNet = netA
			cfg.CheckpointBytes = 64 << 20 // keep everything in the log
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e.MustExec(`CREATE TABLE doc (id INT, cat UNITEXT)`)
			docs := map[int64]types.Value{}
			taxRows(t, e, netA, rand.New(rand.NewSource(1)), 0, 300, docs)
			taxCheck(t, e, netA, docs)
			if crash {
				h.abandon()
			} else if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err := Open(Config{Dir: dir, WordNet: netB}); !errors.Is(err, ErrTaxonomy) {
				if err == nil {
					e.Close()
				}
				t.Fatalf("Open with another taxonomy = %v, want ErrTaxonomy", err)
			}
			e, err = Open(Config{Dir: dir, WordNet: netA})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			taxCheck(t, e, netA, docs)
		})
	}
}

// An Open without a taxonomy is allowed, leaves Ω disabled and writes its
// rows Unlabelled; a taxonomy supplied later is pinned, labels the rows
// written under it and answers over both kinds by the walk, and a reopen
// without one and then with the same one again keeps every answer.
func TestTaxonomyNoneThenSomeThenSame(t *testing.T) {
	dir := t.TempDir()
	net := taxNet(1)
	rng := rand.New(rand.NewSource(2))
	docs := map[int64]types.Value{}
	open := func(net *wordnet.Net) *Engine {
		t.Helper()
		e, err := Open(Config{Dir: dir, WordNet: net})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	closeEngine := func(e *Engine) {
		t.Helper()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// requireLabels checks that the rows unlabelled picks are Unlabelled
	// and every other row is labelled under net.
	requireLabels := func(e *Engine, unlabelled func(id int64) bool) {
		t.Helper()
		labels, n := slotLabels(t, e), 0
		for id, v := range docs {
			if v.IsNull() {
				continue
			}
			u, want := v.UniText(), types.Unlabelled
			if !unlabelled(id) {
				want = net.Label(u.Lang, u.Text)
			}
			if labels[id] != want {
				t.Fatalf("row %d (%q/%s): slot label %#x, want %#x", id, u.Text, u.Lang, labels[id], want)
			}
			if want < types.NoSynsets {
				n++
			}
		}
		if n == 0 {
			t.Fatal("no row holds a synset's label")
		}
	}

	e := open(nil)
	e.MustExec(`CREATE TABLE doc (id INT, cat UNITEXT)`)
	taxRows(t, e, net, rng, 0, 200, docs)
	if _, err := e.Exec(taxQueries[0].sql); err == nil || !strings.Contains(err.Error(), "requires a loaded taxonomy") {
		t.Fatalf("Ω without a taxonomy: %v", err)
	}
	closeEngine(e)

	e = open(net)
	taxRows(t, e, net, rng, 200, 200, docs)
	requireLabels(e, func(id int64) bool { return id < 200 })
	taxCheck(t, e, net, docs)
	closeEngine(e)

	e = open(nil)
	if _, err := e.Exec(taxQueries[0].sql); err == nil || !strings.Contains(err.Error(), "requires a loaded taxonomy") {
		t.Fatalf("Ω without a taxonomy: %v", err)
	}
	taxRows(t, e, net, rng, 400, 200, docs)
	closeEngine(e)

	e = open(net)
	defer e.Close()
	requireLabels(e, func(id int64) bool { return id < 200 || id >= 400 })
	taxCheck(t, e, net, docs)
	if e, err := Open(Config{Dir: t.TempDir(), WordNet: taxNet(2)}); err != nil {
		t.Fatalf("a fresh database must take any taxonomy: %v", err)
	} else {
		closeEngine(e)
	}
}
