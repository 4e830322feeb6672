// Semsearch: concept search over an interlinked multilingual taxonomy —
// the SemEQUAL workload of the paper's Figure 4 at scale. A document table
// is categorized with word forms from three linked WordNets; queries
// retrieve everything subsumed by a concept, across languages, each scan
// resolving its concept once against the taxonomy's interval labels.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"github.com/mural-db/mural/mural"
)

func main() {
	langs := []mural.LangID{mural.LangEnglish, mural.LangFrench, mural.LangTamil}
	net := mural.GenerateWordNet(mural.WordNetConfig{Synsets: 20000, Seed: 11, Langs: langs})
	db, err := mural.Open(mural.Config{WordNet: net})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	fmt.Printf("taxonomy: %d synsets, %d relations, max depth %d, avg depth %.1f\n",
		net.NumSynsets(), net.NumRelations(), net.MaxDepth(), net.AvgDepth())

	// Documents categorized by random taxonomy concepts in random languages.
	db.MustExec(`CREATE TABLE doc (id INT, title TEXT, category UNITEXT)`)
	rng := rand.New(rand.NewSource(3))
	var rows []string
	for i := 0; i < 5000; i++ {
		lang := langs[rng.Intn(len(langs))]
		syn := mural.SynsetID(rng.Intn(net.NumSynsets()))
		lemma := net.Lemma(lang, syn)
		rows = append(rows, fmt.Sprintf("(%d, 'doc %d', unitext('%s', %s))",
			i, i, strings.ReplaceAll(lemma, "'", "''"), lang))
		if len(rows) == 500 {
			db.MustExec(`INSERT INTO doc VALUES ` + strings.Join(rows, ","))
			rows = rows[:0]
		}
	}
	db.MustExec(`ANALYZE doc`)

	for _, concept := range []string{"history", "science", "art", "discipline"} {
		syns := net.SynsetsOf(mural.LangEnglish, concept)
		closure := net.ClosureSize(syns[0])
		res, err := db.Exec(fmt.Sprintf(`SELECT count(*) FROM doc
			WHERE category SEMEQUAL '%s' IN english, french, tamil`, concept))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("concept %-12q |TC|=%-6d matching docs: %-5v (%.2fms, %d Ω probes)\n",
			concept, closure, res.Rows[0][0],
			float64(res.Elapsed.Microseconds())/1000, res.Stats.OmegaProbes)
	}

	// Per-language breakdown for one concept: the IN clause restricts the
	// result to the requested output languages.
	fmt.Println("\nper-language results for 'science':")
	for _, lang := range langs {
		res, err := db.Exec(fmt.Sprintf(
			`SELECT count(*) FROM doc WHERE category SEMEQUAL 'science' IN %s`, lang))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8v %v docs\n", lang, res.Rows[0][0])
	}

	// An Ω join: which docs fall under which top-level discipline?
	db.MustExec(`CREATE TABLE discipline (did INT, name UNITEXT)`)
	db.MustExec(`INSERT INTO discipline VALUES
		(1, unitext('history', english)),
		(2, unitext('science', english)),
		(3, unitext('art', english))`)
	res, err := db.Exec(`SELECT text(d.name), count(*) FROM discipline d, doc
		WHERE doc.category SEMEQUAL d.name
		GROUP BY text(d.name) ORDER BY text(d.name)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nΩ join — docs per discipline:")
	for _, row := range res.Rows {
		fmt.Printf("  %-10v %v\n", row[0], row[1])
	}
}
