package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mural-db/mural/internal/index/mtree"
	"github.com/mural-db/mural/internal/phonetic"
	"github.com/mural-db/mural/internal/storage"
	"github.com/mural-db/mural/internal/types"
	"github.com/mural-db/mural/internal/wordnet"
)

// AblationMTreeSplitResult compares the paper's random split (§4.2.1,
// chosen for "the best index modification time") against the expensive
// mM-RAD split.
type AblationMTreeSplitResult struct {
	Policy         string
	BuildSec       float64
	AvgSearchPages float64
	IndexPages     int
}

// RunAblationMTreeSplit builds an M-Tree with each policy over the same
// phoneme corpus and reports build time and pruning efficiency.
func RunAblationMTreeSplit(names, queries, threshold int, seed int64) ([]AblationMTreeSplitResult, error) {
	recs := genPhonemes(names, seed)
	queryPh := genPhonemes(queries, seed+1)
	var out []AblationMTreeSplitResult
	for _, policy := range []mtree.SplitPolicy{mtree.SplitRandom, mtree.SplitMinMaxRadius} {
		pool := storage.NewPool(4096)
		pool.AttachDisk(1, storage.NewMemDisk())
		ix, err := mtree.Create(pool, 1, policy)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for i, ph := range recs {
			if err := ix.Insert(ph, storage.RID{Page: storage.PageID(i/100 + 1), Slot: uint16(i % 100)}); err != nil {
				return nil, err
			}
		}
		buildSec := time.Since(start).Seconds()
		totalPages := 0
		for _, q := range queryPh {
			_, pages, err := ix.RangeSearch(q, threshold)
			if err != nil {
				return nil, err
			}
			totalPages += pages
		}
		np, err := ix.NumPages()
		if err != nil {
			return nil, err
		}
		out = append(out, AblationMTreeSplitResult{
			Policy:         policy.String(),
			BuildSec:       buildSec,
			AvgSearchPages: float64(totalPages) / float64(len(queryPh)),
			IndexPages:     int(np),
		})
	}
	return out, nil
}

// AblationClosureCacheResult quantifies §4.3's hash-table memoization: the
// same Ω probe workload with and without the closure cache, and with the
// cache-hostile LHS-outer evaluation order.
type AblationClosureCacheResult struct {
	Mode    string
	Seconds float64
	Probes  int
}

// closureCache is §4.3's strategy as the paper states it: a closure is
// materialized as a hash table the first time its root is seen and reused
// after. The engine runs Ω on interval labels; the ablations measure it
// against this.
type closureCache map[wordnet.SynsetID]map[wordnet.SynsetID]struct{}

func (c closureCache) get(net *wordnet.Net, root wordnet.SynsetID) map[wordnet.SynsetID]struct{} {
	if _, ok := c[root]; !ok {
		c[root] = net.Closure(root)
	}
	return c[root]
}

// omegaBy evaluates Ω(lhs, rhs) (no IN clause) on the closures closure
// hands it.
func omegaBy(net *wordnet.Net, lhs, rhs types.UniText, closure func(wordnet.SynsetID) map[wordnet.SynsetID]struct{}) bool {
	for _, root := range net.SynsetsOf(rhs.Lang, rhs.Text) {
		c := closure(root)
		for _, s := range net.SynsetsOf(lhs.Lang, lhs.Text) {
			if _, ok := c[s]; ok {
				return true
			}
		}
	}
	return false
}

// RunAblationClosureCache probes N (lhs, rhs) pairs drawn from a small set
// of distinct RHS concepts — the join shape the RHS-outer optimization
// targets.
func RunAblationClosureCache(synsets, probes, distinctRHS int, seed int64) ([]AblationClosureCacheResult, error) {
	net := wordnet.Generate(wordnet.Config{Synsets: synsets, Seed: seed})
	rng := rand.New(rand.NewSource(seed))

	// RHS concepts: nodes with mid-size closures; LHS values: random words.
	var rhs []types.UniText
	for i := 0; i < distinctRHS; i++ {
		id := net.FindClosureOfSize(200 + 150*i)
		rhs = append(rhs, types.Compose(net.Lemma(types.LangEnglish, id), types.LangEnglish))
	}
	var lhs []types.UniText
	for i := 0; i < probes; i++ {
		id := wordnet.SynsetID(rng.Intn(net.NumSynsets()))
		lhs = append(lhs, types.Compose(net.Lemma(types.LangEnglish, id), types.LangEnglish))
	}

	var out []AblationClosureCacheResult

	cache := closureCache{}
	cached := func(root wordnet.SynsetID) map[wordnet.SynsetID]struct{} { return cache.get(net, root) }
	start := time.Now()
	count := 0
	for i, l := range lhs {
		if omegaBy(net, l, rhs[i%len(rhs)], cached) {
			count++
		}
	}
	out = append(out, AblationClosureCacheResult{Mode: "cached (RHS-outer)", Seconds: time.Since(start).Seconds(), Probes: len(lhs)})

	start = time.Now()
	count2 := 0
	for i, l := range lhs {
		if omegaBy(net, l, rhs[i%len(rhs)], net.Closure) { // recomputed every call
			count2++
		}
	}
	out = append(out, AblationClosureCacheResult{Mode: "no cache (recompute)", Seconds: time.Since(start).Seconds(), Probes: len(lhs)})
	if count != count2 {
		panic("ablation: cache changed Ω results")
	}
	return out, nil
}

// AblationEditDistanceResult compares the full DP against the banded
// (diagonal-transition style) computation the paper's cost models assume.
type AblationEditDistanceResult struct {
	Algorithm string
	Seconds   float64
	Matches   int
}

// RunAblationEditDistance measures both algorithms over an all-pairs name
// workload.
func RunAblationEditDistance(names, threshold int, seed int64) ([]AblationEditDistanceResult, error) {
	phs := genPhonemes(names, seed)
	var out []AblationEditDistanceResult

	start := time.Now()
	matches := 0
	for i := range phs {
		for j := i + 1; j < len(phs); j++ {
			if phonetic.EditDistance(phs[i], phs[j]) <= threshold {
				matches++
			}
		}
	}
	out = append(out, AblationEditDistanceResult{Algorithm: "full-dp", Seconds: time.Since(start).Seconds(), Matches: matches})

	start = time.Now()
	matches2 := 0
	for i := range phs {
		for j := i + 1; j < len(phs); j++ {
			if phonetic.WithinDistance(phs[i], phs[j], threshold) {
				matches2++
			}
		}
	}
	out = append(out, AblationEditDistanceResult{Algorithm: "banded", Seconds: time.Since(start).Seconds(), Matches: matches2})
	if matches != matches2 {
		panic("ablation: banded edit distance disagrees with full DP")
	}
	return out, nil
}

// genPhonemes produces a deterministic phoneme corpus shaped like the name
// workload.
func genPhonemes(n int, seed int64) []string {
	bases := []string{"nehru", "gandi", "aʃok", "kamala", "kriʃnan", "lakʃmi",
		"patel", "ʃarma", "redi", "menon", "varma", "ʧandra", "prakaʃ", "mohan"}
	alphabet := []rune("aeiouknrstmplʃʧʤgdbvjh")
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for len(out) < n {
		b := []rune(bases[rng.Intn(len(bases))])
		for e := rng.Intn(3); e > 0; e-- {
			switch rng.Intn(3) {
			case 0:
				b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
			case 1:
				pos := rng.Intn(len(b) + 1)
				b = append(b[:pos], append([]rune{alphabet[rng.Intn(len(alphabet))]}, b[pos:]...)...)
			default:
				if len(b) > 2 {
					pos := rng.Intn(len(b))
					b = append(b[:pos], b[pos+1:]...)
				}
			}
		}
		out = append(out, string(b))
	}
	return out
}

// AblationClosureIndexResult compares the three closure-processing
// strategies on the same membership workload: per-query traversal, the
// §4.3 hash-table memoization, and the §4.3.1 future-work connection index
// (interval labeling, the tree specialization of the Hopi 2-hop cover).
type AblationClosureIndexResult struct {
	Mode     string
	BuildSec float64
	QuerySec float64
	Probes   int
}

// RunAblationClosureIndex measures membership probes against distinct roots.
func RunAblationClosureIndex(synsets, probes, distinctRHS int, seed int64) ([]AblationClosureIndexResult, error) {
	net := wordnet.Generate(wordnet.Config{Synsets: synsets, Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	roots := make([]wordnet.SynsetID, distinctRHS)
	for i := range roots {
		roots[i] = net.FindClosureOfSize(150 + 200*i)
	}
	nodes := make([]wordnet.SynsetID, probes)
	for i := range nodes {
		nodes[i] = wordnet.SynsetID(rng.Intn(net.NumSynsets()))
	}
	var out []AblationClosureIndexResult

	// Traversal per probe (IsDescendant walks parent pointers).
	start := time.Now()
	c0 := 0
	for i, n := range nodes {
		if net.IsDescendant(n, roots[i%len(roots)]) {
			c0++
		}
	}
	out = append(out, AblationClosureIndexResult{Mode: "traverse (no cache)", QuerySec: time.Since(start).Seconds(), Probes: probes})

	// Hash-table memoization (§4.3).
	cache := closureCache{}
	start = time.Now()
	c1 := 0
	for i, n := range nodes {
		if _, ok := cache.get(net, roots[i%len(roots)])[n]; ok {
			c1++
		}
	}
	out = append(out, AblationClosureIndexResult{Mode: "hash cache (§4.3)", QuerySec: time.Since(start).Seconds(), Probes: probes})

	// Interval connection index (§4.3.1 future work): the labels every Net
	// carries and Ω runs on, rebuilt here to time the build.
	start = time.Now()
	ix := wordnet.NewIntervalIndex(net)
	build := time.Since(start).Seconds()
	start = time.Now()
	c2 := 0
	for i, n := range nodes {
		if ix.Contains(n, roots[i%len(roots)]) {
			c2++
		}
	}
	out = append(out, AblationClosureIndexResult{Mode: "interval index (§4.3.1)", BuildSec: build, QuerySec: time.Since(start).Seconds(), Probes: probes})
	if c0 != c1 || c1 != c2 {
		panic("ablation: closure strategies disagree")
	}
	return out, nil
}

// AblationPsiIndexResult compares every Ψ access path on the same scan
// workload: the alternate-index exploration the paper's conclusion plans
// ("we plan to experiment with alternate index structures").
type AblationPsiIndexResult struct {
	Path      string
	Threshold int
	AvgSec    float64
	Matches   int64
}

// RunAblationPsiIndexes measures seqscan, M-Tree, MDI and q-gram paths at
// several thresholds over one names table, by toggling the optimizer
// switches so each path is the only metric option.
func RunAblationPsiIndexes(names int, seed int64) ([]AblationPsiIndexResult, error) {
	db, err := NewNamesDB(NamesConfig{Names: names, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if _, err := db.Eng.Exec(`CREATE INDEX idx_names_qgram ON names (name) USING QGRAM`); err != nil {
		return nil, err
	}
	if _, err := db.Eng.Exec(`ANALYZE names`); err != nil {
		return nil, err
	}
	queries := db.Queries
	if len(queries) > 5 {
		queries = queries[:5]
	}
	paths := []struct {
		name     string
		settings map[string]string
	}{
		{"seqscan", map[string]string{"enable_mtree": "off", "enable_mdi": "off", "enable_qgram": "off"}},
		{"mtree", map[string]string{"enable_mtree": "on", "enable_mdi": "off", "enable_qgram": "off"}},
		{"mdi", map[string]string{"enable_mtree": "off", "enable_mdi": "on", "enable_qgram": "off"}},
		{"qgram", map[string]string{"enable_mtree": "off", "enable_mdi": "off", "enable_qgram": "on"}},
	}
	var out []AblationPsiIndexResult
	for _, k := range []int{1, 2, 3} {
		for _, path := range paths {
			for name, val := range path.settings {
				if _, err := db.Eng.Exec("SET " + name + " = " + val); err != nil {
					return nil, err
				}
			}
			var total time.Duration
			var matches int64
			for _, q := range queries {
				sqlq := fmt.Sprintf(`SELECT count(*) FROM names WHERE name LEXEQUAL %s THRESHOLD %d`, quote(q.Text), k)
				// Warm once, then measure.
				if _, err := db.Eng.Exec(sqlq); err != nil {
					return nil, err
				}
				res, err := db.Eng.Exec(sqlq)
				if err != nil {
					return nil, err
				}
				total += res.Elapsed
				matches += res.Rows[0][0].Int()
			}
			out = append(out, AblationPsiIndexResult{
				Path: path.name, Threshold: k,
				AvgSec:  total.Seconds() / float64(len(queries)),
				Matches: matches,
			})
		}
	}
	// Every path must agree on every threshold.
	byK := map[int]int64{}
	for _, r := range out {
		if prev, ok := byK[r.Threshold]; ok && prev != r.Matches {
			return out, fmt.Errorf("bench: access paths disagree at k=%d: %d vs %d", r.Threshold, prev, r.Matches)
		}
		byK[r.Threshold] = r.Matches
	}
	return out, nil
}
