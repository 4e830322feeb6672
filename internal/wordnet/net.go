// Package wordnet provides the taxonomic substrate for the SemEQUAL (Ω)
// operator: an interlinked multilingual noun hierarchy in the shape of the
// Princeton WordNet, a deterministic synthetic generator calibrated to the
// structural statistics the paper reports (§5.1: ~146K word forms, ~111K
// synsets, ~283K relations, ~16 MB for the English noun hierarchy), and the
// closure machinery Ω runs on: DFS interval labels computed once per Net
// (the connection index of the paper's §4.3.1 future work), and Probe, an Ω
// predicate compiled once per statement against its constant operand.
//
// The paper itself simulates non-English WordNets by replicating the
// English hierarchy and adding equivalence links between corresponding
// synsets; this package uses the same methodology one level further down
// (the Princeton data files cannot ship in an offline module): a shared
// tree structure with per-language word-form tables, where synset IDs act
// as the cross-language equivalence links.
package wordnet

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"github.com/mural-db/mural/internal/types"
)

// SynsetID identifies a synset. IDs are language-independent: the synset
// with ID x in Tamil is the equivalence-linked counterpart of synset x in
// English (the paper's replication methodology).
type SynsetID int32

// NoSynset marks the absence of a synset (the parent of a root).
const NoSynset = SynsetID(-1)

// Net is an interlinked multilingual taxonomy: one shared hypernym tree
// plus per-language word-form tables.
type Net struct {
	parent []SynsetID
	depth  []int32
	// forms[lang] holds the word forms of every synset in that language.
	forms map[types.LangID]*wordForms
	langs []types.LangID
	ix    *IntervalIndex // the tree's DFS interval labels (interval.go)
}

// wordForms is one language's word forms, synsets laid out in pre-order: the
// forms of the synset numbered p are positions at[p] to at[p+1], its primary
// lemma first. Form i is arena[off[i]:off[i+1]], h[i] its types.CaseHash and
// syn[i] its synset. So TC(x)'s forms, and their hashes, are one contiguous
// run from at[pre(x)] to at[post(x)] (match.go). slot is an open-addressed
// table of 1 + a form's position, keyed by its hash (0 is empty): the
// inverse of the forms, which synsets reads.
type wordForms struct {
	at, off []int32
	arena   string
	h       []uint32
	syn     []SynsetID
	slot    []int32
}

// form returns form i.
func (f *wordForms) form(i int32) string { return f.arena[f.off[i]:f.off[i+1]] }

// hashes returns the hashes of the synsets numbered [lo, hi) in pre-order.
func (f *wordForms) hashes(lo, hi int32) []uint32 { return f.h[f.at[lo]:f.at[hi]] }

// synsets appends to out the synsets of the forms that equal text as
// strings.ToLower folds it, given text's types.CaseHash, h and ascii: only
// text that folding changes is copied, and only non-ASCII text, whose hash is
// of its unfolded bytes, is hashed again. It probes the table from slot h on,
// so it lists the synsets in the order layOut entered them.
func (f *wordForms) synsets(text []byte, h uint32, ascii bool, out []SynsetID) []SynsetID {
	if !folded(text) {
		if text = bytes.ToLower(text); !ascii {
			h, _ = types.CaseHash(text)
		}
	}
	mask := uint32(len(f.slot) - 1)
	for i := h & mask; f.slot[i] != 0; i = (i + 1) & mask {
		if pos := f.slot[i] - 1; f.h[pos] == h && f.form(pos) == string(text) {
			out = append(out, f.syn[pos])
		}
	}
	return out
}

// Config parameterizes Generate.
type Config struct {
	// Synsets is the number of synsets; 0 defaults to WordNetSynsets.
	Synsets int
	// Langs are the languages to interlink; empty defaults to English.
	Langs []types.LangID
	// Seed makes generation deterministic.
	Seed int64
	// WordFormsPerSynset is the mean number of word forms; 0 defaults to
	// the WordNet ratio (~1.32).
	WordFormsPerSynset float64
}

// Structural constants of the English WordNet noun hierarchy as the paper
// reports them (§5.1).
const (
	// WordNetSynsets is the synset count of the English noun hierarchy.
	WordNetSynsets = 111223
	// WordNetWordForms is the word-form count.
	WordNetWordForms = 146690
	// wordNetMaxDepth approximates the max hyponym depth of WordNet nouns.
	wordNetMaxDepth = 16
)

// topConcepts seeds the upper levels of the generated hierarchy with real
// WordNet-style unique beginners so examples and documentation read
// naturally ("History", "Science", ...). Children listed per parent.
var topConcepts = []struct {
	name     string
	children []string
}{
	{"entity", []string{"abstraction", "physical_entity"}},
	{"abstraction", []string{"attribute", "communication", "cognition", "relation"}},
	{"cognition", []string{"content", "process", "structure"}},
	{"content", []string{"knowledge_domain", "belief", "idea"}},
	{"knowledge_domain", []string{"discipline", "science", "art"}},
	{"discipline", []string{"history", "theology", "literature", "law"}},
	{"history", []string{"historiography", "autobiography", "chronicle", "ancient_history"}},
	{"science", []string{"mathematics", "physics", "chemistry", "biology"}},
	{"art", []string{"music", "painting", "sculpture", "dance"}},
	{"physical_entity", []string{"object", "substance", "process_physical"}},
	{"object", []string{"artifact", "living_thing", "location"}},
	{"artifact", []string{"instrumentality", "structure_artifact", "commodity"}},
	{"living_thing", []string{"organism", "cell"}},
	{"organism", []string{"animal", "plant", "person"}},
}

// Generate builds a deterministic synthetic Net.
func Generate(cfg Config) *Net {
	n := cfg.Synsets
	if n <= 0 {
		n = WordNetSynsets
	}
	langs := cfg.Langs
	if len(langs) == 0 {
		langs = []types.LangID{types.LangEnglish}
	}
	wf := cfg.WordFormsPerSynset
	if wf <= 0 {
		wf = float64(WordNetWordForms) / float64(WordNetSynsets)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	net := &Net{
		parent: make([]SynsetID, 0, n),
		depth:  make([]int32, 0, n),
		forms:  make(map[types.LangID]*wordForms, len(langs)),
		langs:  append([]types.LangID(nil), langs...),
	}

	names := make([]string, 0, n)
	nameIdx := make(map[string]SynsetID)
	addNode := func(name string, parent SynsetID) SynsetID {
		id := SynsetID(len(net.parent))
		net.parent = append(net.parent, parent)
		d := int32(0)
		if parent != NoSynset {
			d = net.depth[parent] + 1
		}
		net.depth = append(net.depth, d)
		names = append(names, name)
		nameIdx[name] = id
		return id
	}

	// Seed the named upper ontology (bounded by n for tiny test nets).
	addNode("entity", NoSynset)
seed:
	for _, tc := range topConcepts {
		pid, ok := nameIdx[tc.name]
		if !ok {
			if len(net.parent) >= n {
				break seed
			}
			pid = addNode(tc.name, 0)
		}
		for _, c := range tc.children {
			if _, dup := nameIdx[c]; dup {
				continue
			}
			if len(net.parent) >= n {
				break seed
			}
			addNode(c, pid)
		}
	}

	// Grow the rest with depth-biased preferential attachment: parents are
	// drawn from recent and shallow nodes so the depth histogram matches
	// WordNet's (mass concentrated around depth 6-10, max ~16).
	for len(net.parent) < n {
		id := SynsetID(len(net.parent))
		var parent SynsetID
		for {
			// Bias towards earlier nodes (closer to the root) but keep a
			// long tail: squaring a uniform pick concentrates on low IDs.
			u := rng.Float64()
			parent = SynsetID(u * u * float64(id))
			if net.depth[parent] < wordNetMaxDepth-1 {
				break
			}
		}
		addNode(fmt.Sprintf("concept_%06d", id), parent)
	}

	// Word forms per language. English lemmas are the node names plus
	// synthetic synonyms; other languages carry rendered counterparts so
	// the word-form strings differ across languages while the synset IDs
	// stay aligned (the equivalence links).
	net.ix = NewIntervalIndex(net)
	for _, lang := range langs {
		lem := make([][]string, n)
		for id := 0; id < n; id++ {
			forms := []string{renderLemma(names[id], lang)}
			// Extra word forms (synonyms) to hit the configured ratio.
			for rng.Float64() < wf-1 {
				forms = append(forms, renderLemma(fmt.Sprintf("%s_syn%d", names[id], len(forms)), lang))
			}
			lem[id] = forms
		}
		net.forms[lang] = layOut(lem, net.ix)
	}
	return net
}

// layOut lays the word forms lem[id] of a language out in ix's pre-order,
// each beside its types.CaseHash and synset, in arrays sized up front, and
// enters them in a table of at least 1.5 slots a form, in synset order, so
// that synsets lists a word's synsets in ascending order.
func layOut(lem [][]string, ix *IntervalIndex) *wordForms {
	total, size := 0, 0
	for _, forms := range lem {
		for _, form := range forms {
			total, size = total+1, size+len(form)
		}
	}
	f := &wordForms{at: make([]int32, len(lem)+1), off: make([]int32, 1, total+1),
		h: make([]uint32, 0, total), syn: make([]SynsetID, 0, total)}
	var arena strings.Builder
	arena.Grow(size)
	for p, id := range ix.byPre {
		for _, form := range lem[id] {
			h, _ := types.CaseHash([]byte(form))
			arena.WriteString(form)
			f.off, f.h, f.syn = append(f.off, int32(arena.Len())), append(f.h, h), append(f.syn, id)
		}
		f.at[p+1] = int32(len(f.h))
	}
	f.arena = arena.String()
	f.slot = make([]int32, 1<<bits.Len(uint(total+total/2)))
	mask := uint32(len(f.slot) - 1)
	for _, p := range ix.pre {
		for pos := f.at[p]; pos < f.at[p+1]; pos++ {
			i := f.h[pos] & mask
			for f.slot[i] != 0 {
				i = (i + 1) & mask
			}
			f.slot[i] = pos + 1
		}
	}
	return f
}

// renderLemma localizes a lemma string for a language. English keeps the
// base form; other languages get a stable language-tagged rendering
// (standing in for the translated word form of a linked WordNet).
func renderLemma(base string, lang types.LangID) string {
	if lang == types.LangEnglish {
		return base
	}
	return lang.String() + ":" + base
}

// Langs returns the interlinked languages.
func (w *Net) Langs() []types.LangID { return w.langs }

// NumSynsets returns the synset count.
func (w *Net) NumSynsets() int { return len(w.parent) }

// NumWordForms returns the word-form count for a language.
func (w *Net) NumWordForms(lang types.LangID) int {
	if f, ok := w.forms[lang]; ok {
		return len(f.h)
	}
	return 0
}

// NumRelations counts hypernym edges plus cross-language equivalence links,
// the quantity the paper reports as "relationships".
func (w *Net) NumRelations() int {
	edges := len(w.parent) - 1 // tree edges
	if edges < 0 {
		edges = 0
	}
	equiv := 0
	if len(w.langs) > 1 {
		equiv = (len(w.langs) - 1) * len(w.parent)
	}
	return edges + equiv
}

// Parent returns the hypernym of id (NoSynset for the root).
func (w *Net) Parent(id SynsetID) SynsetID { return w.parent[id] }

// Children returns the direct hyponyms of id in ID order.
func (w *Net) Children(id SynsetID) []SynsetID { return w.appendChildren(nil, id) }

// appendChildren appends id's children to out in ID order, read off the
// labels: the first follows id in pre-order, each next one the subtree of the
// one before.
func (w *Net) appendChildren(out []SynsetID, id SynsetID) []SynsetID {
	for p := w.ix.pre[id] + 1; p < w.ix.post[id]; p = w.ix.post[w.ix.byPre[p]] {
		out = append(out, w.ix.byPre[p])
	}
	return out
}

// Depth returns the depth of id (root = 0).
func (w *Net) Depth(id SynsetID) int { return int(w.depth[id]) }

// MaxDepth returns the deepest node's depth.
func (w *Net) MaxDepth() int {
	max := int32(0)
	for _, d := range w.depth {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// AvgDepth returns the mean node depth (the h̄ of the paper's §3.4.2
// selectivity formulas).
func (w *Net) AvgDepth() float64 {
	if len(w.depth) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range w.depth {
		sum += float64(d)
	}
	return sum / float64(len(w.depth))
}

// SynsetsOf resolves a word form in a language to its synsets, folding case
// as strings.ToLower does: a form with an upper-case letter is never found.
func (w *Net) SynsetsOf(lang types.LangID, word string) []SynsetID {
	f, ok := w.forms[lang]
	if !ok {
		return nil
	}
	h, ascii := types.CaseHash([]byte(word))
	return f.synsets([]byte(word), h, ascii, nil)
}

// Lemma returns the primary word form of a synset in a language.
func (w *Net) Lemma(lang types.LangID, id SynsetID) string {
	if f, ok := w.forms[lang]; ok && int(id) < len(w.parent) && f.at[w.ix.pre[id]] < f.at[w.ix.pre[id]+1] {
		return f.form(f.at[w.ix.pre[id]])
	}
	return ""
}

// WordForms returns all word forms of a synset in a language.
func (w *Net) WordForms(lang types.LangID, id SynsetID) []string {
	f, ok := w.forms[lang]
	if !ok || int(id) >= len(w.parent) {
		return nil
	}
	var out []string
	for i := f.at[w.ix.pre[id]]; i < f.at[w.ix.pre[id]+1]; i++ {
		out = append(out, f.form(i))
	}
	return out
}

// Closure computes the downward transitive closure of root (root plus all
// hyponym descendants): the TC(x, MLTH) of the paper's Ω definition.
func (w *Net) Closure(root SynsetID) map[SynsetID]struct{} {
	out := make(map[SynsetID]struct{})
	stack := []SynsetID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out[id] = struct{}{}
		stack = w.appendChildren(stack, id)
	}
	return out
}

// ClosureSize returns |TC(root)| in O(1), from the interval labels.
func (w *Net) ClosureSize(root SynsetID) int { return w.ix.ClosureSize(root) }

// IsDescendant reports whether node is in TC(root) by walking parent
// pointers upward — the O(depth) check the in-memory pinned hierarchy
// affords (used as an oracle and by small point queries).
func (w *Net) IsDescendant(node, root SynsetID) bool {
	for cur := node; cur != NoSynset; cur = w.parent[cur] {
		if cur == root {
			return true
		}
	}
	return false
}

// FindClosureOfSize returns a synset whose closure cardinality is as close
// as possible to target: the Figure 8 workload generator ("queries that
// compute closures of varying sizes").
func (w *Net) FindClosureOfSize(target int) SynsetID {
	best := SynsetID(0)
	bestDiff := 1 << 62
	for id := range w.parent {
		size := w.ClosureSize(SynsetID(id))
		diff := size - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff = diff
			best = SynsetID(id)
		}
		if diff == 0 {
			break
		}
	}
	return best
}
