package wordnet

import (
	"runtime"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

func smallNet(t testing.TB) *Net {
	t.Helper()
	return Generate(Config{Synsets: 5000, Seed: 42,
		Langs: []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench}})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Synsets: 1000, Seed: 7})
	b := Generate(Config{Synsets: 1000, Seed: 7})
	if a.NumSynsets() != b.NumSynsets() {
		t.Fatal("nondeterministic synset count")
	}
	for id := 0; id < a.NumSynsets(); id++ {
		if a.Parent(SynsetID(id)) != b.Parent(SynsetID(id)) {
			t.Fatalf("nondeterministic parent at %d", id)
		}
		if a.Lemma(types.LangEnglish, SynsetID(id)) != b.Lemma(types.LangEnglish, SynsetID(id)) {
			t.Fatalf("nondeterministic lemma at %d", id)
		}
	}
	c := Generate(Config{Synsets: 1000, Seed: 8})
	diff := false
	for id := 0; id < 1000; id++ {
		if a.Parent(SynsetID(id)) != c.Parent(SynsetID(id)) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical structure")
	}
}

func TestGenerateShape(t *testing.T) {
	net := Generate(Config{Synsets: 20000, Seed: 1})
	if net.NumSynsets() != 20000 {
		t.Fatalf("NumSynsets = %d", net.NumSynsets())
	}
	if d := net.MaxDepth(); d < 5 || d > 16 {
		t.Errorf("MaxDepth = %d, want WordNet-like (5..16]", d)
	}
	if h := net.AvgDepth(); h < 2 || h > 14 {
		t.Errorf("AvgDepth = %g out of plausible range", h)
	}
	// Word-form ratio near the WordNet ratio 1.32.
	ratio := float64(net.NumWordForms(types.LangEnglish)) / float64(net.NumSynsets())
	if ratio < 1.1 || ratio > 1.6 {
		t.Errorf("word forms per synset = %g, want ~1.32", ratio)
	}
	// Every non-root parent precedes its child.
	for id := 1; id < net.NumSynsets(); id++ {
		if p := net.Parent(SynsetID(id)); p >= SynsetID(id) || p == NoSynset {
			t.Fatalf("node %d has parent %d", id, p)
		}
	}
	if net.Parent(0) != NoSynset {
		t.Error("root must have no parent")
	}
}

func TestGenerateRelationsCount(t *testing.T) {
	net := smallNet(t)
	// tree edges (n-1) + equivalence links for 2 extra languages (2n)
	want := net.NumSynsets() - 1 + 2*net.NumSynsets()
	if got := net.NumRelations(); got != want {
		t.Errorf("NumRelations = %d, want %d", got, want)
	}
}

func TestNamedUpperOntology(t *testing.T) {
	net := smallNet(t)
	hist := net.SynsetsOf(types.LangEnglish, "history")
	if len(hist) != 1 {
		t.Fatalf("history resolves to %d synsets", len(hist))
	}
	historiography := net.SynsetsOf(types.LangEnglish, "historiography")
	if len(historiography) != 1 {
		t.Fatalf("historiography resolves to %d synsets", len(historiography))
	}
	// Historiography is a specialized branch of History (the paper's
	// footnote 2 example).
	if !net.IsDescendant(historiography[0], hist[0]) {
		t.Error("historiography must be in TC(history)")
	}
	if net.IsDescendant(hist[0], historiography[0]) {
		t.Error("history must not be in TC(historiography)")
	}
}

func TestClosureAgainstIsDescendant(t *testing.T) {
	net := smallNet(t)
	roots := []SynsetID{0, 1, 10, 100, 1000}
	for _, root := range roots {
		closure := net.Closure(root)
		if len(closure) != net.ClosureSize(root) {
			t.Errorf("root %d: closure len %d != ClosureSize %d", root, len(closure), net.ClosureSize(root))
		}
		// Spot-check membership against the parent-pointer oracle.
		for id := 0; id < net.NumSynsets(); id += 97 {
			_, in := closure[SynsetID(id)]
			if in != net.IsDescendant(SynsetID(id), root) {
				t.Errorf("root %d node %d: closure=%v oracle=%v", root, id, in, !in)
			}
		}
	}
}

func TestClosureOfRootIsWholeNet(t *testing.T) {
	net := smallNet(t)
	if got := net.ClosureSize(0); got != net.NumSynsets() {
		t.Errorf("ClosureSize(root) = %d, want %d", got, net.NumSynsets())
	}
}

func TestFindClosureOfSize(t *testing.T) {
	net := smallNet(t)
	for _, target := range []int{10, 100, 1000} {
		id := net.FindClosureOfSize(target)
		got := net.ClosureSize(id)
		if got < target/3 || got > target*3 {
			t.Errorf("FindClosureOfSize(%d) found %d (closure %d)", target, id, got)
		}
	}
}

func TestCrossLanguageEquivalence(t *testing.T) {
	net := smallNet(t)
	en := net.SynsetsOf(types.LangEnglish, "history")
	ta := net.SynsetsOf(types.LangTamil, "tamil:history")
	if len(en) != 1 || len(ta) != 1 || en[0] != ta[0] {
		t.Errorf("equivalence link broken: en=%v ta=%v", en, ta)
	}
	if net.Lemma(types.LangTamil, en[0]) != "tamil:history" {
		t.Errorf("Tamil lemma = %q", net.Lemma(types.LangTamil, en[0]))
	}
	if net.Lemma(types.LangGerman, en[0]) != "" {
		t.Error("unlinked language must return empty lemma")
	}
	if net.SynsetsOf(types.LangGerman, "x") != nil {
		t.Error("unlinked language must resolve nothing")
	}
}

// Lemma reads its form off the arena, and Verify looks a folded row up
// under the hash its caller gives: neither allocates.
func TestLemmaAndVerifyDoNotAllocate(t *testing.T) {
	net := smallNet(t)
	p := net.CompileRight(types.Compose("history", types.LangEnglish), nil, 0)
	row := []byte("tamil:historiography")
	h, ascii := types.CaseHash(row)
	if !p.Verify(types.LangTamil, row, h, ascii) {
		t.Fatal("Ω(tamil:historiography, history) must hold")
	}
	if n := testing.AllocsPerRun(100, func() {
		net.Lemma(types.LangTamil, 7)
		p.Verify(types.LangTamil, row, h, ascii)
	}); n != 0 {
		t.Errorf("Lemma and Verify allocate %v times a call", n)
	}
}

// match is Ω(lhs, rhs) as the generic evaluator runs it.
type match struct{ *Net }

func (m match) Match(lhs, rhs types.UniText, langs []types.LangID) bool {
	return matchText(m.CompileRight(rhs, langs, 0), lhs.Lang, lhs.Text)
}

func TestMatch(t *testing.T) {
	m := match{smallNet(t)}
	history := types.Compose("history", types.LangEnglish)
	historiography := types.Compose("historiography", types.LangEnglish)
	taHistoriography := types.Compose("tamil:historiography", types.LangTamil)
	science := types.Compose("science", types.LangEnglish)

	if !m.Match(historiography, history, nil) {
		t.Error("Ω(historiography, history) must hold")
	}
	if !m.Match(history, history, nil) {
		t.Error("Ω is reflexive on the closure root")
	}
	if m.Match(science, history, nil) {
		t.Error("Ω(science, history) must not hold")
	}
	// Cross-lingual: Tamil historiography is equivalence-linked.
	if !m.Match(taHistoriography, history, nil) {
		t.Error("Ω must match across languages via equivalence links")
	}
	// Language filter excludes Tamil rows.
	if m.Match(taHistoriography, history, []types.LangID{types.LangEnglish}) {
		t.Error("language filter must exclude Tamil LHS")
	}
	if !m.Match(taHistoriography, history, []types.LangID{types.LangEnglish, types.LangTamil}) {
		t.Error("language filter must admit Tamil LHS when listed")
	}
	// Unknown words match nothing.
	if m.Match(types.Compose("zorkmid", types.LangEnglish), history, nil) {
		t.Error("unknown LHS word must not match")
	}
	if m.Match(historiography, types.Compose("zorkmid", types.LangEnglish), nil) {
		t.Error("unknown RHS word must not match")
	}
}

func TestFullScaleGenerationStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale WordNet generation in -short mode")
	}
	net := Generate(Config{Seed: 3}) // paper-scale defaults
	if net.NumSynsets() != WordNetSynsets {
		t.Errorf("NumSynsets = %d, want %d", net.NumSynsets(), WordNetSynsets)
	}
	wf := net.NumWordForms(types.LangEnglish)
	if wf < 130000 || wf > 165000 {
		t.Errorf("word forms = %d, want ~%d", wf, WordNetWordForms)
	}
	if d := net.MaxDepth(); d > 16 {
		t.Errorf("MaxDepth = %d exceeds WordNet's", d)
	}
}

// The paper-scale Net in English, French and Tamil holds at most 32 MiB of
// heap: HeapAlloc after two collections, before and after Generate.
func TestFullScaleNetFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale WordNet generation in -short mode")
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	net := Generate(Config{Seed: 1, Langs: []types.LangID{types.LangEnglish, types.LangFrench, types.LangTamil}})
	mib := float64(heap()-before) / (1 << 20)
	runtime.KeepAlive(net)
	t.Logf("the paper-scale three-language Net holds %.1f MiB", mib)
	if mib > 32 {
		t.Errorf("the paper-scale three-language Net holds %.1f MiB of heap, over 32 MiB", mib)
	}
}

func BenchmarkClosureLarge(b *testing.B) {
	net := Generate(Config{Synsets: 50000, Seed: 2})
	root := net.FindClosureOfSize(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Closure(root)
	}
}

func BenchmarkMatch(b *testing.B) {
	m := match{Generate(Config{Synsets: 50000, Seed: 2})}
	history := types.Compose("history", types.LangEnglish)
	lhs := types.Compose("historiography", types.LangEnglish)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(lhs, history, nil)
	}
}
