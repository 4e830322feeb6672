package wordnet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unicode"
	"unicode/utf8"

	"github.com/mural-db/mural/internal/types"
)

// fuzzNet is shared by every input: generating a taxonomy per input would be
// the whole cost of the run.
var fuzzNet = sync.OnceValue(func() *Net {
	return Generate(Config{Synsets: 3000, Seed: 5,
		Langs: []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench}})
})

// fuzzWords is fuzzNet's word map, built once.
var fuzzWords = sync.OnceValue(func() words { return wordsOf(fuzzNet()) })

// words maps a language and a word form to the synsets it belongs to.
type words map[types.LangID]map[string][]SynsetID

// wordsOf builds the net's word map from WordForms alone, in ascending synset
// order: the inverse of the forms that the reference reads words through, so
// it does not use the table that SynsetsOf and Probe.Verify share.
func wordsOf(net *Net) words {
	m := words{}
	for _, lang := range net.Langs() {
		m[lang] = map[string][]SynsetID{}
		for id := 0; id < net.NumSynsets(); id++ {
			for _, form := range net.WordForms(lang, SynsetID(id)) {
				m[lang][form] = append(m[lang][form], SynsetID(id))
			}
		}
	}
	return m
}

// synsets resolves a word as Ω's definition does: its lower-cased form.
func (m words) synsets(u types.UniText) []SynsetID { return m[u.Lang][strings.ToLower(u.Text)] }

// walk is Ω by parent pointers from every LHS synset, words resolved through
// m: the reference each compiled form must equal.
func walk(net *Net, m words, lhs, rhs types.UniText, langs []types.LangID) bool {
	if len(langs) > 0 {
		ok := false
		for _, l := range langs {
			ok = ok || l == lhs.Lang
		}
		if !ok {
			return false
		}
	}
	for _, s := range m.synsets(lhs) {
		for _, r := range m.synsets(rhs) {
			if net.IsDescendant(s, r) {
				return true
			}
		}
	}
	return false
}

// omegaOperands turns fuzz input into two operands and an IN list. syn picks
// the LHS synset, up how many levels above it the RHS sits (or, with far set,
// an unrelated synset), langs each operand's language and the IN list, caps
// which letters are upper-cased, and junk what is appended to each text
// (nothing, an unknown suffix, a non-ASCII letter in either case, a byte that
// is not UTF-8).
func omegaOperands(net *Net, syn, up uint32, far bool, langs, caps uint16, junk uint8) (lhs, rhs types.UniText, in []types.LangID) {
	all := []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench, types.LangHindi}
	word := func(id SynsetID, lang types.LangID, caps uint16, junk uint8) types.UniText {
		forms := net.WordForms(lang, id)
		text := ""
		if len(forms) > 0 {
			text = forms[int(caps>>8)%len(forms)]
		}
		b := []byte(text)
		for i := range b {
			if caps&(1<<(i%8)) != 0 && 'a' <= b[i] && b[i] <= 'z' {
				b[i] -= 'a' - 'A'
			}
		}
		text = string(b) + []string{"", "", "", "zz", "é", "É", "\xff"}[junk%7]
		return types.Compose(text, lang)
	}
	l := SynsetID(syn % uint32(net.NumSynsets()))
	r := l
	for i := uint32(0); i < up%6 && net.Parent(r) != NoSynset; i++ {
		r = net.Parent(r)
	}
	if far {
		r = SynsetID(up % uint32(net.NumSynsets()))
	}
	lhs = word(l, all[langs%3], caps, junk)
	rhs = word(r, all[langs>>2%4], caps>>4|caps<<12, junk>>4)
	for i, lang := range all {
		if langs>>(4+i)&1 != 0 {
			in = append(in, lang)
		}
	}
	return lhs, rhs, in
}

// Every way Ω is evaluated — CompileRight filtered and on the labels alone,
// CompileLeft — must agree with the parent-pointer walk over the word map
// built from WordForms, whatever the synsets, the languages, the IN list and
// the letter case.
func FuzzOmegaAgree(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		f.Add(rng.Uint32(), rng.Uint32(), rng.Intn(4) == 0, uint16(rng.Uint32()), uint16(rng.Uint32()), uint8(rng.Uint32()))
	}
	f.Fuzz(func(t *testing.T, syn, up uint32, far bool, langs, caps uint16, junk uint8) {
		net := fuzzNet()
		lhs, rhs, in := omegaOperands(net, syn, up, far, langs, caps, junk)
		want := walk(net, fuzzWords(), lhs, rhs, in)
		got := map[string]bool{
			"CompileRight/filtered": matchText(net.CompileRight(rhs, in, 1<<30), lhs.Lang, lhs.Text),
			"CompileRight/labels":   matchText(net.CompileRight(rhs, in, 0), lhs.Lang, lhs.Text),
			"CompileLeft":           matchText(net.CompileLeft(lhs, in), rhs.Lang, rhs.Text),
		}
		for form, ok := range got {
			if ok != want {
				t.Errorf("%s(Ω(%q/%s, %q/%s) IN %v) = %v, the walk says %v", form, lhs.Text, lhs.Lang, rhs.Text, rhs.Lang, in, ok, want)
			}
		}
	})
}

// SynsetsOf answers what the word map answers for the lower-cased word, for
// every form of every synset in every language, upper-cased and with an
// unknown suffix, and in the languages it is not a form of.
func TestSynsetsOfMatchesWordForms(t *testing.T) {
	net, m := fuzzNet(), fuzzWords()
	for _, lang := range net.Langs() {
		for id := 0; id < net.NumSynsets(); id++ {
			for _, form := range net.WordForms(lang, SynsetID(id)) {
				for _, word := range []string{form, strings.ToUpper(form), form + "zz"} {
					for _, in := range net.Langs() {
						u := types.Compose(word, in)
						if got, want := net.SynsetsOf(in, word), m.synsets(u); !slices.Equal(got, want) {
							t.Fatalf("SynsetsOf(%s, %q) = %v, the word map says %v", in, word, got, want)
						}
					}
				}
			}
		}
	}
}

// accentNet is a small net whose forms hold é, ü, Tamil script and Greek,
// whose case folding is no 0x20 flip of a byte, each stem in many synsets,
// and upper-case letters that no lookup finds: layOut over forms Generate
// does not emit.
func accentNet() *Net {
	net := Generate(Config{Synsets: 120, Seed: 9,
		Langs: []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench}})
	stems := []string{"école", "über", "வரலாறு", "naïve", "Étude", "straße", "σοφία", "plain"}
	for k, lang := range net.Langs() {
		lem := make([][]string, net.NumSynsets())
		for id := range lem {
			stem := stems[(id+k)%len(stems)]
			lem[id] = []string{fmt.Sprintf("%s_%d", stem, id), stem}
		}
		net.forms[lang] = layOut(lem, net.ix)
	}
	return net
}

// On non-ASCII forms, Match and Verify given the stored hash — types.CaseHash
// of the row's unfolded text — agree with the walk over the word map, for
// rows of every form in lower, upper and title case against constants at
// the root, inside and at a leaf.
func TestOmegaNonASCIIStoredHash(t *testing.T) {
	net := accentNet()
	m := wordsOf(net)
	var rows []types.UniText
	for _, lang := range net.Langs() {
		for id := 0; id < net.NumSynsets(); id++ {
			for _, form := range net.WordForms(lang, SynsetID(id)) {
				r, n := utf8.DecodeRuneInString(form)
				for _, text := range []string{form, strings.ToUpper(form), string(unicode.ToUpper(r)) + form[n:]} {
					rows = append(rows, types.Compose(text, lang))
				}
			}
		}
	}
	found := 0
	for _, root := range []SynsetID{0, 40, SynsetID(net.NumSynsets() - 1)} {
		for _, lang := range net.Langs() {
			for _, word := range []string{net.Lemma(lang, root), strings.ToUpper(net.Lemma(lang, root)), "école"} {
				rhs := types.Compose(word, lang)
				probes := map[string]*Probe{"filtered": net.CompileRight(rhs, nil, 1<<30), "labels": net.CompileRight(rhs, nil, 0)}
				for _, lhs := range rows {
					want := walk(net, m, lhs, rhs, nil)
					if want {
						found++
					}
					h, ascii := types.CaseHash([]byte(lhs.Text))
					for name, p := range probes {
						if got := p.Match(lhs.Lang, []byte(lhs.Text), h, ascii); got != want {
							t.Fatalf("%s Match(Ω(%q/%s, %q/%s)) = %v, the walk says %v", name, lhs.Text, lhs.Lang, rhs.Text, rhs.Lang, got, want)
						}
						if got := p.Verify(lhs.Lang, []byte(lhs.Text), h, ascii); got != want {
							t.Fatalf("%s Verify(Ω(%q/%s, %q/%s)) = %v, the walk says %v", name, lhs.Text, lhs.Lang, rhs.Text, rhs.Lang, got, want)
						}
					}
					if got, want := net.SynsetsOf(lhs.Lang, lhs.Text), m.synsets(lhs); !slices.Equal(got, want) {
						t.Fatalf("SynsetsOf(%s, %q) = %v, the word map says %v", lhs.Lang, lhs.Text, got, want)
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no row matched: the test probes nothing the table finds")
	}
}

// The filters exist exactly when closure size × admitted languages is within
// maxWords; each holds every word form of TC(rhs) in its language, sized at
// 16 bits a synset rounded up to a power of two, and a language the IN list
// does not admit has none.
func TestCompileRightForms(t *testing.T) {
	net := smallNet(t)
	history := types.Compose("History", types.LangEnglish)
	root := net.SynsetsOf(types.LangEnglish, "history")[0]
	size := net.ClosureSize(root)
	in := []types.LangID{types.LangEnglish, types.LangTamil}
	p := net.CompileRight(history, in, size*len(in))
	if !p.filtered {
		t.Fatalf("a closure of %d × %d languages within %d words compiled without filters", size, len(in), size*len(in))
	}
	for _, lang := range in {
		f := p.filters[lang]
		if bits := len(f.words) * 64; bits < bitsPerSynset*size || bits >= 2*bitsPerSynset*size || bits&(bits-1) != 0 {
			t.Errorf("%s filter has %d bits for %d synsets", lang, bits, size)
		}
		for _, id := range net.ix.Closure(root) {
			for _, form := range net.WordForms(lang, id) {
				if h, _ := types.CaseHash([]byte(form)); !f.has(h) {
					t.Errorf("%s filter lacks %q of TC(history)", lang, form)
				}
			}
		}
	}
	if len(p.filters) > int(types.LangFrench) && p.filters[types.LangFrench].words != nil {
		t.Error("French is not admitted, yet has a filter")
	}
	if matchText(p, types.LangFrench, "french:historiography") {
		t.Error("a French row matched a probe that does not admit French")
	}
	if !matchText(p, types.LangTamil, "TAMIL:Historiography") {
		t.Error("the filtered probe must fold case as SynsetsOf does")
	}
	if q := net.CompileRight(history, in, size*len(in)-1); q.filtered || len(q.roots) != 1 || q.MemBytes() >= p.MemBytes() {
		t.Errorf("one word over the bound must compile to the constant's one synset and no filter, got %d roots, filtered=%v", len(q.roots), q.filtered)
	}
}

// matchText is Probe.Match on a text whose hash it computes, as a caller
// without stored keys does.
func matchText(p *Probe, lang types.LangID, text string) bool {
	h, ascii := types.CaseHash([]byte(text))
	return p.Match(lang, []byte(text), h, ascii)
}

// Two ASCII texts equal under strings.ToLower hash alike, and types.CaseHash
// reports ASCII exactly when no byte is past 0x7F. The hash is stored with
// every UNITEXT value, so TestKeysGolden in internal/types pins its values.
func FuzzCaseHash(f *testing.F) {
	for _, s := range []string{"", "a", "Z", "@`", "_\x7f", "history", "concept_000123", "tamil:Historiography", "HISTORY_SYN1", "abcdefgH", "abcdefghi", "é", "\xffabc"} {
		f.Add(s, uint64(0x5555555555555555))
	}
	f.Fuzz(func(t *testing.T, s string, flip uint64) {
		b := []byte(s)
		for i := range b {
			if flip>>(i%64)&1 != 0 && ('a' <= b[i] && b[i] <= 'z' || 'A' <= b[i] && b[i] <= 'Z') {
				b[i] ^= 0x20
			}
		}
		h, ascii := types.CaseHash([]byte(s))
		if want := !strings.ContainsFunc(s, func(r rune) bool { return r >= 0x80 }); ascii != want {
			t.Fatalf("types.CaseHash(%q) reports ascii=%v", s, ascii)
		}
		if !ascii {
			return
		}
		for _, other := range []string{string(b), strings.ToLower(s), strings.ToUpper(s)} {
			if g, _ := types.CaseHash([]byte(other)); g != h {
				t.Errorf("types.CaseHash(%q) = %#x, types.CaseHash(%q) = %#x", s, h, other, g)
			}
		}
	})
}

// omegaScale is the paper-scale taxonomy in three languages and 50,000 rows of
// primary lemmas of random synsets in random languages, as a SEMEQUAL scan
// over a document table sees them.
var omegaScale = sync.OnceValues(func() (*Net, []types.UniText) {
	langs := []types.LangID{types.LangEnglish, types.LangFrench, types.LangTamil}
	net := Generate(Config{Seed: 1, Langs: langs})
	rng := rand.New(rand.NewSource(1))
	rows := make([]types.UniText, 50000)
	for i := range rows {
		lang := langs[rng.Intn(len(langs))]
		rows[i] = types.Compose(net.Lemma(lang, SynsetID(rng.Intn(net.NumSynsets()))), lang)
	}
	return net, rows
})

// passShare compiles Ω(·, c) for the concept c whose closure is nearest tc and
// returns the share of rows its filters pass and the share that match.
func passShare(t testing.TB, tc int) (pass, match float64) {
	net, rows := omegaScale()
	root := net.FindClosureOfSize(tc)
	concept := types.Compose(net.Lemma(types.LangEnglish, root), types.LangEnglish)
	p := net.CompileRight(concept, nil, 1<<30)
	var passed, matched int
	for _, r := range rows {
		f := p.filters[r.Lang]
		h, ascii := types.CaseHash([]byte(r.Text))
		ok := !ascii || f.has(h)
		if p.Match(r.Lang, []byte(r.Text), h, ascii) {
			matched++
			if !ok {
				t.Fatalf("Ω(%q, %q) holds, yet the filter rejects the row", r.Text, concept.Text)
			}
		}
		if ok {
			passed++
		}
	}
	return float64(passed) / float64(len(rows)), float64(matched) / float64(len(rows))
}

// The filters pass every true match and few other rows: at most 3 % of the
// rows at |TC| = 10², 5 % at 10³.
func TestProbeFilterPassShare(t *testing.T) {
	for _, c := range []struct {
		tc    int
		bound float64
	}{{100, 0.03}, {1000, 0.05}} {
		pass, match := passShare(t, c.tc)
		t.Logf("|TC| = %d: %.2f %% of the rows pass, %.2f %% match", c.tc, 100*pass, 100*match)
		if pass > c.bound {
			t.Errorf("|TC| = %d: %.2f %% of the rows pass the filter, over %.0f %%", c.tc, 100*pass, 100*c.bound)
		}
	}
}

var tcSizes = []int{100, 1000, 10000}

// BenchmarkProbeCompile is CompileRight's cost per statement at each closure
// size, the 50,000 rows as the bound.
func BenchmarkProbeCompile(b *testing.B) {
	net, rows := omegaScale()
	for _, tc := range tcSizes {
		concept := types.Compose(net.Lemma(types.LangEnglish, net.FindClosureOfSize(tc)), types.LangEnglish)
		b.Run(fmt.Sprintf("tc=%d", tc), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				net.CompileRight(concept, nil, len(rows))
			}
		})
	}
}

// BenchmarkProbeMatch probes the 50,000 rows once per op and reports the cost
// per row and the share of rows the filters pass.
func BenchmarkProbeMatch(b *testing.B) {
	net, rows := omegaScale()
	for _, tc := range tcSizes {
		concept := types.Compose(net.Lemma(types.LangEnglish, net.FindClosureOfSize(tc)), types.LangEnglish)
		p := net.CompileRight(concept, nil, len(rows))
		// Each row's text and hash, as a stored value keeps them.
		texts := make([][]byte, len(rows))
		hashes := make([]uint32, len(rows))
		ascii := make([]bool, len(rows))
		for i, r := range rows {
			texts[i] = []byte(r.Text)
			hashes[i], ascii[i] = types.CaseHash(texts[i])
		}
		b.Run(fmt.Sprintf("tc=%d", tc), func(b *testing.B) {
			pass, match := passShare(b, tc)
			b.ReportAllocs()
			for b.Loop() {
				for i, r := range rows {
					p.Match(r.Lang, texts[i], hashes[i], ascii[i])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
			b.ReportMetric(100*pass, "pass_%")
			b.ReportMetric(100*match, "match_%")
		})
	}
}

// folded must agree with strings.ToLower on every input, ASCII words of every
// length around the eight-byte step included.
func FuzzFolded(f *testing.F) {
	for _, s := range []string{"", "a", "Z", "history", "concept_000123", "tamil:Historiography", "@[`{", "HISTORY_SYN1", "abcdefgH", "é", "ÉCOLE", "straße", "\xffabc", "İ", "K"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := folded([]byte(s)), strings.ToLower(s) == s; got != want {
			t.Errorf("folded(%q) = %v, strings.ToLower says %v", s, got, want)
		}
	})
}
