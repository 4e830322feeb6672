package wordnet

import (
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

// wantLabel is the label the word map gives u: its one synset's pre-order
// number, or the sentinel for none or several.
func wantLabel(net *Net, m words, u types.UniText) uint32 {
	switch syn := m.synsets(u); len(syn) {
	case 0:
		return types.NoSynsets
	case 1:
		return uint32(net.ix.pre[syn[0]])
	}
	return types.ManySynsets
}

// Label answers what the word map answers, for every form of every synset in
// every language, upper-cased, title-cased and with an unknown suffix, and in
// the languages it is not a form of: on the generated net, whose forms each
// name one synset, and on the accent net, whose stems each name many, with
// non-ASCII case folding. A nil net labels nothing (Unlabelled), and a
// language the net lacks has no synsets.
func TestLabelMatchesWordForms(t *testing.T) {
	kinds := map[uint32]int{}
	for name, net := range map[string]*Net{"generated": fuzzNet(), "accent": accentNet()} {
		m := wordsOf(net)
		for _, lang := range net.Langs() {
			for id := 0; id < net.NumSynsets(); id++ {
				for _, form := range net.WordForms(lang, SynsetID(id)) {
					for _, word := range []string{form, strings.ToUpper(form), strings.ToUpper(form[:1]) + form[1:], form + "zz"} {
						for _, in := range net.Langs() {
							got, want := net.Label(in, word), wantLabel(net, m, types.Compose(word, in))
							if got != want {
								t.Fatalf("%s: Label(%s, %q) = %#x, the word map says %#x", name, in, word, got, want)
							}
							if got < types.NoSynsets {
								got = 0 // a synset's label
							}
							kinds[got]++
						}
					}
				}
			}
		}
		if got := net.Label(types.LangGerman, net.Lemma(types.LangEnglish, 0)); got != types.NoSynsets {
			t.Errorf("%s: Label in a language the net lacks = %#x, want NoSynsets", name, got)
		}
	}
	for _, k := range []uint32{0, types.NoSynsets, types.ManySynsets} {
		if kinds[k] == 0 {
			t.Errorf("no word labelled %#x: the test misses a kind of label", k)
		}
	}
	var none *Net
	if got := none.Label(types.LangEnglish, "history"); got != types.Unlabelled {
		t.Errorf("Label on a nil net = %#x, want Unlabelled", got)
	}
	row := types.Tuple{types.NewInt(1), types.NewUniText(types.Compose("History", types.LangEnglish)), types.Null()}
	net := fuzzNet()
	for _, c := range []struct {
		net  *Net
		col  int
		want uint32
	}{
		{net, 1, net.Label(types.LangEnglish, "history")},
		{net, 2, types.Unlabelled}, {net, 0, types.Unlabelled}, {net, -1, types.Unlabelled}, {nil, 1, types.Unlabelled},
	} {
		if got := c.net.LabelOf(row, c.col); got != c.want {
			t.Errorf("LabelOf(col %d, net %v) = %#x, want %#x", c.col, c.net != nil, got, c.want)
		}
	}
	if net.Label(types.LangEnglish, "History") >= types.NoSynsets {
		t.Error(`"History" must fold to the English "history"`)
	}
}

// Label allocates nothing for a text of up to 64 bytes, folded or not.
func TestLabelDoesNotAllocate(t *testing.T) {
	net := fuzzNet()
	words := []string{"history", "History", "TAMIL:HISTORY", "Étude", strings.Repeat("X", 64), "concept_000123"}
	if n := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			net.Label(types.LangEnglish, w)
		}
	}); n != 0 {
		t.Errorf("Label allocates %v times a round", n)
	}
}

// PassesLabel on a row labelled with synset s is s ∈ TC(root) for a probe
// of the right operand and s an ancestor-or-self of root for one of the left,
// for every synset of a small net and roots at the top, in the middle and at
// a leaf; NoSynsets never passes, ManySynsets and Unlabelled always do in an
// admitted language, nothing passes in a language the IN list excludes, and
// a constant with no synsets passes nothing.
func TestPassesLabelIsTheClosure(t *testing.T) {
	net := smallNet(t)
	for _, root := range []SynsetID{0, 1, 7, 40, SynsetID(net.NumSynsets() / 2), SynsetID(net.NumSynsets() - 1)} {
		word := types.Compose(net.Lemma(types.LangEnglish, root), types.LangEnglish)
		in := []types.LangID{types.LangEnglish, types.LangTamil}
		for _, c := range []struct {
			name string
			p    *Probe
			want func(s SynsetID) bool
		}{
			{"right", net.CompileRight(word, in, 0), func(s SynsetID) bool { return net.IsDescendant(s, root) }},
			{"left", net.CompileLeft(word, nil, 0), func(s SynsetID) bool { return net.IsDescendant(root, s) }},
		} {
			for s := range SynsetID(net.NumSynsets()) {
				if got := c.p.PassesLabel(types.LangTamil, uint32(net.ix.pre[s])); got != c.want(s) {
					t.Fatalf("%s probe of %d: PassesLabel(pre(%d)) = %v, want %v", c.name, root, s, got, !got)
				}
			}
			for label, want := range map[uint32]bool{types.NoSynsets: false, types.ManySynsets: true, types.Unlabelled: true} {
				if got := c.p.PassesLabel(types.LangEnglish, label); got != want {
					t.Errorf("%s probe of %d: PassesLabel(%#x) = %v, want %v", c.name, root, label, got, want)
				}
			}
		}
		p := net.CompileRight(word, in, 0)
		for _, lang := range []types.LangID{types.LangFrench, types.LangHindi, types.LangUnknown, 0x7E} {
			if p.PassesLabel(lang, uint32(net.ix.pre[root])) || p.PassesLabel(lang, types.Unlabelled) {
				t.Errorf("a %s row passed a probe whose IN list excludes it", lang)
			}
		}
	}
	for _, p := range []*Probe{net.CompileRight(types.Compose("zorkmid", types.LangEnglish), nil, 0), net.CompileLeft(types.Compose("zorkmid", types.LangEnglish), nil, 0)} {
		for _, label := range []uint32{0, 1, types.ManySynsets, types.Unlabelled} {
			if p.PassesLabel(types.LangEnglish, label) {
				t.Errorf("a probe of a word with no synsets passed label %#x", label)
			}
		}
	}
}

// A polysemous constant compiles to one interval per synset, merged where
// they touch or nest: the accent net's stems name many synsets.
func TestPassesLabelManyRoots(t *testing.T) {
	net := accentNet()
	for _, stem := range []string{"école", "über", "plain"} {
		word := types.Compose(stem, types.LangEnglish)
		roots := net.SynsetsOf(types.LangEnglish, stem)
		if len(roots) < 2 {
			t.Fatalf("%q names %d synsets, want several", stem, len(roots))
		}
		p := net.CompileRight(word, nil, 0)
		ends := append([]uint32{p.lo, p.lo + p.n}, p.more...)
		for i := 1; i < len(ends); i++ {
			if ends[i] <= ends[i-1] {
				t.Fatalf("interval ends %v are not strictly increasing", ends)
			}
		}
		for s := range SynsetID(net.NumSynsets()) {
			want := false
			for _, r := range roots {
				want = want || net.IsDescendant(s, r)
			}
			if got := p.PassesLabel(types.LangEnglish, uint32(net.ix.pre[s])); got != want {
				t.Fatalf("%q: PassesLabel(pre(%d)) = %v, want %v", stem, s, got, want)
			}
		}
	}
}

// A net's fingerprint is the same for the same generation in every process
// (a database written in one is opened in another), and differs when the
// tree, a language or a single word form differs.
func TestFingerprint(t *testing.T) {
	gen := func(synsets int, seed int64, langs ...types.LangID) *Net {
		return Generate(Config{Synsets: synsets, Seed: seed, Langs: langs})
	}
	base := gen(300, 1, types.LangEnglish, types.LangTamil)
	// Pinned: a change to what Fingerprint digests refuses every database
	// written before it.
	if got, want := base.Fingerprint(), uint64(0x68e7da51ef4233d9); got != want {
		t.Errorf("Fingerprint = %#016x, pinned %#016x", got, want)
	}
	if base.Fingerprint() != gen(300, 1, types.LangEnglish, types.LangTamil).Fingerprint() {
		t.Error("two generations of one net differ")
	}
	renamed := gen(300, 1, types.LangEnglish, types.LangTamil)
	lem := make([][]string, renamed.NumSynsets())
	for id := range lem {
		lem[id] = renamed.WordForms(types.LangTamil, SynsetID(id))
	}
	lem[17] = append([]string{lem[17][0] + "x"}, lem[17][1:]...)
	renamed.forms[types.LangTamil] = layOut(lem, renamed.ix)
	for name, other := range map[string]*Net{
		"another seed":      gen(300, 2, types.LangEnglish, types.LangTamil),
		"another size":      gen(301, 1, types.LangEnglish, types.LangTamil),
		"another language":  gen(300, 1, types.LangEnglish, types.LangFrench),
		"one language less": gen(300, 1, types.LangEnglish),
		"one form renamed":  renamed,
	} {
		if other.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s: the fingerprint did not change", name)
		}
	}
	if base.Fingerprint() == 0 {
		t.Error("a fingerprint of 0 reads as no taxonomy")
	}
}
