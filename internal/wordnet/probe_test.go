package wordnet

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

// fuzzNet is shared by every input: generating a taxonomy per input would be
// the whole cost of the run.
var fuzzNet = sync.OnceValue(func() *Net {
	return Generate(Config{Synsets: 3000, Seed: 5,
		Langs: []types.LangID{types.LangEnglish, types.LangTamil, types.LangFrench}})
})

// walk is Ω by parent pointers from every LHS synset: the reference each
// compiled form must equal.
func walk(net *Net, lhs, rhs types.UniText, langs []types.LangID) bool {
	if len(langs) > 0 {
		ok := false
		for _, l := range langs {
			ok = ok || l == lhs.Lang
		}
		if !ok {
			return false
		}
	}
	for _, s := range net.SynsetsOf(lhs.Lang, lhs.Text) {
		for _, r := range net.SynsetsOf(rhs.Lang, rhs.Text) {
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

// Every way Ω is evaluated — CompileRight in both forms, CompileLeft — must
// agree with the parent-pointer walk, whatever the synsets, the languages, the
// IN list and the letter case.
func FuzzOmegaAgree(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		f.Add(rng.Uint32(), rng.Uint32(), rng.Intn(4) == 0, uint16(rng.Uint32()), uint16(rng.Uint32()), uint8(rng.Uint32()))
	}
	f.Fuzz(func(t *testing.T, syn, up uint32, far bool, langs, caps uint16, junk uint8) {
		net := fuzzNet()
		lhs, rhs, in := omegaOperands(net, syn, up, far, langs, caps, junk)
		want := walk(net, lhs, rhs, in)
		got := map[string]bool{
			"CompileRight/words":  net.CompileRight(rhs, in, 1<<30).Match(lhs.Lang, []byte(lhs.Text)),
			"CompileRight/labels": net.CompileRight(rhs, in, 0).Match(lhs.Lang, []byte(lhs.Text)),
			"CompileLeft":         net.CompileLeft(lhs, in).Match(rhs.Lang, []byte(rhs.Text)),
		}
		for form, ok := range got {
			if ok != want {
				t.Errorf("%s(Ω(%q/%s, %q/%s) IN %v) = %v, the walk says %v", form, lhs.Text, lhs.Lang, rhs.Text, rhs.Lang, in, ok, want)
			}
		}
	})
}

// The word-set form holds TC(rhs)'s word forms in the admitted languages and
// nothing else; past maxWords the probe is the constant's labels alone.
func TestCompileRightForms(t *testing.T) {
	net := smallNet(t)
	history := types.Compose("History", types.LangEnglish)
	root := net.SynsetsOf(types.LangEnglish, "history")[0]
	size := net.ClosureSize(root)
	in := []types.LangID{types.LangEnglish, types.LangTamil}
	p := net.CompileRight(history, in, size*len(in))
	if p.net != nil {
		t.Fatalf("a closure of %d × %d languages within %d words compiled to the interval form", size, len(in), size*len(in))
	}
	for _, lang := range []types.LangID{types.LangEnglish, types.LangTamil} {
		want := 0
		for _, id := range net.ix.Closure(root) {
			want += len(net.WordForms(lang, id))
		}
		if got := len(p.words[lang]); got != want {
			t.Errorf("%s word set holds %d forms, TC(history) has %d", lang, got, want)
		}
	}
	if len(p.words) > int(types.LangFrench) && p.words[types.LangFrench] != nil {
		t.Error("French is not admitted, yet has a word set")
	}
	if !p.Match(types.LangTamil, []byte("TAMIL:Historiography")) {
		t.Error("the word set must fold case as SynsetsOf does")
	}
	if q := net.CompileRight(history, in, size*len(in)-1); q.net == nil || len(q.roots) != 1 || q.MemBytes() >= p.MemBytes() {
		t.Errorf("one word over the bound must compile to the constant's one synset, got %d roots", len(q.roots))
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
