package phonetic

import (
	"fmt"
	"strings"
	"sync"

	"github.com/mural-db/mural/internal/types"
)

// Converter renders text of one language into a canonical IPA phoneme
// string. Converters must be deterministic and safe for concurrent use: the
// engine calls them at insert time (phoneme materialization, §3.1) and the
// outside-the-server client calls them per row.
type Converter interface {
	// Lang identifies the language this converter handles.
	Lang() types.LangID
	// ToPhoneme converts text to its IPA phoneme string.
	ToPhoneme(text string) string
}

// Registry maps language identifiers to converters. It plays the role of
// the Dhvani integration in the paper's PostgreSQL prototype (§4.2): the
// engine consults it whenever a UniText value needs its phonemic form.
type Registry struct {
	mu         sync.RWMutex
	converters map[types.LangID]Converter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{converters: make(map[types.LangID]Converter)}
}

// DefaultRegistry returns a registry pre-loaded with the built-in
// converters for English, Hindi, Tamil, Kannada and French.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(NewEnglish())
	r.Register(NewHindi())
	r.Register(NewTamil())
	r.Register(NewKannada())
	r.Register(NewFrench())
	return r
}

// Register installs (or replaces) the converter for its language.
func (r *Registry) Register(c Converter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.converters[c.Lang()] = c
}

// Lookup returns the converter for lang.
func (r *Registry) Lookup(lang types.LangID) (Converter, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.converters[lang]
	return c, ok
}

// Langs returns the set of registered languages.
func (r *Registry) Langs() []types.LangID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]types.LangID, 0, len(r.converters))
	for l := range r.converters {
		out = append(out, l)
	}
	return out
}

// ToPhoneme converts a UniText to its phoneme string using the registered
// converter for its language. If the value already carries a materialized
// phoneme string, that is returned without reconversion. Unknown languages
// fall back to a lowercase copy of the text, so that Ψ degrades to
// case-insensitive approximate string matching rather than failing.
// ToPhoneme publishes its count at once; a row loop uses Convert.
func (r *Registry) ToPhoneme(u types.UniText) string {
	var t Tally
	p := r.Convert(u, &t)
	t.Publish()
	return p
}

// Convert is ToPhoneme counting into t instead of the process-wide counters.
func (r *Registry) Convert(u types.UniText, t *Tally) string {
	if u.Phoneme != "" {
		t.hits++
		return u.Phoneme
	}
	if c, ok := r.Lookup(u.Lang); ok {
		t.conversions++
		return c.ToPhoneme(u.Text)
	}
	t.fallbacks++
	return strings.ToLower(u.Text)
}

// Materialize returns a copy of u with its phoneme string filled in.
func (r *Registry) Materialize(u types.UniText) types.UniText {
	u.Phoneme = r.ToPhoneme(u)
	return u
}

// ruleSet is a longest-match-first rewriting engine shared by the rule-based
// converters. Rules map a grapheme sequence (at a given position class) to
// an IPA sequence. This mirrors how Dhvani-style engines are built: ordered
// context rules over the script's code points.
type ruleSet struct {
	// maxKey is the longest grapheme key length in runes.
	maxKey int
	// exact maps grapheme sequences to IPA strings.
	exact map[string]string
}

func newRuleSet(pairs map[string]string) *ruleSet {
	rs := &ruleSet{exact: pairs}
	for k := range pairs {
		if n := len([]rune(k)); n > rs.maxKey {
			rs.maxKey = n
		}
	}
	return rs
}

// apply rewrites text greedily, longest key first. Runes with no rule are
// dropped if drop is true, else copied through.
func (rs *ruleSet) apply(text string, drop bool) string {
	runes := []rune(text)
	var b strings.Builder
	for i := 0; i < len(runes); {
		matched := false
		max := rs.maxKey
		if rem := len(runes) - i; rem < max {
			max = rem
		}
		for l := max; l >= 1; l-- {
			key := string(runes[i : i+l])
			if out, ok := rs.exact[key]; ok {
				b.WriteString(out)
				i += l
				matched = true
				break
			}
		}
		if !matched {
			if !drop {
				b.WriteRune(runes[i])
			}
			i++
		}
	}
	return b.String()
}

// collapseRuns removes immediately repeated IPA runes (geminates), which
// keeps the metric robust to doubling differences across scripts
// ("Krishnan" vs "Krishnnan").
func collapseRuns(s string) string {
	var b strings.Builder
	var last rune = -1
	for _, r := range s {
		if r != last {
			b.WriteRune(r)
		}
		last = r
	}
	return b.String()
}

// errUnknownLang is returned by helpers that require a registered language.
var errUnknownLang = fmt.Errorf("phonetic: no converter registered for language")

// ConvertString is a convenience that converts text in the given language
// using the registry, returning an error for unregistered languages (used
// by the SQL layer to validate the IN <langs> clause eagerly).
func (r *Registry) ConvertString(text string, lang types.LangID) (string, error) {
	c, ok := r.Lookup(lang)
	if !ok {
		return "", fmt.Errorf("%w: %s", errUnknownLang, lang)
	}
	mG2PConversions.Inc()
	return c.ToPhoneme(text), nil
}
