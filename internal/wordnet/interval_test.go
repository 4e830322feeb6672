package wordnet

import (
	"math/rand"
	"testing"

	"github.com/mural-db/mural/internal/types"
)

func TestIntervalIndexAgreesWithClosure(t *testing.T) {
	net := Generate(Config{Synsets: 8000, Seed: 17})
	ix := NewIntervalIndex(net)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		root := SynsetID(rng.Intn(net.NumSynsets()))
		closure := net.Closure(root)
		if got := ix.ClosureSize(root); got != len(closure) {
			t.Fatalf("root %d: interval size %d, closure %d", root, got, len(closure))
		}
		enum := ix.Closure(root)
		if len(enum) != len(closure) {
			t.Fatalf("root %d: enumeration length %d", root, len(enum))
		}
		for _, id := range enum {
			if _, in := closure[id]; !in {
				t.Fatalf("root %d: enumerated %d not in closure", root, id)
			}
		}
		// Membership spot checks, positive and negative.
		for probe := 0; probe < 200; probe++ {
			node := SynsetID(rng.Intn(net.NumSynsets()))
			_, want := closure[node]
			if got := ix.Contains(node, root); got != want {
				t.Fatalf("Contains(%d, %d) = %v, want %v", node, root, got, want)
			}
		}
	}
}

func TestIntervalIndexWholeTree(t *testing.T) {
	net := Generate(Config{Synsets: 500, Seed: 2})
	ix := NewIntervalIndex(net)
	if ix.ClosureSize(0) != net.NumSynsets() {
		t.Errorf("root closure = %d", ix.ClosureSize(0))
	}
	// A leaf contains only itself.
	for id := net.NumSynsets() - 1; id >= 0; id-- {
		if len(net.Children(SynsetID(id))) == 0 {
			if ix.ClosureSize(SynsetID(id)) != 1 {
				t.Errorf("leaf %d closure = %d", id, ix.ClosureSize(SynsetID(id)))
			}
			break
		}
	}
}

// BenchmarkClosureMembershipHash is §4.3's strategy: the closure
// materialized once as a hash set, probed per member.
func BenchmarkClosureMembershipHash(b *testing.B) {
	net := Generate(Config{Synsets: 50000, Seed: 2})
	closure := net.Closure(net.FindClosureOfSize(5000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = closure[SynsetID(i%50000)]
	}
}

func BenchmarkClosureMembershipInterval(b *testing.B) {
	net := Generate(Config{Synsets: 50000, Seed: 2})
	ix := NewIntervalIndex(net)
	root := net.FindClosureOfSize(5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Contains(SynsetID(i%50000), root)
	}
}

var _ = types.LangEnglish
