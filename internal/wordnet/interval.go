package wordnet

// IntervalIndex realizes the paper's §4.3.1 future-work direction — a
// precomputed connection index for closure processing, in the spirit of the
// Hopi 2-hop cover it cites. For tree-shaped hierarchies (which WordNet's
// noun hypernymy almost is, and our generated taxonomy exactly is) the
// 2-hop cover degenerates into the classic DFS interval labeling: each
// synset gets [pre, post) numbers, and
//
//	y ∈ TC(x)  ⇔  pre(x) <= pre(y) < post(x)
//
// Membership is O(1) — no traversal, no hash table — and the closure of x
// enumerates as the contiguous pre-order slice [pre(x), post(x)), so
// |TC(x)| = post(x) − pre(x) without visiting anything.
//
// Every Net is labeled once, at generation, and Ω runs on the labels. The
// trade-offs the paper anticipated hold: the index costs O(n) space and a
// full rebuild on taxonomy update, whereas the §4.3 hash-table memoization
// needs no precomputation. Ablation E9 (bench) quantifies the comparison.
type IntervalIndex struct {
	pre  []int32
	post []int32
	// byPre[p] is the synset with pre-order number p, for closure
	// enumeration.
	byPre []SynsetID
}

// NewIntervalIndex labels the taxonomy with one DFS pass.
func NewIntervalIndex(net *Net) *IntervalIndex {
	n := net.NumSynsets()
	ix := &IntervalIndex{
		pre:   make([]int32, n),
		post:  make([]int32, n),
		byPre: make([]SynsetID, n),
	}
	counter := int32(0)
	// Iterative DFS from every root (the generator produces one root, but
	// the labeling is general).
	type frame struct {
		id    SynsetID
		child int
	}
	for start := 0; start < n; start++ {
		if net.Parent(SynsetID(start)) != NoSynset {
			continue
		}
		stack := []frame{{id: SynsetID(start)}}
		ix.pre[start] = counter
		ix.byPre[counter] = SynsetID(start)
		counter++
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			children := net.Children(top.id)
			if top.child < len(children) {
				c := children[top.child]
				top.child++
				ix.pre[c] = counter
				ix.byPre[counter] = c
				counter++
				stack = append(stack, frame{id: c})
				continue
			}
			ix.post[top.id] = counter
			stack = stack[:len(stack)-1]
		}
	}
	return ix
}

// Contains reports whether node ∈ TC(root) in O(1).
func (ix *IntervalIndex) Contains(node, root SynsetID) bool {
	p := ix.pre[node]
	return ix.pre[root] <= p && p < ix.post[root]
}

// ClosureSize returns |TC(root)| in O(1).
func (ix *IntervalIndex) ClosureSize(root SynsetID) int {
	return int(ix.post[root] - ix.pre[root])
}

// Closure enumerates TC(root) without traversal: the contiguous pre-order
// slice. The returned slice aliases the index and must not be modified.
func (ix *IntervalIndex) Closure(root SynsetID) []SynsetID {
	return ix.byPre[ix.pre[root]:ix.post[root]]
}
