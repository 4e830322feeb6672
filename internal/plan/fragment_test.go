package plan

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mural-db/mural/internal/sql"
)

// fragmentQueries are SELECT shapes whose plans (or pushable subtrees) the
// fragment codec must carry losslessly.
var fragmentQueries = []string{
	`SELECT * FROM names`,
	`SELECT id, text(name) FROM names WHERE pdist < 4`,
	`SELECT * FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`,
	`SELECT * FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2 IN english, hindi`,
	`SELECT * FROM names WHERE name SEMEQUAL unitext('nehru', english)`,
	`SELECT count(*), sum(pdist), min(id), max(id) FROM names`,
	`SELECT lang(name), count(*) FROM names GROUP BY lang(name)`,
	`SELECT DISTINCT pdist FROM names LIMIT 7`,
	`SELECT * FROM names WHERE id = 3 OR (pdist > 2 AND NOT (id < 1))`,
	`SELECT * FROM names WHERE text(name) LIKE 'ne%'`,
}

// pushableSubtree descends past exchange operators, which the fragment
// whitelist excludes (fragments never nest).
func pushableSubtree(n *Node) *Node {
	switch n.Op {
	case OpGather, OpRemote:
		for _, c := range n.Children {
			if s := pushableSubtree(c); s != nil {
				return s
			}
		}
		return nil
	default:
		return n
	}
}

func TestFragmentRoundTrip(t *testing.T) {
	p := mkPlanner(testCatalog())
	for _, q := range fragmentQueries {
		node := pushableSubtree(planQuery(t, p, q))
		if node == nil {
			t.Fatalf("%s: no pushable subtree", q)
		}
		data, err := EncodeFragment(node)
		if err != nil {
			t.Fatalf("%s: encode: %v", q, err)
		}
		back, err := DecodeFragment(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", q, err)
		}
		if got, want := Format(back), Format(node); got != want {
			t.Errorf("%s: fragment round trip drifted:\n got: %s\nwant: %s", q, got, want)
		}
		// Idempotence: re-encoding the decoded tree is byte-identical.
		data2, err := EncodeFragment(back)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", q, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: re-encoded fragment differs", q)
		}
	}
}

func TestFragmentRejectsExchangeOps(t *testing.T) {
	inner := &Node{Op: OpSeqScan, Table: "names"}
	for _, n := range []*Node{
		{Op: OpGather, Children: []*Node{inner}},
		{Op: OpRemote, Children: []*Node{inner}},
	} {
		if _, err := EncodeFragment(n); err == nil {
			t.Errorf("EncodeFragment(%s) must fail: exchanges cannot nest in fragments", n.Op)
		}
	}
}

func TestDecodeFragmentRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{{{`,
		"empty object":    `{}`,
		"unknown op":      `{"op":"teleport"}`,
		"exchange op":     `{"op":"gather","children":[{"op":"seqscan","table":"names"}]}`,
		"bad arity":       `{"op":"filter","children":[]}`,
		"two-child scan":  `{"op":"seqscan","table":"t","children":[{"op":"seqscan","table":"t"},{"op":"seqscan","table":"t"}]}`,
		"indexless probe": `{"op":"mtreescan","table":"names"}`,
		"bad agg kind":    `{"op":"aggregate","children":[{"op":"seqscan","table":"t"}],"aggs":[{"kind":99}]}`,
	}
	for name, data := range cases {
		if _, err := DecodeFragment([]byte(data)); err == nil {
			t.Errorf("%s: DecodeFragment accepted %q", name, data)
		}
	}
}

// The codec admits exactly what exchange placement ships: joins and sorts
// stay at the coordinator, so a fragment carrying one is refused whole.
func TestDecodeFragmentRejectsCoordinatorOps(t *testing.T) {
	scan := `{"op":"seqscan","table":"t","cols":[{"name":"n","kind":1}]}`
	for _, op := range []string{"nljoin", "hashjoin", "psijoin", "psiindexjoin", "omegajoin"} {
		data := `{"op":"` + op + `","children":[` + scan + `,` + scan + `],"index":{"index":"ix"}}`
		if _, err := DecodeFragment([]byte(data)); err == nil {
			t.Errorf("DecodeFragment accepted a %s", op)
		}
	}
	sort := `{"op":"sort","children":[` + scan + `],"sort_keys":[{"t":"col"}],"sort_desc":[false]}`
	if _, err := DecodeFragment([]byte(sort)); err == nil {
		t.Error("DecodeFragment accepted a sort")
	}
	// Nor may a partial aggregate sit anywhere but at the fragment's root.
	nested := `{"op":"limit","limit_n":1,"children":[{"op":"aggregate","children":[` + scan + `],"aggs":[{"kind":` +
		fmt.Sprint(int(sql.FuncCount)) + `}]}]}`
	if _, err := DecodeFragment([]byte(nested)); err == nil {
		t.Error("DecodeFragment accepted an aggregate below a limit")
	}
}

// shippedFragments are the fragments the sharded planner ships for q: the
// subtree under each Remote.
func shippedFragments(tb testing.TB, p *Planner, q string) []*Node {
	var out []*Node
	for _, r := range findOps(planQuery(tb, p, q), OpRemote) {
		out = append(out, r.Children[0])
	}
	return out
}

func TestDecodeFragmentDepthBounded(t *testing.T) {
	// 300 nested Filters exceed maxFragmentDepth; decode must fail cleanly,
	// not exhaust the stack.
	var b strings.Builder
	for i := 0; i < 300; i++ {
		b.WriteString(`{"op":"filter","children":[`)
	}
	b.WriteString(`{"op":"seqscan","table":"t"}`)
	for i := 0; i < 300; i++ {
		b.WriteString(`]}`)
	}
	if _, err := DecodeFragment([]byte(b.String())); err == nil {
		t.Error("DecodeFragment accepted a 300-deep fragment")
	}
}

func FuzzDecodeFragment(f *testing.F) {
	p := mkPlanner(testCatalog())
	for _, q := range fragmentQueries {
		node := pushableSubtree(planQuery(f, p, q))
		if node == nil {
			continue
		}
		if data, err := EncodeFragment(node); err == nil {
			f.Add(data)
		}
	}
	// What the sharded planner ships: the partial Aggregate with its
	// placeholder Projs, and the pushed Limit and Distinct.
	sharded := mkPlanner(testCatalog())
	sharded.Opts.Shards = testShards
	for _, q := range []string{
		`SELECT lang(name), count(*), min(id) FROM names GROUP BY lang(name)`,
		`SELECT id FROM names WHERE pdist < 4 LIMIT 10`,
		`SELECT DISTINCT pdist FROM names`,
	} {
		for _, frag := range shippedFragments(f, sharded, q) {
			data, err := EncodeFragment(frag)
			if err != nil {
				f.Fatalf("%s: shipped fragment does not encode: %v", q, err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"op":"seqscan","table":"t"}`))
	f.Add([]byte(`{"op":"filter","children":[{"op":"seqscan","table":"t"}],"cond":{"t":"cmp","op":0}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		node, err := DecodeFragment(data)
		if err != nil {
			return
		}
		// Whatever decodes is a plan placement could have shipped, and
		// re-encodes: the coordinator never ships a fragment the shard
		// cannot validate and the shard never accepts one it could not have
		// produced.
		if !pushable(node, true) {
			t.Fatalf("decoded fragment is not pushable:\n%s", Format(node))
		}
		if _, err := EncodeFragment(node); err != nil {
			t.Fatalf("decoded fragment does not re-encode: %v", err)
		}
	})
}
