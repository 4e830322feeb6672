package plan

import (
	"strings"
	"testing"
)

var testShards = []string{"h1:1", "h2:2", "h3:3"}

func planSharded(t *testing.T, q string) *Node {
	t.Helper()
	p := mkPlanner(testCatalog())
	p.Opts.Shards = testShards
	return planQuery(t, p, q)
}

// findOps collects nodes of one operator type in preorder.
func findOps(n *Node, op OpType) []*Node {
	var out []*Node
	if n.Op == op {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, findOps(c, op)...)
	}
	return out
}

func TestShardNoopBelowTwoShards(t *testing.T) {
	p := mkPlanner(testCatalog())
	for _, shards := range [][]string{nil, {"h1:1"}} {
		p.Opts.Shards = shards
		node := planQuery(t, p, `SELECT * FROM names`)
		if len(findOps(node, OpRemote)) != 0 {
			t.Errorf("shards=%v: plan grew Remote nodes:\n%s", shards, Format(node))
		}
	}
}

func TestShardRewritesScanIntoGatherOverRemotes(t *testing.T) {
	node := planSharded(t, `SELECT * FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`)
	gathers := findOps(node, OpGather)
	if len(gathers) != 1 {
		t.Fatalf("want one Gather, got %d:\n%s", len(gathers), Format(node))
	}
	g := gathers[0]
	if g.Workers != len(testShards) {
		t.Errorf("Gather workers = %d, want %d", g.Workers, len(testShards))
	}
	remotes := findOps(node, OpRemote)
	if len(remotes) != len(testShards) {
		t.Fatalf("want %d Remote children, got %d:\n%s", len(testShards), len(remotes), Format(node))
	}
	for i, r := range remotes {
		if r.ShardID != i || r.ShardAddr != testShards[i] {
			t.Errorf("remote %d routed to shard=%d addr=%s", i, r.ShardID, r.ShardAddr)
		}
		if len(r.Children) != 1 {
			t.Fatalf("remote %d has %d children", i, len(r.Children))
		}
		if _, err := EncodeFragment(r.Children[0]); err != nil {
			t.Errorf("remote %d fragment does not encode: %v", i, err)
		}
	}
}

func TestShardSplitsAggregate(t *testing.T) {
	node := planSharded(t, `SELECT lang(name), count(*) FROM names GROUP BY lang(name)`)
	aggs := findOps(node, OpAggregate)
	if len(aggs) != 1+len(testShards) {
		t.Fatalf("want coordinator agg + one partial per shard, got %d aggregates:\n%s", len(aggs), Format(node))
	}
	final := aggs[0]
	if len(final.Aggs) != 1 || !final.Aggs[0].Merge {
		t.Errorf("final aggregate not in merge mode: %+v", final.Aggs)
	}
	for _, partial := range aggs[1:] {
		if partial.Aggs[0].Merge {
			t.Error("shard-side partial aggregate marked Merge")
		}
	}
}

func TestShardKeepsSortAndJoinOnCoordinator(t *testing.T) {
	node := planSharded(t, `SELECT id FROM names WHERE pdist < 3 ORDER BY id`)
	if node.Op != OpSort && node.Children[0].Op != OpSort {
		// Projection may sit above the sort; just assert no Sort was pushed.
	}
	for _, r := range findOps(node, OpRemote) {
		if len(findOps(r.Children[0], OpSort)) != 0 {
			t.Errorf("Sort pushed into a fragment:\n%s", Format(node))
		}
	}

	join := planSharded(t, `SELECT count(*) FROM probe p, names n WHERE p.pname LEXEQUAL n.name THRESHOLD 2`)
	remotes := findOps(join, OpRemote)
	if len(remotes) == 0 {
		t.Fatalf("join inputs not sharded:\n%s", Format(join))
	}
	for _, r := range remotes {
		frag := Format(r.Children[0])
		if strings.Contains(frag, "Join") {
			t.Errorf("join pushed into a fragment:\n%s", frag)
		}
	}
}

func TestShardPushesLimitWithCoordinatorCopy(t *testing.T) {
	node := planSharded(t, `SELECT id FROM names LIMIT 10`)
	limits := findOps(node, OpLimit)
	// One coordinator copy plus the pushed copy inside each fragment (the
	// fragment is shared across Remote nodes, so preorder sees it N times).
	if len(limits) < 2 {
		t.Fatalf("limit not both pushed and kept: %d Limit nodes\n%s", len(limits), Format(node))
	}
	var aboveGather bool
	for _, l := range limits {
		if len(findOps(l, OpGather)) > 0 {
			aboveGather = true
		}
	}
	if !aboveGather {
		t.Errorf("no coordinator-side Limit above the Gather:\n%s", Format(node))
	}
}

// Planner.Plan shards before it parallelizes, so a fragment shipped to a
// shard carries no Parallel flag — the shard parallelizes what it decodes —
// even when the planner runs with workers to spare.
func TestShardedFragmentsAreSerial(t *testing.T) {
	p := mkPlanner(testCatalog())
	p.Opts.Shards, p.Opts.Workers = testShards, 4
	for _, q := range []string{
		`SELECT * FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`,
		`SELECT count(*) FROM names WHERE name LEXEQUAL unitext('nehru', english) THRESHOLD 2`,
		`SELECT count(*) FROM probe p, names n WHERE p.pname LEXEQUAL n.name THRESHOLD 2`,
	} {
		node := planQuery(t, p, q)
		remotes := findOps(node, OpRemote)
		if len(remotes) == 0 {
			t.Fatalf("%s: no Remote:\n%s", q, Format(node))
		}
		for _, r := range remotes {
			var walk func(n *Node)
			walk = func(n *Node) {
				if n.Parallel {
					t.Errorf("%s: %s under a Remote is marked parallel:\n%s", q, n.Op, Format(node))
				}
				for _, c := range n.Children {
					walk(c)
				}
			}
			walk(r)
		}
	}
}
