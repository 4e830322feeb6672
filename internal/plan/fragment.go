// Fragment (de)serialization: the coordinator ships a plan subtree to a
// shard as a MsgFragment payload, and the shard decodes it back into a Node
// tree it places and executes locally. The codec is a JSON tagged union over
// a strict whitelist of operators and expression forms, and a fragment is
// accepted only in the shape exchange placement ships (pushable) — a shard
// never executes an operator the coordinator could not have meant to push
// down (no join, no sort, and no exchange: fragments cannot recurse).
// Constants travel in the storage value encoding, so a probe constant
// reaches the shard bit-identical to the coordinator's.
package plan

import (
	"encoding/json"
	"fmt"

	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// fragOps maps the wire operator tags to OpTypes: exactly the operators
// pushable admits.
var fragOps = map[string]OpType{
	"seqscan":     OpSeqScan,
	"btreescan":   OpBTreeScan,
	"mtreescan":   OpMTreeScan,
	"mdiscan":     OpMDIScan,
	"qgramscan":   OpQGramScan,
	"filter":      OpFilter,
	"project":     OpProject,
	"materialize": OpMaterialize,
	"limit":       OpLimit,
	"distinct":    OpDistinct,
	"aggregate":   OpAggregate,
}

var fragOpNames = func() map[OpType]string {
	m := make(map[OpType]string, len(fragOps))
	for name, op := range fragOps {
		m[op] = name
	}
	return m
}()

// fragNode is the wire form of one plan node.
type fragNode struct {
	Op       string      `json:"op"`
	Children []*fragNode `json:"children,omitempty"`
	Cols     []fragCol   `json:"cols,omitempty"`

	EstRows float64 `json:"est_rows,omitempty"`
	EstCost float64 `json:"est_cost,omitempty"`

	Table string     `json:"table,omitempty"`
	Alias string     `json:"alias,omitempty"`
	Index *fragIndex `json:"index,omitempty"`

	Cond *fragExpr `json:"cond,omitempty"`

	Projs    []*fragExpr `json:"projs,omitempty"`
	HasProjs bool        `json:"has_projs,omitempty"`
	ColNames []string    `json:"col_names,omitempty"`

	GroupBy []*fragExpr `json:"group_by,omitempty"`
	Aggs    []fragAgg   `json:"aggs,omitempty"`

	LimitN int64 `json:"limit_n,omitempty"`
}

type fragCol struct {
	Rel  string `json:"rel,omitempty"`
	Name string `json:"name,omitempty"`
	Kind int    `json:"kind"`
}

type fragIndex struct {
	Index     string    `json:"index"`
	EqKey     *fragExpr `json:"eq_key,omitempty"`
	Lo        *fragExpr `json:"lo,omitempty"`
	Hi        *fragExpr `json:"hi,omitempty"`
	Probe     *fragExpr `json:"probe,omitempty"`
	Threshold int       `json:"threshold,omitempty"`
	Langs     []int     `json:"langs,omitempty"`
	Col       int       `json:"col,omitempty"`
}

// fragAgg is one aggregate of a partial Aggregate (never a merging one).
type fragAgg struct {
	Kind int       `json:"kind"`
	Arg  *fragExpr `json:"arg,omitempty"`
}

// fragExpr is the wire form of one compiled expression: a tagged union with
// exactly one shape per tag. Constants carry the storage value encoding.
type fragExpr struct {
	T string `json:"t"`

	// col
	Idx     int    `json:"idx,omitempty"`
	Kind    int    `json:"kind,omitempty"`
	Display string `json:"display,omitempty"`

	// const: types.AppendValue encoding (JSON base64s []byte)
	Val []byte `json:"val,omitempty"`

	// cmp / andor
	Op int  `json:"op,omitempty"`
	Or bool `json:"or,omitempty"`

	L       *fragExpr `json:"l,omitempty"`
	R       *fragExpr `json:"r,omitempty"`
	Inner   *fragExpr `json:"inner,omitempty"`
	Pattern *fragExpr `json:"pattern,omitempty"`

	// psi / omega
	Threshold int   `json:"threshold,omitempty"`
	Langs     []int `json:"langs,omitempty"`

	// call
	FuncKind int         `json:"func_kind,omitempty"`
	Name     string      `json:"name,omitempty"`
	Args     []*fragExpr `json:"args,omitempty"`
}

// EncodeFragment serializes a pushable plan subtree for shipment to a shard.
func EncodeFragment(n *Node) ([]byte, error) {
	if !pushable(n, true) {
		return nil, fmt.Errorf("plan: %s cannot be shipped in a fragment", n.Op)
	}
	fn, err := encodeNode(n)
	if err != nil {
		return nil, err
	}
	return json.Marshal(fn)
}

// DecodeFragment parses a shipped fragment back into an executable plan
// tree. Unknown operators or expression forms, and any tree pushable rejects,
// are refused — a malformed or hostile fragment fails decode, it never
// reaches the executor.
func DecodeFragment(data []byte) (*Node, error) {
	var fn fragNode
	if err := json.Unmarshal(data, &fn); err != nil {
		return nil, fmt.Errorf("plan: bad fragment: %w", err)
	}
	n, err := decodeNode(&fn, 0)
	if err == nil && !pushable(n, true) {
		return nil, fmt.Errorf("plan: fragment rooted at %s is not a plan a shard runs", n.Op)
	}
	return n, err
}

func encodeNode(n *Node) (*fragNode, error) {
	fn := &fragNode{
		Op:       fragOpNames[n.Op],
		EstRows:  n.EstRows,
		EstCost:  n.EstCost,
		Table:    n.Table,
		Alias:    n.Alias,
		ColNames: n.ColNames,
		LimitN:   n.LimitN,
	}
	for _, c := range n.Children {
		fc, err := encodeNode(c)
		if err != nil {
			return nil, err
		}
		fn.Children = append(fn.Children, fc)
	}
	for _, col := range n.Cols {
		fn.Cols = append(fn.Cols, fragCol{Rel: col.Rel, Name: col.Name, Kind: int(col.Kind)})
	}
	if n.Index != nil {
		fi := &fragIndex{Index: n.Index.Index, Threshold: n.Index.Threshold, Langs: encodeLangs(n.Index.Langs), Col: n.Index.Col}
		var err error
		if fi.EqKey, err = encodeExprOpt(n.Index.EqKey); err != nil {
			return nil, err
		}
		if fi.Lo, err = encodeExprOpt(n.Index.Lo); err != nil {
			return nil, err
		}
		if fi.Hi, err = encodeExprOpt(n.Index.Hi); err != nil {
			return nil, err
		}
		if fi.Probe, err = encodeExprOpt(n.Index.Probe); err != nil {
			return nil, err
		}
		fn.Index = fi
	}
	var err error
	if fn.Cond, err = encodeExprOpt(n.Cond); err != nil {
		return nil, err
	}
	// Projs uses nil entries as "next aggregate" placeholders, so the slice
	// itself must round-trip even when every entry is nil (HasProjs keeps an
	// all-placeholder list distinguishable from no list).
	if n.Projs != nil {
		fn.HasProjs = true
		for _, p := range n.Projs {
			fp, err := encodeExprOpt(p)
			if err != nil {
				return nil, err
			}
			fn.Projs = append(fn.Projs, fp)
		}
	}
	for _, g := range n.GroupBy {
		fg, err := encodeExpr(g)
		if err != nil {
			return nil, err
		}
		fn.GroupBy = append(fn.GroupBy, fg)
	}
	for _, a := range n.Aggs {
		fa := fragAgg{Kind: int(a.Kind)}
		if a.Arg != nil {
			var err error
			if fa.Arg, err = encodeExpr(a.Arg); err != nil {
				return nil, err
			}
		}
		fn.Aggs = append(fn.Aggs, fa)
	}
	return fn, nil
}

// maxFragmentDepth bounds decode recursion so a hostile deeply-nested
// fragment cannot blow the stack.
const maxFragmentDepth = 256

func decodeNode(fn *fragNode, depth int) (*Node, error) {
	if fn == nil {
		return nil, fmt.Errorf("plan: nil node in fragment")
	}
	if depth > maxFragmentDepth {
		return nil, fmt.Errorf("plan: fragment nesting exceeds %d", maxFragmentDepth)
	}
	op, ok := fragOps[fn.Op]
	if !ok {
		return nil, fmt.Errorf("plan: fragment carries unknown operator %q", fn.Op)
	}
	n := &Node{
		Op:       op,
		EstRows:  fn.EstRows,
		EstCost:  fn.EstCost,
		Table:    fn.Table,
		Alias:    fn.Alias,
		ColNames: fn.ColNames,
		LimitN:   fn.LimitN,
	}
	for _, fc := range fn.Children {
		c, err := decodeNode(fc, depth+1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	for _, col := range fn.Cols {
		n.Cols = append(n.Cols, ColInfo{Rel: col.Rel, Name: col.Name, Kind: types.Kind(col.Kind)})
	}
	if fn.Index != nil {
		ic := &IndexCond{Index: fn.Index.Index, Threshold: fn.Index.Threshold, Langs: decodeLangs(fn.Index.Langs), Col: fn.Index.Col}
		var err error
		if ic.EqKey, err = decodeExprOpt(fn.Index.EqKey, depth); err != nil {
			return nil, err
		}
		if ic.Lo, err = decodeExprOpt(fn.Index.Lo, depth); err != nil {
			return nil, err
		}
		if ic.Hi, err = decodeExprOpt(fn.Index.Hi, depth); err != nil {
			return nil, err
		}
		if ic.Probe, err = decodeExprOpt(fn.Index.Probe, depth); err != nil {
			return nil, err
		}
		n.Index = ic
	}
	var err error
	if n.Cond, err = decodeExprOpt(fn.Cond, depth); err != nil {
		return nil, err
	}
	if fn.HasProjs || len(fn.Projs) > 0 {
		n.Projs = make([]Expr, 0, len(fn.Projs))
		for _, fp := range fn.Projs {
			p, err := decodeExprOpt(fp, depth)
			if err != nil {
				return nil, err
			}
			n.Projs = append(n.Projs, p)
		}
	}
	for _, fg := range fn.GroupBy {
		g, err := decodeExpr(fg, depth)
		if err != nil {
			return nil, err
		}
		n.GroupBy = append(n.GroupBy, g)
	}
	for _, fa := range fn.Aggs {
		a := AggSpec{Kind: sql.FuncKind(fa.Kind)}
		if !a.Kind.IsAggregate() {
			return nil, fmt.Errorf("plan: fragment aggregate kind %d is not an aggregate", fa.Kind)
		}
		if fa.Arg != nil {
			if a.Arg, err = decodeExpr(fa.Arg, depth); err != nil {
				return nil, err
			}
		}
		n.Aggs = append(n.Aggs, a)
	}
	return n, nil
}

func encodeExprOpt(e Expr) (*fragExpr, error) {
	if e == nil {
		return nil, nil
	}
	return encodeExpr(e)
}

func encodeExpr(e Expr) (*fragExpr, error) {
	switch x := e.(type) {
	case *ColIdx:
		return &fragExpr{T: "col", Idx: x.Idx, Kind: int(x.Kind), Display: x.Display}, nil
	case *Const:
		return &fragExpr{T: "const", Val: types.AppendValue(nil, x.Val)}, nil
	case *Cmp:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &fragExpr{T: "cmp", Op: int(x.Op), L: l, R: r}, nil
	case *AndOr:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &fragExpr{T: "andor", Or: x.Or, L: l, R: r}, nil
	case *Neg:
		in, err := encodeExpr(x.Inner)
		if err != nil {
			return nil, err
		}
		return &fragExpr{T: "neg", Inner: in}, nil
	case *Like:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		p, err := encodeExpr(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &fragExpr{T: "like", L: l, Pattern: p}, nil
	case *Psi:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &fragExpr{T: "psi", L: l, R: r, Threshold: x.Threshold, Langs: encodeLangs(x.Langs)}, nil
	case *Omega:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &fragExpr{T: "omega", L: l, R: r, Langs: encodeLangs(x.Langs)}, nil
	case *Call:
		fe := &fragExpr{T: "call", FuncKind: int(x.Kind), Name: x.Name}
		for _, a := range x.Args {
			fa, err := encodeExpr(a)
			if err != nil {
				return nil, err
			}
			fe.Args = append(fe.Args, fa)
		}
		return fe, nil
	default:
		return nil, fmt.Errorf("plan: expression %T cannot be shipped in a fragment", e)
	}
}

func decodeExprOpt(fe *fragExpr, depth int) (Expr, error) {
	if fe == nil {
		return nil, nil
	}
	return decodeExpr(fe, depth)
}

func decodeExpr(fe *fragExpr, depth int) (Expr, error) {
	if fe == nil {
		return nil, fmt.Errorf("plan: nil expression in fragment")
	}
	if depth > maxFragmentDepth {
		return nil, fmt.Errorf("plan: fragment nesting exceeds %d", maxFragmentDepth)
	}
	switch fe.T {
	case "col":
		return &ColIdx{Idx: fe.Idx, Kind: types.Kind(fe.Kind), Display: fe.Display}, nil
	case "const":
		v, _, err := types.DecodeValue(fe.Val)
		if err != nil {
			return nil, fmt.Errorf("plan: fragment constant: %w", err)
		}
		return &Const{Val: v}, nil
	case "cmp":
		l, err := decodeExpr(fe.L, depth+1)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(fe.R, depth+1)
		if err != nil {
			return nil, err
		}
		return &Cmp{Op: sql.CmpOp(fe.Op), L: l, R: r}, nil
	case "andor":
		l, err := decodeExpr(fe.L, depth+1)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(fe.R, depth+1)
		if err != nil {
			return nil, err
		}
		return &AndOr{Or: fe.Or, L: l, R: r}, nil
	case "neg":
		in, err := decodeExpr(fe.Inner, depth+1)
		if err != nil {
			return nil, err
		}
		return &Neg{Inner: in}, nil
	case "like":
		l, err := decodeExpr(fe.L, depth+1)
		if err != nil {
			return nil, err
		}
		p, err := decodeExpr(fe.Pattern, depth+1)
		if err != nil {
			return nil, err
		}
		return &Like{L: l, Pattern: p}, nil
	case "psi":
		l, err := decodeExpr(fe.L, depth+1)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(fe.R, depth+1)
		if err != nil {
			return nil, err
		}
		return &Psi{L: l, R: r, Threshold: fe.Threshold, Langs: decodeLangs(fe.Langs)}, nil
	case "omega":
		l, err := decodeExpr(fe.L, depth+1)
		if err != nil {
			return nil, err
		}
		r, err := decodeExpr(fe.R, depth+1)
		if err != nil {
			return nil, err
		}
		return &Omega{L: l, R: r, Langs: decodeLangs(fe.Langs)}, nil
	case "call":
		c := &Call{Kind: sql.FuncKind(fe.FuncKind), Name: fe.Name}
		if c.Kind.IsAggregate() {
			return nil, fmt.Errorf("plan: fragment scalar call carries aggregate kind %d", fe.FuncKind)
		}
		for _, fa := range fe.Args {
			a, err := decodeExpr(fa, depth+1)
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, a)
		}
		return c, nil
	default:
		return nil, fmt.Errorf("plan: fragment carries unknown expression form %q", fe.T)
	}
}

func encodeLangs(langs []types.LangID) []int {
	if len(langs) == 0 {
		return nil
	}
	out := make([]int, len(langs))
	for i, l := range langs {
		out[i] = int(l)
	}
	return out
}

func decodeLangs(ids []int) []types.LangID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]types.LangID, len(ids))
	for i, id := range ids {
		out[i] = types.LangID(id)
	}
	return out
}
