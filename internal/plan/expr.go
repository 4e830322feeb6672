// Package plan implements the MURAL query planner: logical analysis of
// parsed SELECT statements, compiled positional expressions, access-path
// and join-order enumeration, and the operator cost and selectivity models
// of the paper's Section 3.3-3.4 (Table 3). The planner produces a physical
// Node tree that the exec package interprets.
package plan

import (
	"errors"
	"fmt"
	"strings"

	"github.com/mural-db/mural/internal/sql"
	"github.com/mural-db/mural/internal/types"
)

// ErrUnknownColumn marks a compile failure caused by a column that is not
// in the compiling schema. The planner treats it as "defer this conjunct to
// a wider schema"; every other compile error is a real semantic error and
// must surface to the user.
var ErrUnknownColumn = errors.New("unknown column")

// ColInfo describes one column of an intermediate schema: the relation
// alias it came from, its name and type.
type ColInfo struct {
	Rel  string
	Name string
	Kind types.Kind
}

// String renders the column for EXPLAIN.
func (c ColInfo) String() string {
	if c.Rel != "" {
		return c.Rel + "." + c.Name
	}
	return c.Name
}

// Expr is a compiled expression: column references are resolved to
// positions, so evaluation needs only a tuple (plus the engine's
// phonetic/semantic runtimes for the multilingual predicates).
type Expr interface{ exprNode() }

// ColIdx references a column by position.
type ColIdx struct {
	Idx  int
	Kind types.Kind
	// Display is the original name, for EXPLAIN.
	Display string
}

// Const is a literal.
type Const struct{ Val types.Value }

// Cmp is a comparison.
type Cmp struct {
	Op   sql.CmpOp
	L, R Expr
}

// AndOr is a logical connective.
type AndOr struct {
	Or   bool
	L, R Expr
}

// Neg is logical NOT.
type Neg struct{ Inner Expr }

// Like is the compiled LIKE predicate.
type Like struct {
	L, Pattern Expr
}

// Psi is the compiled Ψ predicate. Threshold is resolved (session default
// applied) at plan time.
type Psi struct {
	L, R      Expr
	Threshold int
	Langs     []types.LangID
}

// Omega is the compiled Ω predicate.
type Omega struct {
	L, R  Expr
	Langs []types.LangID
}

// Call is a compiled scalar function application (unitext, text, lang,
// phoneme). Aggregates never appear inside compiled expressions; the
// planner hoists them into Aggregate nodes and replaces them with ColIdx
// references.
type Call struct {
	Kind sql.FuncKind
	Name string // FuncCustom only
	Args []Expr
}

func (*ColIdx) exprNode() {}
func (*Const) exprNode()  {}
func (*Cmp) exprNode()    {}
func (*AndOr) exprNode()  {}
func (*Neg) exprNode()    {}
func (*Like) exprNode()   {}
func (*Psi) exprNode()    {}
func (*Omega) exprNode()  {}
func (*Call) exprNode()   {}

// ExprString renders a compiled expression for EXPLAIN.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *ColIdx:
		if x.Display != "" {
			return x.Display
		}
		return fmt.Sprintf("$%d", x.Idx)
	case *Const:
		if x.Val.Kind() == types.KindText {
			return "'" + x.Val.Text() + "'"
		}
		return x.Val.String()
	case *Cmp:
		return ExprString(x.L) + " " + x.Op.String() + " " + ExprString(x.R)
	case *AndOr:
		op := " AND "
		if x.Or {
			op = " OR "
		}
		return "(" + ExprString(x.L) + op + ExprString(x.R) + ")"
	case *Neg:
		return "NOT (" + ExprString(x.Inner) + ")"
	case *Like:
		return ExprString(x.L) + " LIKE " + ExprString(x.Pattern)
	case *Psi:
		s := fmt.Sprintf("Ψ(%s, %s, k=%d)", ExprString(x.L), ExprString(x.R), x.Threshold)
		if len(x.Langs) > 0 {
			s += " IN " + langNames(x.Langs)
		}
		return s
	case *Omega:
		s := fmt.Sprintf("Ω(%s, %s)", ExprString(x.L), ExprString(x.R))
		if len(x.Langs) > 0 {
			s += " IN " + langNames(x.Langs)
		}
		return s
	case *Call:
		fname := x.Kind.String()
		if x.Kind == sql.FuncCustom {
			fname = x.Name
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return fname + "(" + strings.Join(args, ", ") + ")"
	default:
		return "<?>"
	}
}

func langNames(langs []types.LangID) string {
	parts := make([]string, len(langs))
	for i, l := range langs {
		parts[i] = l.String()
	}
	return strings.Join(parts, ",")
}

// Compiler resolves AST expressions against a schema.
type Compiler struct {
	Schema []ColInfo
	// DefaultThreshold replaces an unspecified LEXEQUAL threshold (the
	// session system-table value of §4.2).
	DefaultThreshold int
}

// Compile resolves one AST expression.
func (c *Compiler) Compile(e sql.Expr) (Expr, error) {
	switch x := e.(type) {
	case *sql.Literal:
		return &Const{Val: x.Value}, nil
	case *sql.ColumnRef:
		idx := -1
		for i, col := range c.Schema {
			if col.Name != x.Column {
				continue
			}
			if x.Table != "" && col.Rel != x.Table {
				continue
			}
			if idx >= 0 {
				return nil, fmt.Errorf("plan: ambiguous column %q", x.String())
			}
			idx = i
		}
		if idx < 0 {
			return nil, fmt.Errorf("plan: %w %q", ErrUnknownColumn, x.String())
		}
		return &ColIdx{Idx: idx, Kind: c.Schema[idx].Kind, Display: c.Schema[idx].String()}, nil
	case *sql.Compare:
		l, err := c.Compile(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(x.Right)
		if err != nil {
			return nil, err
		}
		if lk, rk, ok := staticKinds(l, r); ok && !types.Comparable(lk, rk) {
			return nil, fmt.Errorf("plan: cannot compare %s with %s", lk, rk)
		}
		return &Cmp{Op: x.Op, L: l, R: r}, nil
	case *sql.Logical:
		l, err := c.Compile(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(x.Right)
		if err != nil {
			return nil, err
		}
		return &AndOr{Or: x.Op == sql.OpOr, L: l, R: r}, nil
	case *sql.Not:
		inner, err := c.Compile(x.Inner)
		if err != nil {
			return nil, err
		}
		return &Neg{Inner: inner}, nil
	case *sql.Like:
		l, err := c.Compile(x.Left)
		if err != nil {
			return nil, err
		}
		pat, err := c.Compile(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &Like{L: l, Pattern: pat}, nil
	case *sql.LexEqual:
		l, err := c.Compile(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(x.Right)
		if err != nil {
			return nil, err
		}
		k := x.Threshold
		if k < 0 {
			k = c.DefaultThreshold
		}
		return &Psi{L: l, R: r, Threshold: k, Langs: x.Langs}, nil
	case *sql.SemEqual:
		l, err := c.Compile(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := c.Compile(x.Right)
		if err != nil {
			return nil, err
		}
		return &Omega{L: l, R: r, Langs: x.Langs}, nil
	case *sql.FuncCall:
		if x.Kind.IsAggregate() {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", x.Kind)
		}
		call := &Call{Kind: x.Kind, Name: x.Name}
		for _, a := range x.Args {
			ca, err := c.Compile(a)
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, ca)
		}
		switch x.Kind {
		case sql.FuncUniText:
			if len(call.Args) != 2 {
				return nil, fmt.Errorf("plan: unitext takes (text, lang)")
			}
		case sql.FuncText, sql.FuncLang, sql.FuncPhoneme:
			if len(call.Args) != 1 {
				return nil, fmt.Errorf("plan: %s takes one argument", x.Kind)
			}
		case sql.FuncCustom:
			if len(call.Args) != 2 {
				return nil, fmt.Errorf("plan: registered operator %s takes two arguments", x.Name)
			}
		}
		return call, nil
	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

func staticKinds(l, r Expr) (types.Kind, types.Kind, bool) {
	lk, lok := staticKind(l)
	rk, rok := staticKind(r)
	return lk, rk, lok && rok
}

func staticKind(e Expr) (types.Kind, bool) {
	switch x := e.(type) {
	case *ColIdx:
		return x.Kind, true
	case *Const:
		if x.Val.IsNull() {
			return types.KindNull, false
		}
		return x.Val.Kind(), true
	default:
		return types.KindNull, false
	}
}

// ExprKind infers the static result kind of a compiled expression, used for
// projection schemas. Unknown cases default to TEXT.
func ExprKind(e Expr) types.Kind {
	switch x := e.(type) {
	case *ColIdx:
		return x.Kind
	case *Const:
		return x.Val.Kind()
	case *Cmp, *AndOr, *Neg, *Like, *Psi, *Omega:
		return types.KindBool
	case *Call:
		switch x.Kind {
		case sql.FuncUniText:
			return types.KindUniText
		case sql.FuncText, sql.FuncLang, sql.FuncPhoneme:
			return types.KindText
		case sql.FuncCount:
			return types.KindInt
		case sql.FuncSum, sql.FuncAvg:
			return types.KindFloat
		default:
			return types.KindText
		}
	default:
		return types.KindText
	}
}

// Walk visits every node of a compiled expression tree.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Cmp:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *AndOr:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Neg:
		Walk(x.Inner, fn)
	case *Like:
		Walk(x.L, fn)
		Walk(x.Pattern, fn)
	case *Psi:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Omega:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Call:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	}
}
