package mural

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode"

	"github.com/mural-db/mural/internal/exec"
	"github.com/mural-db/mural/internal/plan"
	"github.com/mural-db/mural/internal/sql"
)

// Session is one client's line into the engine. Data, catalog and caches are
// the engine's; the settings are the session's own: SET changes them for
// this session only, for as long as it lives, and nothing about them is
// stored. A Session is safe for concurrent use, and each statement runs under
// the settings current when it began.
type Session struct {
	e   *Engine
	set atomic.Pointer[settings]
}

// Session opens a session that starts from the Config defaults.
func (e *Engine) Session() *Session {
	set := &settings{opts: plan.DefaultOptions(), timeout: e.cfg.QueryTimeout, maxMem: int(e.cfg.MaxQueryMem)}
	if set.opts.Workers = e.cfg.Workers; set.opts.Workers <= 0 {
		set.opts.Workers = runtime.GOMAXPROCS(0)
	}
	set.planKey = fmt.Sprintf("%#v", set.opts)
	s := &Session{e: e}
	s.set.Store(set)
	return s
}

// settings is a session's effective configuration. A published value is
// never written again: SET swaps in a changed copy, so a statement reads the
// snapshot it began with without a lock.
type settings struct {
	opts    plan.Options  // everything the planner reads
	timeout time.Duration // per-statement deadline; 0 is none
	maxMem  int           // per-statement memory ceiling in bytes; 0 is none
	planKey string        // renders opts: a plan cached under one key serves no other
}

// setting is one name SET and SHOW accept. field points at the value it
// governs: a *bool switch (on/off), an *int of at least min, a
// *time.Duration in milliseconds, or a *[]string of relation names.
type setting struct {
	name  string
	min   int64
	field func(*settings) any
}

// settingTable is the one place a setting's name, format and meaning are
// written down.
var settingTable = []setting{
	{name: "workers", min: 1, field: func(s *settings) any { return &s.opts.Workers }},
	{name: "force_join_order", field: func(s *settings) any { return &s.opts.ForceOrder }},
	// The paper's "user-settable threshold in a system table" (§4.2): the Ψ
	// threshold of a query that does not spell THRESHOLD.
	{name: "lexequal_threshold", field: func(s *settings) any { return &s.opts.Threshold }},
	{name: "enable_hashjoin", field: func(s *settings) any { return &s.opts.EnableHashJoin }},
	{name: "enable_indexscan", field: func(s *settings) any { return &s.opts.EnableIndexScan }},
	{name: "enable_mtree", field: func(s *settings) any { return &s.opts.EnableMTree }},
	{name: "enable_mdi", field: func(s *settings) any { return &s.opts.EnableMDI }},
	{name: "enable_qgram", field: func(s *settings) any { return &s.opts.EnableQGram }},
	{name: "statement_timeout", field: func(s *settings) any { return &s.timeout }},
	{name: "max_query_mem", field: func(s *settings) any { return &s.maxMem }},
}

var bools = map[string]bool{"on": true, "true": true, "1": true, "off": false, "false": false, "0": false}

// parse writes v into the setting's field of s.
func (st *setting) parse(s *settings, v string) error {
	v = strings.TrimSpace(v)
	switch p := st.field(s).(type) {
	case *bool:
		b, ok := bools[strings.ToLower(v)]
		if !ok {
			return errors.New("want on or off")
		}
		*p = b
	case *[]string:
		*p = nil
		for _, e := range strings.Split(v, ",") {
			if e = strings.TrimSpace(e); e == "" {
				continue
			}
			if !isIdent(e) {
				return fmt.Errorf("bad entry %q", e)
			}
			*p = append(*p, e)
		}
	default:
		const max = int64(math.MaxInt64 / time.Millisecond) // a Duration in ms cannot overflow
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < st.min || n > max {
			return fmt.Errorf("want an integer from %d to %d", st.min, max)
		}
		if d, ok := p.(*time.Duration); ok {
			*d = time.Duration(n) * time.Millisecond
		} else {
			*p.(*int) = int(n)
		}
	}
	return nil
}

// show renders the setting's value in s.
func (st *setting) show(s *settings) string {
	switch p := st.field(s).(type) {
	case *bool:
		if *p {
			return "on"
		}
		return "off"
	case *[]string:
		return strings.Join(*p, ",")
	case *time.Duration:
		return strconv.FormatInt(p.Milliseconds(), 10)
	default:
		return strconv.Itoa(*p.(*int))
	}
}

// isIdent reports whether e can name a relation.
func isIdent(e string) bool {
	return !unicode.IsDigit(rune(e[0])) && strings.IndexFunc(e, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_'
	}) < 0
}

func lookupSetting(name string) (*setting, error) {
	for i := range settingTable {
		if settingTable[i].name == name {
			return &settingTable[i], nil
		}
	}
	return nil, fmt.Errorf("mural: unrecognized configuration parameter %q", name)
}

// apply runs SET name = value; a bad name or value changes nothing.
func (s *Session) apply(name, value string) error {
	st, err := lookupSetting(name)
	if err != nil {
		return err
	}
	for {
		cur := s.set.Load()
		next := *cur
		if err := st.parse(&next, value); err != nil {
			return fmt.Errorf("mural: invalid value for parameter %q: %q (%v)", name, value, err)
		}
		next.planKey = fmt.Sprintf("%#v", next.opts)
		if s.set.CompareAndSwap(cur, &next) {
			return nil
		}
	}
}

// ExecContext is QueryContext drained into a Result: the statement's
// admission slot and deadline are released by the time it returns.
func (s *Session) ExecContext(ctx context.Context, q string) (*Result, error) {
	r, err := s.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	if r.result != nil {
		return r.result, nil
	}
	st := &r.st
	rows, err := st.cursor.All()
	if err != nil {
		st.finish(0, false, err)
		return nil, err
	}
	res := &Result{
		Cols:     r.Cols,
		Rows:     rows,
		Plan:     plan.Format(st.node),
		PlanCost: st.node.EstCost,
		Elapsed:  time.Since(st.start) - st.planDur,
		Stats:    *st.cursor.Stats,
	}
	st.finish(int64(len(rows)), true, nil)
	return res, nil
}

// QueryContext takes one statement from text to a started Rows: begin, the
// one parse, dispatch. A statement that fails here, or that dispatch ran to
// completion, is finished before it returns; only a streaming SELECT is left
// for Close to finish. Canceling ctx (or hitting the session's deadline or
// memory ceiling) fails the statement, or a streaming SELECT's subsequent
// Next calls, with the typed error.
func (s *Session) QueryContext(ctx context.Context, q string) (*Rows, error) {
	r := &Rows{}
	st := &r.st
	err := st.begin(ctx, s, q)
	if err != nil {
		return nil, err
	}
	var stmt sql.Statement
	if stmt, err = sql.Parse(q); err == nil {
		r.result, err = s.e.dispatch(st, stmt)
	}
	if err != nil {
		st.finish(0, false, err)
		return nil, err
	}
	if res := r.result; res != nil {
		st.finish(int64(len(res.Rows))+res.RowsAffected, true, nil)
		r.Cols, r.RowsAffected = res.Cols, res.RowsAffected
		if len(res.Cols) > 0 {
			st.cursor = exec.NewSliceCursor(res.Cols, res.Rows)
		}
		return r, nil
	}
	r.Cols = st.cursor.Cols
	return r, nil
}
