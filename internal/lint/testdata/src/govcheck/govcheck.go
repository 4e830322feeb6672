// Golden package for the govcheck analyzer. The local Resources mirrors
// exec.Resources: Err is the amortized cancellation checkpoint.
package govcheck

type Row []int

type Resources struct{ polls int }

func (r *Resources) Err() error {
	r.polls++
	return nil
}

type source struct {
	rows []Row
	i    int
}

func (s *source) Next() (Row, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.i]
	s.i++
	return r, true, nil
}

// ---- direct positive ----

type drainAll struct {
	in *source
}

func (d *drainAll) Next() (Row, bool, error) {
	for { // want `row loop pulls tuples without a cancellation checkpoint`
		_, ok, err := d.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
	}
}

// ---- interprocedural positive: the loop lives in a helper that only the
// call graph connects to an operator Next ----

type sink struct {
	in *source
}

func (s *sink) drain() error {
	for { // want `row loop pulls tuples without a cancellation checkpoint`
		_, ok, err := s.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func (s *sink) Next() (Row, bool, error) {
	if err := s.drain(); err != nil {
		return nil, false, err
	}
	return nil, false, nil
}

// ---- goroutine reachability positive: Gather-style workers ----

type worker struct {
	in *source
	ch chan Row
}

func (w *worker) run() {
	for { // want `row loop pulls tuples without a cancellation checkpoint`
		r, ok, err := w.in.Next()
		if err != nil || !ok {
			close(w.ch)
			return
		}
		w.ch <- r
	}
}

func (w *worker) Next() (Row, bool, error) {
	go w.run()
	r, ok := <-w.ch
	return r, ok, nil
}

// ---- negatives ----

// checkpointed polls the governor every iteration.
type checkpointed struct {
	in  *source
	res *Resources
}

func (c *checkpointed) Next() (Row, bool, error) {
	for {
		if err := c.res.Err(); err != nil {
			return nil, false, err
		}
		r, ok, err := c.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if len(r) > 0 {
			return r, true, nil
		}
	}
}

// viaHelper checkpoints through a helper whose summary proves it reaches
// Resources.Err — the interprocedural negative.
type viaHelper struct {
	in  *source
	res *Resources
}

func (v *viaHelper) checkpoint() error { return v.res.Err() }

func (v *viaHelper) Next() (Row, bool, error) {
	for {
		if err := v.checkpoint(); err != nil {
			return nil, false, err
		}
		r, ok, err := v.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if len(r) > 0 {
			return r, true, nil
		}
	}
}

// projection-style loops iterate bounded column lists, not rows.
type proj struct {
	in   *source
	cols []int
}

func (p *proj) Next() (Row, bool, error) {
	r, ok, err := p.in.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(Row, len(p.cols))
	for i, c := range p.cols {
		out[i] = r[c]
	}
	return out, true, nil
}

// bounded drains at most a fixed batch; the exemption is deliberate and
// documented on the declaration.
type bounded struct {
	in *source
}

//lint:gov-exempt bounded rewind drain: at most one batch of rows per call
func (b *bounded) refill() error {
	for {
		_, ok, err := b.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func (b *bounded) Next() (Row, bool, error) {
	if err := b.refill(); err != nil {
		return nil, false, err
	}
	return nil, false, nil
}

// buildSideScan is planner-side: nothing named Next reaches it, so the
// cancelability contract does not apply.
func buildSideScan(s *source) int {
	n := 0
	for {
		_, ok, err := s.Next()
		if err != nil || !ok {
			return n
		}
		n++
	}
}

// ---- batch operators: NextBatch is an operator entry point, a loop over a
// Batch's Rows is a row loop, and a per-record callback handed to nextPage is
// the body of one ----

type Batch struct{ Rows []Row }

type batchSource struct {
	pages [][]Row
	i     int
}

func (s *batchSource) NextBatch() (*Batch, error) {
	if s.i >= len(s.pages) {
		return nil, nil
	}
	s.i++
	return &Batch{Rows: s.pages[s.i-1]}, nil
}

// nextPage calls fn once per record of the next page.
func (s *batchSource) nextPage(fn func(rec Row) error) (bool, error) {
	if s.i >= len(s.pages) {
		return false, nil
	}
	s.i++
	for _, r := range s.pages[s.i-1] {
		if err := fn(r); err != nil {
			return true, err
		}
	}
	return true, nil
}

type batchFilter struct {
	in  *batchSource
	res *Resources
}

// positive: the per-row loop of a batch operator never polls.
func (f *batchFilter) NextBatch() (*Batch, error) {
	b, err := f.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	keep := b.Rows[:0]
	for _, r := range b.Rows { // want `row loop pulls tuples without a cancellation checkpoint`
		if len(r) > 0 {
			keep = append(keep, r)
		}
	}
	b.Rows = keep
	return b, nil
}

type batchBuild struct {
	in   *batchSource
	res  *Resources
	rows []Row
}

// positive through the call graph: the loop lives in a helper only a
// NextBatch reaches.
func (m *batchBuild) load() error {
	for {
		b, err := m.in.NextBatch()
		if err != nil || b == nil {
			return err
		}
		for _, r := range b.Rows { // want `row loop pulls tuples without a cancellation checkpoint`
			m.rows = append(m.rows, r)
		}
	}
}

func (m *batchBuild) NextBatch() (*Batch, error) {
	if err := m.load(); err != nil {
		return nil, err
	}
	return nil, nil
}

type pageScan struct {
	in  *batchSource
	res *Resources
}

// positives: per-record callbacks, named and inline, that never poll.
func (p *pageScan) NextBatch() (*Batch, error) {
	b := &Batch{}
	perRec := func(rec Row) error { // want `per-record callback runs without a cancellation checkpoint`
		b.Rows = append(b.Rows, rec)
		return nil
	}
	if _, err := p.in.nextPage(perRec); err != nil {
		return nil, err
	}
	_, err := p.in.nextPage(func(rec Row) error { // want `per-record callback runs without a cancellation checkpoint`
		b.Rows = append(b.Rows, rec)
		return nil
	})
	return b, err
}

// negatives: the same three shapes, polling; and a bounded column loop
// inside the row loop.
type batchProject struct {
	in   *batchSource
	res  *Resources
	cols []int
}

func (p *batchProject) NextBatch() (*Batch, error) {
	b, err := p.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	for i, r := range b.Rows {
		if err := p.res.Err(); err != nil {
			return nil, err
		}
		out := make(Row, len(p.cols))
		for j, c := range p.cols {
			out[j] = r[c]
		}
		b.Rows[i] = out
	}
	return b, nil
}

type pageScanPolled struct {
	in  *batchSource
	res *Resources
}

func (p *pageScanPolled) NextBatch() (*Batch, error) {
	b := &Batch{}
	perRec := func(rec Row) error {
		if err := p.res.Err(); err != nil {
			return err
		}
		b.Rows = append(b.Rows, rec)
		return nil
	}
	_, err := p.in.nextPage(perRec)
	return b, err
}

// hands its rows on without a per-row loop: nothing to flag.
type batchLimit struct {
	in *batchSource
	n  int
}

func (l *batchLimit) NextBatch() (*Batch, error) {
	b, err := l.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if len(b.Rows) > l.n {
		b.Rows = b.Rows[:l.n]
	}
	return b, nil
}
