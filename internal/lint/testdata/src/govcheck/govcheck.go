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
// Batch's Rows is a row loop, and so is a loop over the records of the Page
// nextPage hands its callback ----

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

// Page mirrors storage.Page: a view of one scanned page's records.
type Page struct{ recs []Row }

func (p *Page) Len() int { return len(p.recs) }

func (p *Page) Record(i int) (Row, bool) { return p.recs[i], p.recs[i] != nil }

// Slots is the page's slot array, one byte a slot here: 0 for a dead one.
func (p *Page) Slots() (slots []byte, width int) {
	for _, r := range p.recs {
		slots = append(slots, byte(len(r)))
	}
	return slots, 1
}

// nextPage hands fn the next page.
func (s *batchSource) nextPage(fn func(pg Page) error) (bool, error) {
	if s.i >= len(s.pages) {
		return false, nil
	}
	s.i++
	return true, fn(Page{recs: s.pages[s.i-1]})
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

// positives: page loops in callbacks, named and inline, that never poll.
func (p *pageScan) NextBatch() (*Batch, error) {
	b := &Batch{}
	perPage := func(pg Page) error {
		for i := range pg.Len() { // want `row loop pulls tuples without a cancellation checkpoint`
			if rec, live := pg.Record(i); live {
				b.Rows = append(b.Rows, rec)
			}
		}
		return nil
	}
	if _, err := p.in.nextPage(perPage); err != nil {
		return nil, err
	}
	_, err := p.in.nextPage(func(pg Page) error {
		for i := 0; i < pg.Len(); i++ { // want `row loop pulls tuples without a cancellation checkpoint`
			rec, _ := pg.Record(i)
			b.Rows = append(b.Rows, rec)
		}
		return nil
	})
	return b, err
}

type pageJoin struct {
	in     *batchSource
	res    *Resources
	pageFn func(pg Page) error
	out    *Batch
}

func newPageJoin(in *batchSource) *pageJoin {
	j := &pageJoin{in: in, out: &Batch{}}
	j.pageFn = j.onPage
	return j
}

// positive off the call graph: a page loop in a method the operator hands
// nextPage as a value, bound where no entry point reaches.
func (j *pageJoin) onPage(pg Page) error {
	for i := range pg.Len() { // want `row loop pulls tuples without a cancellation checkpoint`
		if rec, live := pg.Record(i); live {
			j.out.Rows = append(j.out.Rows, rec)
		}
	}
	return nil
}

func (j *pageJoin) NextBatch() (*Batch, error) {
	_, err := j.in.nextPage(j.pageFn)
	return j.out, err
}

// negative: a page loop outside any operator, exempt.
func countLive(pg Page) int {
	n := 0
	for i := range pg.Len() { //lint:gov-exempt counts a page without a query to cancel
		if _, live := pg.Record(i); live {
			n++
		}
	}
	return n
}

// positive: a page loop whose header reads the page's length once, in its
// init statement, and whose body reads no record.
func sumSlots(pg Page, from int) int {
	n := 0
	for i, end := from, pg.Len(); i < end; i++ { // want `row loop pulls tuples without a cancellation checkpoint`
		n += i
	}
	return n
}

// positive: a page kernel's select loop, whose bound is a local assigned
// from the page's length before the loop and which reads no record.
func (p *pageScan) selectLive(pg *Page) int {
	n, end := 0, pg.Len()
	for i := 0; i < end; i++ { // want `row loop pulls tuples without a cancellation checkpoint`
		n += i
	}
	return n
}

// positive: a select loop that walks the slot array from the page's Slots,
// its bound a parameter, handing the array on to a loop that does not poll.
func (p *pageScan) selectRuns(pg *Page, end int) int {
	slots, width := pg.Slots()
	n := 0
	for i := 0; i < end; i += width { // want `row loop pulls tuples without a cancellation checkpoint`
		n += countSlots(slots, i, i+width)
	}
	return n
}

// countSlots counts the live slots lo to hi of a slot array: a run, which
// its caller checks for cancellation ahead of.
func countSlots(slots []byte, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if slots[i] != 0 {
			n++
		}
	}
	return n
}

// negatives: the two select loops, polling.
func (p *pageScan) selectLivePolled(pg *Page) (int, error) {
	n, end := 0, pg.Len()
	for i := 0; i < end; i++ {
		if err := p.res.Err(); err != nil {
			return n, err
		}
		n += i
	}
	return n, nil
}

func (p *pageScan) selectRunsPolled(pg *Page, end int) (int, error) {
	slots, width := pg.Slots()
	n := 0
	for i := 0; i < end; i += width {
		if err := p.res.Err(); err != nil {
			return n, err
		}
		n += countSlots(slots, i, i+width)
	}
	return n, nil
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
	perPage := func(pg Page) error {
		for i := range pg.Len() {
			if err := p.res.Err(); err != nil {
				return err
			}
			if rec, live := pg.Record(i); live {
				b.Rows = append(b.Rows, rec)
			}
		}
		return nil
	}
	_, err := p.in.nextPage(perPage)
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
