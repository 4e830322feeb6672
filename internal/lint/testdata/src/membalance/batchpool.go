// Pooled-batch golden cases for the membalance analyzer. The local types
// mirror exec's batch pool: getBatch/Get draw a vector that is owed back to
// the pool, putBatch/Put return it, and ownership transfers by returning the
// batch to the caller (the BatchIter contract), sending it on a channel (the
// Gather exchange), or storing it into longer-lived state. retire alone is
// not a release: it drops the memory charge but strands the pool slot.
package membalance

type Batch struct {
	Rows  []int
	bytes int64
}

func (b *Batch) retire() { b.bytes = 0 }

type BatchPool struct{ free []*Batch }

func (p *BatchPool) Get() *Batch {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &Batch{}
}

func (p *BatchPool) Put(b *Batch) {
	b.retire()
	p.free = append(p.free, b)
}

type evaluator struct{ pool *BatchPool }

func (ev *evaluator) getBatch() *Batch { return ev.pool.Get() }

func (ev *evaluator) putBatch(b *Batch) { ev.pool.Put(b) }

// ---- positives ----

// batchLeakOnError forgets the pool on the fill-error path: a filler only
// borrows the batch, so the early return still owes a putBatch.
func batchLeakOnError(ev *evaluator, fill func(*Batch) error) (*Batch, error) {
	b := ev.getBatch() // want `pooled batch acquired by getBatch is not released on every path`
	if err := fill(b); err != nil {
		return nil, err
	}
	return b, nil
}

// batchLeakAtEnd fills a batch and drops it on the floor.
func batchLeakAtEnd(ev *evaluator) {
	b := ev.getBatch() // want `pooled batch acquired by getBatch is not released on every path`
	b.Rows = append(b.Rows, 1)
}

// batchDiscard throws the handle away outright.
func batchDiscard(ev *evaluator) {
	_ = ev.getBatch() // want `result of getBatch \(a pooled batch\) is discarded without release`
}

// retireOnly settles the accountant but never returns the vector.
func retireOnly(ev *evaluator) {
	b := ev.getBatch() // want `pooled batch acquired by getBatch is not released on every path`
	b.retire()
}

// ---- negatives ----

// batchBalanced recycles on the error and empty paths and hands ownership to
// the caller on success — the NextBatch shape.
func batchBalanced(ev *evaluator, fill func(*Batch) error) (*Batch, error) {
	b := ev.getBatch()
	if err := fill(b); err != nil {
		ev.putBatch(b)
		return nil, err
	}
	if len(b.Rows) == 0 {
		ev.putBatch(b)
		return nil, nil
	}
	return b, nil
}

// batchToChannel hands the batch to the exchange consumer.
func batchToChannel(ev *evaluator, out chan *Batch) {
	b := ev.getBatch()
	out <- b
}

// envelope mirrors gatherBatch: a composite literal carrying the vector.
type envelope struct{ b *Batch }

func batchInEnvelope(ev *evaluator) envelope {
	b := ev.getBatch()
	return envelope{b: b}
}

// cursor mirrors exec.Cursor: stashing the batch in a field moves the duty
// to the owner's Close.
type cursor struct{ cur *Batch }

func (c *cursor) stash(ev *evaluator) {
	b := ev.getBatch()
	c.cur = b
}

// poolDirect balances through the pool face itself.
func poolDirect(p *BatchPool, use func(*Batch)) {
	b := p.Get()
	use(b)
	p.Put(b)
}

// deferredPut covers panicky consumers with a deferred return.
func deferredPut(ev *evaluator, use func(*Batch)) {
	b := ev.getBatch()
	defer ev.putBatch(b)
	use(b)
}

// batchExempt documents an intentional strand.
func batchExempt(ev *evaluator) {
	b := ev.getBatch() //lint:batch-exempt handed to the test harness, which drains the pool
	_ = b
}
