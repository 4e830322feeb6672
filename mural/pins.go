package mural

import "sync"

// pinSet tracks the tables and indexes in use by in-flight point reads,
// fixing the handle-escapes-lock race: FetchRIDs, IndexSearch and
// MetricSearch look a heap or index handle up under e.mu.RLock but use it
// after RUnlock, so a concurrent DROP INDEX / DROP TABLE could detach the
// handle's file (or close its disk) mid-read. Each of them takes its handle
// through pinned, which pins the name for the duration of the read; the
// drop paths remove the catalog and map entries first (new reads then miss)
// and wait for the pin count to drain before releasing storage (dropIndex).
//
// pinSet.mu is a leaf lock — acquired briefly inside e.mu critical sections,
// never the other way around — so it cannot deadlock against the engine
// lock. Scope: point reads (one probe or one RID fetch). Long-lived heap
// scan iterators are not pinned; DROP under a concurrent scan remains
// guarded by the coarse statement-level serialization above this layer.
type pinSet struct {
	mu      sync.Mutex
	pins    map[string]int
	waiters map[string]chan struct{}
}

// pinned looks name up in m under e.mu.RLock and pins it before the lock
// is released, so a drop that has already removed the map entry can never
// interleave between lookup and pin. The caller unpins when it found the
// name; ok is false, and nothing is pinned, when it did not.
func pinned[T any](e *Engine, m map[string]*T, name string) (v *T, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if v, ok = m[name]; ok {
		e.pins.pin(name)
	}
	return v, ok
}

// pin registers one in-flight use of the named table or index.
func (p *pinSet) pin(name string) {
	p.mu.Lock()
	if p.pins == nil {
		p.pins = make(map[string]int)
	}
	p.pins[name]++
	p.mu.Unlock()
}

// unpin releases one use, waking any drop waiting for the drain.
func (p *pinSet) unpin(name string) {
	p.mu.Lock()
	if p.pins[name]--; p.pins[name] <= 0 {
		delete(p.pins, name)
		if ch, ok := p.waiters[name]; ok {
			close(ch)
			delete(p.waiters, name)
		}
	}
	p.mu.Unlock()
}

// wait blocks until no search holds the named index. Call only after the
// handle is unreachable (catalog entry and handle-map entry removed), so the
// count can only drain — new searches cannot find the index to pin it.
func (p *pinSet) wait(name string) {
	for {
		p.mu.Lock()
		if p.pins[name] == 0 {
			p.mu.Unlock()
			return
		}
		if p.waiters == nil {
			p.waiters = make(map[string]chan struct{})
		}
		ch, ok := p.waiters[name]
		if !ok {
			ch = make(chan struct{})
			p.waiters[name] = ch
		}
		p.mu.Unlock()
		<-ch
	}
}
