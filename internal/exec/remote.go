package exec

import (
	"context"
	"fmt"

	"github.com/mural-db/mural/internal/plan"
)

// FragmentRunner is an optional Env extension: an engine that can serialize
// a plan fragment, ship it to a shard over the wire protocol and stream the
// shard's rows back. The engine layer implements it (it owns the client
// dialer and the shard map); exec only drives the returned iterator.
type FragmentRunner interface {
	// RunFragment executes frag on the shard at addr. The iterator's Next
	// surfaces shard-side and transport errors; ctx cancellation must
	// propagate to the shard (forwarded MsgCancel) and terminate the stream.
	RunFragment(ctx context.Context, shardID int, addr string, frag *plan.Node) (TupleIter, error)
}

func buildRemote(env Env, ev *evaluator, n *plan.Node) (BatchIter, error) {
	fr, ok := env.(FragmentRunner)
	if !ok {
		return nil, fmt.Errorf("exec: environment cannot execute Remote fragments")
	}
	return &remoteIter{fr: fr, ev: ev, n: n}, nil
}

// remoteIter streams one shard's rows, gathering the wire cursor's tuples
// into batches: the executor's one row→batch adapter. The connection opens
// lazily on the first NextBatch: under a shard Gather that call happens on
// the worker goroutine driving this shard, so N shards dial and execute
// concurrently instead of serially at build time — and a plan that is built
// but never run (EXPLAIN) touches no network at all.
type remoteIter struct {
	fr   FragmentRunner
	ev   *evaluator
	n    *plan.Node
	src  TupleIter
	done bool
}

func (r *remoteIter) NextBatch() (*Batch, error) {
	if r.done {
		return nil, nil
	}
	if r.src == nil {
		src, err := r.fr.RunFragment(r.ev.res.Context(), r.n.ShardID, r.n.ShardAddr, r.n.Children[0])
		if err != nil {
			r.done = true
			return nil, err
		}
		r.src = src
	}
	b := r.ev.getBatch()
	for len(b.Rows) < BatchRows {
		if err := r.ev.tick(); err != nil {
			r.ev.putBatch(b)
			return nil, err
		}
		t, ok, err := r.src.Next()
		if err != nil {
			r.ev.putBatch(b)
			return nil, err
		}
		if !ok {
			r.done = true
			break
		}
		b.Rows = append(b.Rows, t)
	}
	return r.ev.finishBatch(b, nil)
}

func (r *remoteIter) Close() error {
	if r.src == nil {
		return nil
	}
	err := r.src.Close()
	r.src, r.done = nil, true
	return err
}
