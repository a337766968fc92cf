package executor

import (
	"errors"
	"sync"
	"time"

	"perm/internal/algebra"
	"perm/internal/value"
)

// Intra-query parallelism is one operator: the exchange of Graefe's Volcano
// model. When a statement root builds with a degree above 1, buildInto wraps
// every operator that can fan out in an exchangeIter, which keeps that
// operator's ordinary serial iterator (built under the caller's stats parent
// like any other) and decides at Open whether to run it or fan out:
//
//   - gather: a Scan/Select/Project chain. Each worker drains its own copy of
//     the chain.
//   - join: a hash or nested-loop join whose probe (left) side is such a
//     chain. The coordinator drains the build side once, through the serial
//     tree's own right input, and shares the rows read-only; each worker joins
//     its probe chain against them with a private join iterator (its own
//     compiled expressions, hash table, and memory account against the one
//     shared budget). Probe output factors by probe row; the unmatched build
//     rows a RIGHT/FULL join adds do not, so each worker records its matched
//     flags by build ordinal instead, and the exchange emits the rows no
//     worker matched once, after the last partition, in build order.
//   - aggregation: hash aggregation over such a chain. Each worker runs the
//     serial fold in partial mode; the coordinator merges the partial groups
//     in worker order (count/sum/min/max compose exactly), which reproduces
//     the serial first-appearance emission order.
//
// Workers build their subtrees through the ordinary buildInto. The only
// substitution is the chain's leaf scan, which reads one contiguous partition
// of ctx.TableRows — the statement's own snapshot or transaction view, taken
// once by the coordinator. Streamed outputs travel through a bounded channel
// of row batches per worker, so a fast worker parks after parallelQueueLen
// batches instead of buffering its whole output, and are concatenated in
// worker order: for contiguous ranges over order-preserving operators that is
// exactly the serial row order. Workers share the statement's interrupt
// channel, deadline and MemTracker through workerClone contexts; Close
// cancels via the quit channel and joins every worker, so no goroutine
// outlives its statement.
//
// Each worker gets a private stats subtree (statIter is not goroutine-safe);
// after the join the exchange sums them node by node into the serial tree's
// nodes under its own, and publishes the per-worker rollup on its own node.
//
// Serial fallbacks run the serial iterator, always producing identical
// results since the parallel plans are exact: degree < 2 at Open, a probe
// table smaller than minParallelRows, a row budget (per-worker budgets would
// not add up to the serial semantics), a join build side that cannot stay
// resident within work_mem, or a partial group table that outgrows it
// (spilling stays a serial-path feature).

const (
	// parallelBatchRows is the exchange batch size: one channel operation per
	// this many rows.
	parallelBatchRows = 128
	// parallelQueueLen bounds each worker's exchange queue, in batches.
	parallelQueueLen = 8
	// minParallelRows is the smallest scan worth fanning out; below it the
	// goroutine and channel overhead outweighs any per-row work.
	minParallelRows = 2048
)

// errParallelOverflow is the internal signal that a parallel operator's
// memory-bounded state outgrew work_mem and the serial (spilling) path must
// run instead. It never escapes the executor.
var errParallelOverflow = errors.New("executor: parallel operator over memory budget")

// --- eligibility ----------------------------------------------------------------

// exchangeLeaf returns the scan an exchange at op would partition, or nil when
// op does not fan out: par is off (the degree-1 build), or op is neither a
// gather chain, an eligible join nor an eligible aggregation. A bare scan
// partitions fine but gains nothing: moving rows through the exchange costs
// more than the slice iteration it replaces.
func exchangeLeaf(op algebra.Op, par bool) *algebra.Scan {
	if !par {
		return nil
	}
	switch o := op.(type) {
	case *algebra.Select, *algebra.Project:
		return gatherLeaf(o)
	case *algebra.Join:
		if parJoinEligible(o) {
			return gatherLeaf(o.Left)
		}
	case *algebra.Agg:
		if parAggEligible(o) {
			return gatherLeaf(o.Input)
		}
	}
	return nil
}

// exprParSafe reports whether an expression may run inside a worker: no
// subplans (their caches and any correlation belong to the statement context)
// and no outer references (they bind to the coordinator's correlation stack,
// which workers do not inherit).
func exprParSafe(e algebra.Expr) bool {
	return e == nil || (!algebra.HasSubplan(e) && !algebra.HasOuterRef(e))
}

// gatherLeaf returns the unique Scan leaf of a range-partitionable chain —
// Scan under any stack of parallel-safe Select/Project (and the pass-through
// BaseRel/ProvDone markers) — or nil when the subtree has another shape.
func gatherLeaf(op algebra.Op) *algebra.Scan {
	switch o := op.(type) {
	case *algebra.Scan:
		return o
	case *algebra.Select:
		if !exprParSafe(o.Cond) {
			return nil
		}
		return gatherLeaf(o.Input)
	case *algebra.Project:
		for _, e := range o.Exprs {
			if !exprParSafe(e) {
				return nil
			}
		}
		return gatherLeaf(o.Input)
	case *algebra.BaseRel:
		return gatherLeaf(o.Input)
	case *algebra.ProvDone:
		return gatherLeaf(o.Input)
	}
	return nil
}

// parJoinEligible: a non-lateral join with a parallel-safe condition and a
// partitionable probe side.
func parJoinEligible(o *algebra.Join) bool {
	return !o.Lateral && exprParSafe(o.Cond) && gatherLeaf(o.Left) != nil
}

// parAggEligible: partitionable input, parallel-safe expressions, no DISTINCT
// aggregates (their seen-sets do not merge cheaply across workers), and no
// float SUM/AVG (float addition is not associative, so worker-block fold order
// could diverge from the serial row order in the last bits).
func parAggEligible(o *algebra.Agg) bool {
	for _, e := range o.GroupBy {
		if !exprParSafe(e) {
			return false
		}
	}
	for _, ae := range o.Aggs {
		if ae.Distinct {
			return false
		}
		if ae.Arg != nil {
			if !exprParSafe(ae.Arg) {
				return false
			}
			if (ae.Func == algebra.AggSum || ae.Func == algebra.AggAvg) && ae.Arg.Type() == value.KindFloat {
				return false
			}
		}
	}
	return gatherLeaf(o.Input) != nil
}

// --- the exchange -----------------------------------------------------------------

// withExchange wraps an operator's serial iterator in an exchange when leaf
// (from exchangeLeaf) says the operator fans out. right is a join's serial
// build-side input.
func withExchange(it iterator, op algebra.Op, leaf *algebra.Scan, right iterator, n *OpStats) iterator {
	if leaf == nil {
		return it
	}
	return &exchangeIter{op: op, leaf: leaf, serial: it, right: right, stats: n}
}

// exchangeIter fans one operator out to ctx.Parallel workers (see the file
// comment), or runs its serial iterator when a fallback applies.
type exchangeIter struct {
	op     algebra.Op    // a gather-chain top (Select/Project), a Join or an Agg
	leaf   *algebra.Scan // the scan the workers partition
	serial iterator      // op's serial iterator: the fallback
	right  iterator      // a join's serial build-side input, drained once and shared
	stats  *OpStats      // op's stats node; nil uninstrumented
	ctx    *Context
	acct   memAcct // the shared build side, or the merged groups while merging
	inPar  bool

	// Per-fan-out state. Every per-worker slot is allocated before the first
	// goroutine starts: workers index into these slices concurrently, so the
	// backing arrays must never move.
	quit    chan struct{} // nil when no workers are outstanding
	wg      sync.WaitGroup
	outs    []chan parBatch
	workers []*Context
	wstats  []*OpStats // each worker's stand-in for stats (nil uninstrumented)
	folds   []*aggFold // aggregation: each worker's partial groups
	errs    []error    // aggregation: each worker's fold error
	rows    []int64    // per-worker rows, written by the worker, read after join
	ns      []int64    // per-worker wall time, same discipline
	wi      int
	cur     []value.Row
	curIdx  int
	err     error

	// RIGHT/FULL join tail: the shared build rows, each worker's matched
	// flags by build ordinal, and the next build ordinal to consider.
	shared  []value.Row
	matched [][]bool
	tailIdx int
}

// parBatch is one exchange message: a batch of rows, a terminal error, or the
// worker's end-of-stream marker.
type parBatch struct {
	rows []value.Row
	err  error
	done bool
}

// scanPart substitutes one contiguous partition of the coordinator's snapshot
// for a worker's leaf scan.
type scanPart struct {
	scan *algebra.Scan
	rows []value.Row
}

// sliceScanIter iterates the shared materialized build side of a parallel
// join.
type sliceScanIter struct {
	rows []value.Row
	pos  int
}

func (s *sliceScanIter) Open(*Context) error { s.pos = 0; return nil }
func (s *sliceScanIter) Next() (value.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, nil
}
func (s *sliceScanIter) Close() error { return nil }

// splitRows cuts rows into deg contiguous partitions (the last may be short;
// trailing partitions may be empty when deg does not divide evenly).
func splitRows(rows []value.Row, deg int) [][]value.Row {
	parts := make([][]value.Row, deg)
	per := (len(rows) + deg - 1) / deg
	for w := 0; w < deg; w++ {
		lo := min(w*per, len(rows))
		hi := min(lo+per, len(rows))
		parts[w] = rows[lo:hi]
	}
	return parts
}

func (x *exchangeIter) Open(ctx *Context) error {
	x.release()
	x.ctx = ctx
	x.acct.ctx = ctx
	var rows []value.Row
	deg := 0
	if ctx.Parallel > 1 && ctx.RowBudget == 0 {
		// The one snapshot every partition is cut from: workers never look
		// at the table themselves.
		var err error
		if rows, err = ctx.TableRows(x.leaf.Table); err != nil {
			return err
		}
		deg = min(int(ctx.Parallel), len(rows))
	}
	if deg < 2 || len(rows) < minParallelRows {
		return x.serial.Open(ctx)
	}
	var shared []value.Row
	if x.right != nil {
		// A build side that cannot stay resident runs the serial join: its
		// grace machinery spills, which rows shared read-only cannot.
		var err error
		if shared, err = x.materialize(ctx); err != nil {
			x.acct.releaseAll()
			if err == errParallelOverflow {
				return x.serial.Open(ctx)
			}
			return err
		}
		if x.stats != nil {
			x.stats.BuildRows = int64(len(shared))
		}
	}
	if j, ok := x.op.(*algebra.Join); ok && (j.Kind == algebra.JoinRight || j.Kind == algebra.JoinFull) {
		x.shared = shared
		x.matched = make([][]bool, deg)
		for w := range x.matched {
			x.matched[w] = make([]bool, len(shared))
		}
		x.acct.grow(int64(deg * len(shared)))
	}
	its := make([]iterator, deg)
	x.wstats = make([]*OpStats, deg)
	for w := range its {
		var err error
		if its[w], x.wstats[w], err = x.buildWorker(w, shared); err != nil {
			x.acct.releaseAll()
			return err
		}
	}
	_, agg := x.op.(*algebra.Agg)
	x.quit = make(chan struct{})
	x.workers = make([]*Context, deg)
	x.rows = make([]int64, deg)
	x.ns = make([]int64, deg)
	if agg {
		x.folds = make([]*aggFold, deg)
		x.errs = make([]error, deg)
	} else {
		x.outs = make([]chan parBatch, deg)
	}
	for w, part := range splitRows(rows, deg) {
		if !agg {
			x.outs[w] = make(chan parBatch, parallelQueueLen)
		}
		x.workers[w] = ctx.workerClone(&scanPart{scan: x.leaf, rows: part})
		x.wg.Add(1)
		go x.work(w, its[w])
	}
	if agg {
		x.join()
		out, err := x.mergeWorkers()
		x.acct.releaseAll()
		if err == errParallelOverflow {
			return x.serial.Open(ctx)
		}
		if err != nil {
			return err
		}
		x.cur = out
	}
	x.inPar = true
	ctx.ParallelOps++
	ctx.ParallelWorkers += int32(deg)
	return nil
}

// materialize drains the join's build side into memory under the
// coordinator's account, failing with errParallelOverflow the moment it
// crosses the budget.
func (x *exchangeIter) materialize(ctx *Context) ([]value.Row, error) {
	if err := x.right.Open(ctx); err != nil {
		x.right.Close()
		return nil, err
	}
	defer x.right.Close()
	var rows []value.Row
	for {
		if err := ctx.tick(); err != nil {
			return nil, err
		}
		row, err := x.right.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return rows, nil
		}
		rows = append(rows, row)
		x.acct.grow(rowBytes(row) + rowSliceBytes)
		if x.acct.spillable() && x.acct.over() {
			return nil, errParallelOverflow
		}
	}
}

// buildWorker builds worker w's private tree through buildInto: a gather
// chain whole, or a join's probe chain under a private join over the shared
// build side, or an aggregation's input under a partial-mode aggIter. wn is
// the worker's stand-in for the exchange's stats node (nil uninstrumented);
// its children mirror the exchange node's.
func (x *exchangeIter) buildWorker(w int, shared []value.Row) (it iterator, wn *OpStats, err error) {
	if x.stats != nil {
		wn = &OpStats{Op: x.op}
	}
	switch o := x.op.(type) {
	case *algebra.Join:
		left, err := buildInto(o.Left, wn, false)
		if err != nil {
			return nil, nil, err
		}
		var tailMatched []bool
		if x.matched != nil {
			tailMatched = x.matched[w]
		}
		return joinIter(o, left, &sliceScanIter{rows: shared}, tailMatched), wn, nil
	case *algebra.Agg:
		in, err := buildInto(o.Input, wn, false)
		if err != nil {
			return nil, nil, err
		}
		return &aggIter{op: o, input: in, partial: true}, wn, nil
	}
	if it, err = buildInto(x.op, wn, false); err != nil {
		return nil, nil, err
	}
	if wn != nil {
		wn = wn.Children[0]
	}
	return it, wn, nil
}

// work runs worker w: a partial fold for aggregation, otherwise a drain of
// its iterator into the worker's bounded queue. The worker owns it entirely,
// including Close on every exit path.
func (x *exchangeIter) work(w int, it iterator) {
	defer x.wg.Done()
	t0 := time.Now()
	defer func() { x.ns[w] = time.Since(t0).Nanoseconds() }()
	wctx := x.workers[w]
	if a, ok := it.(*aggIter); ok {
		a.ctx = wctx
		var n int
		x.folds[w], n, x.errs[w] = a.foldInput(wctx)
		x.rows[w] = int64(n)
		a.Close() // returns the fold's bytes; its groups stay readable
		return
	}
	out := x.outs[w]
	send := func(b parBatch) bool {
		select {
		case out <- b:
			return true
		case <-x.quit:
			return false
		}
	}
	if err := it.Open(wctx); err != nil {
		it.Close()
		send(parBatch{err: err})
		return
	}
	batch := make([]value.Row, 0, parallelBatchRows)
	for {
		// Workers poll their own clone's tick: a worker parked in a filter
		// that rejects everything must still observe interrupts and deadlines.
		if err := wctx.tick(); err != nil {
			it.Close()
			send(parBatch{err: err})
			return
		}
		row, err := it.Next()
		if err != nil {
			it.Close()
			send(parBatch{err: err})
			return
		}
		if row == nil {
			break
		}
		x.rows[w]++
		batch = append(batch, row)
		if len(batch) == parallelBatchRows {
			if !send(parBatch{rows: batch}) {
				it.Close()
				return
			}
			batch = make([]value.Row, 0, parallelBatchRows)
		}
	}
	if err := it.Close(); err != nil {
		send(parBatch{err: err})
		return
	}
	if len(batch) > 0 && !send(parBatch{rows: batch}) {
		return
	}
	send(parBatch{done: true})
}

// mergeWorkers combines the workers' partial groups in worker order. With
// contiguous partitions, any group of worker w first appeared globally before
// any group whose first worker is w+1, so insertion order across workers in
// worker order IS the serial first-appearance order.
func (x *exchangeIter) mergeWorkers() ([]value.Row, error) {
	for _, err := range x.errs {
		if err != nil {
			return nil, err
		}
	}
	agg := x.op.(*algebra.Agg)
	merged := make(map[string]*aggGroup)
	var order []*aggGroup
	var key []byte
	for _, f := range x.folds {
		for _, g := range f.order {
			key = key[:0]
			for _, v := range g.keys {
				key = value.AppendFramedKey(key, v)
			}
			dst, ok := merged[string(key)]
			if !ok {
				merged[string(key)] = g
				order = append(order, g)
				x.acct.grow(int64(len(key)) + rowBytes(g.keys) + aggGroupFixedBytes + int64(len(g.states))*48)
				if x.acct.spillable() && x.acct.over() {
					return nil, errParallelOverflow
				}
				continue
			}
			for s := range dst.states {
				if err := mergeAggState(&dst.states[s], &g.states[s]); err != nil {
					return nil, err
				}
			}
		}
	}
	// Scalar aggregation over empty input still produces one (empty) group,
	// exactly like the serial path.
	if len(agg.GroupBy) == 0 && len(order) == 0 {
		order = append(order, newAggGroup(agg.Aggs, value.Row{}, 0))
	}
	out := make([]value.Row, 0, len(order))
	for _, g := range order {
		row := make(value.Row, 0, len(g.keys)+len(g.states))
		row = append(row, g.keys...)
		for i, ae := range agg.Aggs {
			v, err := g.states[i].result(ae)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	return out, nil
}

// mergeAggState folds one partial state into another. Exact for count, min,
// max and integer sums; float SUM/AVG never reaches here (eligibility).
func mergeAggState(dst, src *aggState) error {
	dst.count += src.count
	if !src.sum.IsNull() {
		if dst.sum.IsNull() {
			dst.sum = src.sum
		} else {
			v, err := value.Add(dst.sum, src.sum)
			if err != nil {
				return err
			}
			dst.sum = v
		}
	}
	if !src.min.IsNull() {
		if dst.min.IsNull() {
			dst.min = src.min
		} else if c, err := value.Compare(src.min, dst.min); err != nil {
			return err
		} else if c < 0 {
			dst.min = src.min
		}
	}
	if !src.max.IsNull() {
		if dst.max.IsNull() {
			dst.max = src.max
		} else if c, err := value.Compare(src.max, dst.max); err != nil {
			return err
		} else if c > 0 {
			dst.max = src.max
		}
	}
	return nil
}

// Next returns the next row in worker order, then a RIGHT/FULL join's
// unmatched build rows, and (nil, nil) after that. The first worker error is
// sticky.
func (x *exchangeIter) Next() (value.Row, error) {
	if !x.inPar {
		return x.serial.Next()
	}
	if x.err != nil {
		return nil, x.err
	}
	for {
		if x.curIdx < len(x.cur) {
			row := x.cur[x.curIdx]
			x.curIdx++
			return row, nil
		}
		if x.wi >= len(x.outs) {
			return x.nextTail()
		}
		b := <-x.outs[x.wi]
		switch {
		case b.err != nil:
			x.err = b.err
			return nil, b.err
		case b.done:
			x.wi++
		default:
			x.cur, x.curIdx = b.rows, 0
		}
	}
}

// nextTail emits the next build row no worker matched, null-padded on the
// left. Every worker wrote its flags before its end-of-stream marker, which
// the coordinator has received by now.
func (x *exchangeIter) nextTail() (value.Row, error) {
	for x.tailIdx < len(x.shared) {
		if err := x.ctx.tick(); err != nil {
			return nil, err
		}
		i := x.tailIdx
		x.tailIdx++
		matched := false
		for _, m := range x.matched {
			matched = matched || m[i]
		}
		if !matched {
			nLeft := len(x.op.(*algebra.Join).Left.Schema())
			return value.Concat(value.NullRow(nLeft), x.shared[i]), nil
		}
	}
	return nil, nil
}

// join cancels outstanding workers, waits for them all, and folds their
// statement counters, stats subtrees and the per-worker rollup into the
// coordinator's. A no-op when no workers are outstanding.
func (x *exchangeIter) join() {
	if x.quit == nil {
		return
	}
	close(x.quit)
	x.wg.Wait()
	x.quit = nil
	for w, wctx := range x.workers {
		x.ctx.absorbWorker(wctx)
		x.stats.absorbChildren(x.wstats[w])
	}
	if n := x.stats; n != nil {
		n.Workers = len(x.workers)
		n.WorkerRows = append([]int64(nil), x.rows...)
		n.WorkerNs = append([]int64(nil), x.ns...)
	}
}

// release joins any workers and drops the fan-out state.
func (x *exchangeIter) release() {
	x.join()
	x.acct.releaseAll()
	x.inPar = false
	x.outs, x.workers, x.wstats, x.folds, x.errs = nil, nil, nil, nil, nil
	x.wi, x.cur, x.curIdx, x.err = 0, nil, 0, nil
	x.shared, x.matched, x.tailIdx = nil, nil, 0
}

func (x *exchangeIter) Close() error {
	x.release()
	return x.serial.Close()
}
