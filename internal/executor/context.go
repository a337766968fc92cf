// Package executor implements Perm's Volcano-style query executor: iterators
// over the logical algebra with runtime choices (hash vs. nested-loop joins,
// hash aggregation), SQL three-valued logic, correlated subplan evaluation,
// and the LATERAL joins the provenance rewriter emits for nested subqueries.
package executor

import (
	"errors"
	"fmt"
	"time"

	"perm/internal/algebra"
	"perm/internal/storage"
	"perm/internal/value"
)

// ErrInterrupted is returned when a query is canceled through the context's
// Interrupt channel (per-query timeouts in the network server, client
// cancellation in the in-process driver).
var ErrInterrupted = errors.New("executor: query interrupted")

// Context carries execution state: the storage engine, the stack of outer
// rows for correlated evaluation, and the cache for uncorrelated subplans.
type Context struct {
	Store *storage.Store
	// SnapLSN is the statement's pinned snapshot position: scans materialize
	// exactly the row versions visible at it, however many writers commit
	// while the statement runs. Zero means "the store's current visible
	// LSN" (detached/test contexts that never pinned).
	SnapLSN uint64
	// Txn, when non-nil, is the session's open transaction: scans read
	// through it so the statement sees the transaction's own buffered
	// writes on top of its snapshot.
	Txn *storage.Txn
	// unpin releases the statement's snapshot pin; Release calls it exactly
	// once. Worker clones never carry it — the coordinator owns the pin.
	unpin func()
	// outer is the stack of correlation rows; OuterRef binds to the top.
	outer []value.Row
	// subplanCache memoizes uncorrelated subplan results by plan identity.
	subplanCache map[*algebra.Subplan]*subplanResult
	// subplanIters caches the built (and expression-compiled) iterator tree
	// of each correlated subplan, so per-outer-row re-execution only re-Opens
	// it instead of rebuilding and recompiling. Safe because a subplan's
	// evaluation fully materializes before returning and a plan tree cannot
	// contain itself, so the cached iterator is never re-entered mid-stream.
	subplanIters map[*algebra.Subplan]iterator
	// Mem, when non-nil, is the session's memory governor: blocking
	// operators (sort, aggregation, set operations, DISTINCT) account the
	// bytes they retain against its budget and spill to its temp-file pool
	// once they cross it. Nil means unlimited memory and no spilling.
	Mem *MemTracker
	// Interrupt, when non-nil, cancels the query once it is closed: the
	// materialization loops poll it periodically and unwind with
	// ErrInterrupted. The network server arms it with the connection's kill
	// channel; the in-process driver with the caller's context.
	Interrupt <-chan struct{}
	// DeadlineNs, when non-zero, cancels the query once the wall clock passes
	// it (UnixNano) — the timer-free form of per-query timeouts (one time.Now
	// per poll, no goroutine or channel per statement). Stored as nanoseconds
	// rather than a time.Time to keep the Context inside its allocation size
	// class now that Parallel rides along.
	DeadlineNs int64
	// Parallel is the statement's intra-query parallelism degree, resolved by
	// the session (SET parallelism; 0 resolves to GOMAXPROCS before it gets
	// here). Values <= 1 build the classic single-goroutine iterator tree;
	// higher values let eligible operators fan work out to that many workers.
	Parallel int32
	// Params are the statement's bound `?` arguments, indexed by placeholder
	// ordinal; algebra.Param expressions read them at evaluation time.
	Params []value.Value
	// keyScratch is a reusable buffer for probe-side hash keys (uncorrelated
	// IN-subquery membership tests), so probing does not allocate per row.
	keyScratch []byte
	// owner is the stats node of the operator currently executing, set and
	// restored by statIter around every wrapped Open/Next/Close so memory
	// accounts attribute their bytes to the right operator. Always nil on
	// the uninstrumented path.
	owner *OpStats
	// RowBudget, when positive, bounds the total number of rows any single
	// operator may buffer (protection against runaway provenance joins in
	// interactive use). Zero means unlimited.
	RowBudget int32
	// SubplanHits/SubplanMisses count uncorrelated-subplan memoization: a
	// miss runs the subplan, a hit reuses its materialized result. Reported
	// by EXPLAIN ANALYZE and SET trace at statement level.
	SubplanHits   int32
	SubplanMisses int32
	// ParallelOps counts operators that actually fanned out to workers this
	// statement (serial fallbacks do not count). Incremented only by
	// coordinator Opens on the statement goroutine; the engine reads it for
	// metrics and tracing after execution. ParallelWorkers is the total
	// worker fan-out across those operators.
	ParallelOps     int32
	ParallelWorkers int32
	// ticks counts tick() calls for the row-free cancellation polls.
	ticks uint32
	// part, set only on a parallel worker's context, is the partition the
	// exchange's leaf scan reads instead of the table.
	part *scanPart
}

// Tick exposes the cancellation poll to engine-level DML loops (UPDATE
// setters, and any other per-row work that bypasses the iterator machinery).
func (c *Context) Tick() error { return c.tick() }

// SetUnpin installs the statement's snapshot-release hook (the engine pins
// a snapshot LSN per statement and must unpin it when the statement's last
// reader is done, or the version vacuum could never advance).
func (c *Context) SetUnpin(f func()) { c.unpin = f }

// Release releases the statement's snapshot pin. Idempotent; safe on
// contexts that never pinned.
func (c *Context) Release() {
	if c.unpin != nil {
		c.unpin()
		c.unpin = nil
	}
}

// TableRows resolves the named table and returns the rows this statement
// sees: the open transaction's read-your-writes view when one is active,
// otherwise the versions visible at the pinned snapshot LSN. Every scan
// must come through here — a scan that read the live table directly would
// observe concurrent writers mid-statement.
func (c *Context) TableRows(name string) ([]value.Row, error) {
	t := c.Store.Table(name)
	if t == nil {
		return nil, fmt.Errorf("executor: table %q does not exist", name)
	}
	if c.Txn != nil {
		return c.Txn.TableRows(t), nil
	}
	return t.SnapshotAt(c.SnapLSN), nil
}

// tick is the cancellation poll for loops that can spin without producing a
// row (filters rejecting everything, join probes that never match): the
// materialization loops only poll per emitted row, so these inner loops call
// tick once per iteration and pay one channel select every interruptMask+1
// calls.
func (c *Context) tick() error {
	c.ticks++
	if c.ticks&interruptMask != 0 {
		return nil
	}
	return c.interrupted()
}

// interrupted reports ErrInterrupted once the Interrupt channel has fired or
// the deadline has passed.
func (c *Context) interrupted() error {
	if c.DeadlineNs != 0 && time.Now().UnixNano() > c.DeadlineNs {
		return ErrInterrupted
	}
	if c.Interrupt == nil {
		return nil
	}
	select {
	case <-c.Interrupt:
		return ErrInterrupted
	default:
		return nil
	}
}

// subplanIter returns the cached iterator tree for a correlated subplan,
// building it on first use.
func (c *Context) subplanIter(sp *algebra.Subplan) (iterator, error) {
	if it, ok := c.subplanIters[sp]; ok {
		return it, nil
	}
	it, err := build(sp.Plan)
	if err != nil {
		return nil, err
	}
	c.subplanIters[sp] = it
	return it, nil
}

type subplanResult struct {
	rows []value.Row
	err  error
	// Membership index for uncorrelated IN subplans, built on first use:
	// keys of the first column's values, plus whether a NULL occurred.
	inSet     map[string]struct{}
	inSawNull bool
}

// membership returns the IN-membership index, building it lazily. Keys are
// built in a scratch buffer and only materialize into map-owned strings for
// values not seen before, so duplicate-heavy inputs index allocation-free.
func (r *subplanResult) membership() (map[string]struct{}, bool) {
	if r.inSet == nil {
		r.inSet = make(map[string]struct{}, len(r.rows))
		var scratch []byte
		for _, row := range r.rows {
			if row[0].IsNull() {
				r.inSawNull = true
				continue
			}
			scratch = row[0].AppendKey(scratch[:0])
			if _, seen := r.inSet[string(scratch)]; !seen {
				r.inSet[string(scratch)] = struct{}{}
			}
		}
	}
	return r.inSet, r.inSawNull
}

// NewContext returns an execution context over the store.
func NewContext(store *storage.Store) *Context {
	return &Context{
		Store:        store,
		subplanCache: make(map[*algebra.Subplan]*subplanResult),
		subplanIters: make(map[*algebra.Subplan]iterator),
	}
}

// SetDeadline arms (or, with the zero time, clears) the context's wall-clock
// deadline.
func (c *Context) SetDeadline(t time.Time) {
	if t.IsZero() {
		c.DeadlineNs = 0
		return
	}
	c.DeadlineNs = t.UnixNano()
}

// workerClone derives a context for one parallel worker goroutine. Workers
// share the statement's immutable state (store, memory governor, interrupt
// channel, deadline, bound parameters) but own everything mutable: scratch
// buffers, tick counters, subplan caches, the outer-row stack, and the stats
// owner — none of which is safe to share across goroutines. Parallel is 1:
// subtrees a worker drives never fan out again. part is the worker's
// partition of the exchange's leaf scan.
func (c *Context) workerClone(part *scanPart) *Context {
	return &Context{
		Store:        c.Store,
		SnapLSN:      c.SnapLSN,
		Txn:          c.Txn,
		subplanCache: make(map[*algebra.Subplan]*subplanResult),
		subplanIters: make(map[*algebra.Subplan]iterator),
		Mem:          c.Mem,
		Interrupt:    c.Interrupt,
		DeadlineNs:   c.DeadlineNs,
		Parallel:     1,
		Params:       c.Params,
		RowBudget:    c.RowBudget,
		part:         part,
	}
}

// absorbWorker folds the statement-level counters a worker clone accumulated
// back into the parent context. Called after the worker goroutine has been
// joined (the caller provides the happens-before edge).
func (c *Context) absorbWorker(w *Context) {
	c.SubplanHits += w.SubplanHits
	c.SubplanMisses += w.SubplanMisses
}

func (c *Context) pushOuter(row value.Row) { c.outer = append(c.outer, row) }
func (c *Context) popOuter()               { c.outer = c.outer[:len(c.outer)-1] }

func (c *Context) outerRow() (value.Row, error) {
	if len(c.outer) == 0 {
		return nil, fmt.Errorf("executor: outer reference outside correlated context")
	}
	return c.outer[len(c.outer)-1], nil
}

// Result is a fully materialized query result.
type Result struct {
	Schema algebra.Schema
	Rows   []value.Row
}

// Run executes the plan to completion — Open + Drain over the streaming
// surface, kept for callers that want the whole result at once.
func Run(ctx *Context, plan algebra.Op) (*Result, error) {
	s, err := Open(ctx, plan)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rows, err := s.Drain()
	if err != nil {
		return nil, err
	}
	return &Result{Schema: s.Schema(), Rows: rows}, nil
}

// iterator is the Volcano operator interface. Next returns (nil, nil) at end
// of stream.
type iterator interface {
	Open(ctx *Context) error
	Next() (value.Row, error)
	Close() error
}

// build maps a logical operator to its uninstrumented serial iterator — the
// default, zero-overhead path.
func build(op algebra.Op) (iterator, error) { return buildInto(op, nil, false) }

// buildInto maps a logical operator to its iterator. With a non-nil parent
// stats node (EXPLAIN ANALYZE, SET trace) every concrete operator gets a
// stats child and a statIter wrapper; pass-through nodes (BaseRel, ProvDone)
// attach their input directly to the parent, exactly as they produce no
// iterator of their own. With par (a statement root with a parallelism
// degree above 1) every operator that can fan out is wrapped in an exchange
// (parallel.go); its subtree builds serially.
func buildInto(op algebra.Op, parent *OpStats, par bool) (iterator, error) {
	switch o := op.(type) {
	case *algebra.Scan:
		return wrapStat(&scanIter{op: o}, node(parent, o)), nil
	case *algebra.Values:
		return wrapStat(&valuesIter{op: o}, node(parent, o)), nil
	case *algebra.Project:
		n := node(parent, o)
		leaf := exchangeLeaf(o, par)
		in, err := buildInto(o.Input, n, par && leaf == nil)
		if err != nil {
			return nil, err
		}
		return wrapStat(withExchange(&projectIter{op: o, input: in}, o, leaf, nil, n), n), nil
	case *algebra.Select:
		n := node(parent, o)
		leaf := exchangeLeaf(o, par)
		in, err := buildInto(o.Input, n, par && leaf == nil)
		if err != nil {
			return nil, err
		}
		return wrapStat(withExchange(&filterIter{op: o, input: in}, o, leaf, nil, n), n), nil
	case *algebra.BaseRel:
		return buildInto(o.Input, parent, par)
	case *algebra.ProvDone:
		return buildInto(o.Input, parent, par)
	case *algebra.Join:
		return buildJoin(o, parent, par)
	case *algebra.Agg:
		n := node(parent, o)
		leaf := exchangeLeaf(o, par)
		in, err := buildInto(o.Input, n, par && leaf == nil)
		if err != nil {
			return nil, err
		}
		return wrapStat(withExchange(&aggIter{op: o, input: in}, o, leaf, nil, n), n), nil
	case *algebra.Distinct:
		n := node(parent, o)
		in, err := buildInto(o.Input, n, par)
		if err != nil {
			return nil, err
		}
		return wrapStat(&distinctIter{input: in}, n), nil
	case *algebra.SetOp:
		n := node(parent, o)
		l, err := buildInto(o.Left, n, par)
		if err != nil {
			return nil, err
		}
		r, err := buildInto(o.Right, n, par)
		if err != nil {
			return nil, err
		}
		return wrapStat(&setOpIter{op: o, left: l, right: r}, n), nil
	case *algebra.Sort:
		n := node(parent, o)
		in, err := buildInto(o.Input, n, par)
		if err != nil {
			return nil, err
		}
		return wrapStat(&sortIter{op: o, input: in}, n), nil
	case *algebra.Limit:
		n := node(parent, o)
		in, err := buildInto(o.Input, n, par)
		if err != nil {
			return nil, err
		}
		return wrapStat(&limitIter{op: o, input: in}, n), nil
	}
	return nil, fmt.Errorf("executor: no iterator for operator %T", op)
}
