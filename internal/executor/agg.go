package executor

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"sort"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/value"
)

// aggIter implements hash aggregation with DISTINCT support. With no GROUP BY
// expressions it emits exactly one row (the SQL scalar-aggregate case), even
// over empty input.
//
// Memory behavior (hybrid grace hash aggregation): the fold consumes its
// input streaming — the input is never materialized — and accounts the group
// table (keys, states, DISTINCT seen-sets) against the session budget. Once
// over budget, resident groups keep absorbing their rows in memory, while
// rows of NEW groups route to hash partitions on disk; partitions resolve
// recursively with the same rule. Resident state that itself outgrows the
// budget sheds in one of two ways: COUNT(DISTINCT …) seen-sets flush their
// fragment as sorted element runs (merged back with dedup at emission, so even
// one giant set never sits fully resident), and other oversized groups
// serialize whole into the partition files as mergeable partial records, their
// remaining rows following them down by key. Every group's output row is
// tagged with the group's first input sequence, and the final merge replays
// groups in ascending first-appearance order — byte-identical to the
// in-memory path.
type aggIter struct {
	op    *algebra.Agg
	input iterator
	ctx   *Context
	out   []value.Row
	pos   int
	// compiled group-by and aggregate-argument evaluators, built on first
	// Open and kept across re-Opens (lateral/correlated re-execution).
	groupBy  []compiledExpr
	argExprs []compiledExpr
	// spill state
	reg    fileReg
	merger *seqMerger
	fold   *aggFold // current fold, released via Close on error unwinds
	// partial marks a parallel worker's fold: it never spills, and crossing
	// the budget aborts with errParallelOverflow so the serial path runs.
	partial bool
}

// aggState accumulates one aggregate within one group.
//
// DISTINCT states keep their seen-set as a resident fragment (canonical key →
// value) plus zero or more sorted runs on disk. While no run exists the
// aggregate folds eagerly, exactly the historical path. Once memory pressure
// flushes the first fragment (flushFragment), the eager values stop being
// meaningful — an element absent from the fragment may still be in a run — and
// finalizeDistinct recomputes them from a deduplicating merge of all runs
// before the group emits.
type aggState struct {
	count    int64
	sum      value.Value
	min      value.Value
	max      value.Value
	distinct map[string]value.Value // non-nil iff DISTINCT
	// fragBytes is the accounted footprint of the resident fragment; runs are
	// the flushed sorted element runs.
	fragBytes int64
	runs      []*spill.File
}

// aggGroup is one group: its key values, its aggregate states, and the input
// sequence of its first row (the output-order tag).
type aggGroup struct {
	keys     value.Row
	states   []aggState
	firstSeq uint64
	// bytes is the group's accounted footprint (key, states, DISTINCT
	// entries), released in one piece when the group is evicted.
	bytes int64
}

// aggGroupFixedBytes approximates the per-group footprint beyond key bytes
// and DISTINCT entries.
const aggGroupFixedBytes = 96

// Aggregation partition files hold two record kinds, discriminated by their
// first byte: raw input rows (sequence-tagged, folded downstream) and partial
// group states (an evicted resident group — counts, sums, extrema and the
// DISTINCT seen-set — merged downstream with the group's remaining rows).
const (
	aggRecRaw     = 0x00
	aggRecPartial = 0x01
)

// appendAggPartial serializes a group's partial state behind the aggRecPartial
// discriminator. DISTINCT fragments serialize as length-prefixed canonical
// element keys, each followed by its source value; set order does not matter
// because the reader folds them back into a set. Groups holding runs are never
// serialized (evictOver only flushes them): a run is a file, and files cannot
// ride inside a partition record.
func appendAggPartial(dst []byte, g *aggGroup) []byte {
	dst = append(dst, aggRecPartial)
	dst = binary.AppendUvarint(dst, g.firstSeq)
	dst = spill.AppendRow(dst, g.keys)
	for i := range g.states {
		st := &g.states[i]
		dst = binary.AppendUvarint(dst, uint64(st.count))
		dst = spill.AppendValue(dst, st.sum)
		dst = spill.AppendValue(dst, st.min)
		dst = spill.AppendValue(dst, st.max)
		if st.distinct == nil {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(len(st.distinct)))
		for k, v := range st.distinct {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst = spill.AppendValue(dst, v)
		}
	}
	return dst
}

// decodeAggPartial reverses appendAggPartial (rec excludes the discriminator
// byte), returning the reconstructed group and its accountable byte footprint
// (sans the map key, which the caller adds).
func decodeAggPartial(rec []byte, nAggs int) (*aggGroup, int64, error) {
	corrupt := fmt.Errorf("executor: corrupt partial aggregate record")
	firstSeq, n := binary.Uvarint(rec)
	if n <= 0 {
		return nil, 0, corrupt
	}
	keys, rest, err := spill.DecodeRow(rec[n:])
	if err != nil {
		return nil, 0, err
	}
	g := &aggGroup{keys: keys, states: make([]aggState, nAggs), firstSeq: firstSeq}
	bytes := rowBytes(keys) + aggGroupFixedBytes + int64(nAggs)*48
	for i := 0; i < nAggs; i++ {
		st := &g.states[i]
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, corrupt
		}
		st.count = int64(count)
		rest = rest[n:]
		if st.sum, rest, err = spill.DecodeValue(rest); err != nil {
			return nil, 0, err
		}
		if st.min, rest, err = spill.DecodeValue(rest); err != nil {
			return nil, 0, err
		}
		if st.max, rest, err = spill.DecodeValue(rest); err != nil {
			return nil, 0, err
		}
		if len(rest) == 0 {
			return nil, 0, corrupt
		}
		hasDistinct := rest[0]
		rest = rest[1:]
		if hasDistinct == 0 {
			continue
		}
		nElems, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, corrupt
		}
		rest = rest[n:]
		st.distinct = make(map[string]value.Value, nElems)
		for j := uint64(0); j < nElems; j++ {
			klen, n := binary.Uvarint(rest)
			if n <= 0 || uint64(len(rest)-n) < klen {
				return nil, 0, corrupt
			}
			k := string(rest[n : n+int(klen)])
			rest = rest[n+int(klen):]
			var v value.Value
			if v, rest, err = spill.DecodeValue(rest); err != nil {
				return nil, 0, err
			}
			st.distinct[k] = v
			st.fragBytes += int64(klen) + mapEntryBytes + valueFixedBytes + int64(len(v.S))
		}
		bytes += st.fragBytes
	}
	return g, bytes, nil
}

func (a *aggIter) Open(ctx *Context) error {
	a.release()
	a.ctx = ctx
	fold, _, err := a.foldInput(ctx)
	if err != nil {
		return err
	}

	if fold.parts == nil {
		// Everything fit: emit the groups in first-appearance order, exactly
		// the historical in-memory path.
		out, err := a.emitGroups(fold)
		if err != nil {
			return err
		}
		// Scalar aggregation over empty input still produces one (empty) group.
		if len(a.op.GroupBy) == 0 && len(out) == 0 {
			g := fold.newGroup(value.Row{}, 0)
			row, err := a.groupRow(g)
			if err != nil {
				return err
			}
			out = append(out, row)
		}
		a.out = out
		a.pos = 0
		fold.acct.releaseAll()
		a.fold = nil
		return nil
	}

	// Spilled: the resident groups become the first output file, then every
	// partition resolves recursively into more, and the merge replays all of
	// them in ascending first-appearance order.
	var outputs []*spill.File
	if err := a.writeGroups(fold, &outputs); err != nil {
		return err
	}
	parts := fold.parts
	fold.acct.releaseAll()
	a.fold = nil
	for _, f := range parts.files {
		if f == nil {
			continue
		}
		if err := a.resolvePartition(f, 1, &outputs); err != nil {
			return err
		}
	}
	m, err := newSeqMerger(ctx, &a.reg, outputs)
	if err != nil {
		return err
	}
	a.merger = m
	return nil
}

// foldInput opens the input and folds all of it into a fresh level-0 fold
// (kept in a.fold, so Close releases it on error unwinds), returning the fold
// and the input row count.
func (a *aggIter) foldInput(ctx *Context) (*aggFold, int, error) {
	if err := a.input.Open(ctx); err != nil {
		return nil, 0, err
	}
	defer a.input.Close()

	// Compile group-by and aggregate-argument expressions once for the whole
	// input, instead of tree-walking them per row.
	if a.groupBy == nil {
		a.groupBy = compileAll(a.op.GroupBy)
		a.argExprs = make([]compiledExpr, len(a.op.Aggs))
		for i, ae := range a.op.Aggs {
			if ae.Arg != nil {
				a.argExprs[i] = Compile(ae.Arg)
			}
		}
	}

	fold := a.newFold(0)
	a.fold = fold
	total := 0
	for {
		// The fold emits no rows until every input is consumed, so it polls
		// for cancellation itself (like the join probe loops).
		if err := ctx.tick(); err != nil {
			return nil, 0, err
		}
		row, err := a.input.Next()
		if err != nil {
			return nil, 0, err
		}
		if row == nil {
			return fold, total, nil
		}
		total++
		if ctx.RowBudget > 0 && total > int(ctx.RowBudget) {
			return nil, 0, fmt.Errorf("executor: intermediate result exceeds row budget of %d rows", ctx.RowBudget)
		}
		if err := fold.add(uint64(total-1), row); err != nil {
			return nil, 0, err
		}
	}
}

// resolvePartition folds one spilled partition, cascading to sub-partitions
// one level deeper when it is itself over budget.
func (a *aggIter) resolvePartition(f *spill.File, level int, outputs *[]*spill.File) error {
	if err := f.StartRead(); err != nil {
		return err
	}
	fold := a.newFold(level)
	a.fold = fold
	for {
		if err := a.ctx.tick(); err != nil {
			return err
		}
		rec, err := f.Next()
		if err != nil {
			return err
		}
		if rec == nil {
			break
		}
		if len(rec) == 0 {
			return fmt.Errorf("executor: empty aggregation spill record")
		}
		switch rec[0] {
		case aggRecRaw:
			seq, row, err := decodeSeqRow(rec[1:])
			if err != nil {
				return err
			}
			if err := fold.add(seq, row); err != nil {
				return err
			}
		case aggRecPartial:
			if err := fold.addPartial(rec); err != nil {
				return err
			}
		default:
			return fmt.Errorf("executor: unknown aggregation spill record kind %d", rec[0])
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := a.writeGroups(fold, outputs); err != nil {
		return err
	}
	parts := fold.parts
	fold.acct.releaseAll()
	a.fold = nil
	if parts == nil {
		return nil
	}
	for _, sf := range parts.files {
		if sf == nil {
			continue
		}
		if err := a.resolvePartition(sf, level+1, outputs); err != nil {
			return err
		}
	}
	return nil
}

// emitGroups finalizes a fold's groups into rows, in insertion order
// (ascending first-appearance).
func (a *aggIter) emitGroups(fold *aggFold) ([]value.Row, error) {
	out := make([]value.Row, 0, len(fold.order))
	for _, g := range fold.order {
		row, err := a.groupRow(g)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// writeGroups finalizes a fold's groups into a fresh sequence-tagged output
// file (skipped when the fold holds none). Groups sort by first-appearance
// before writing: insertion order is already ascending for raw-row folds, but
// an admitted partial (evicted upstream later than its first row) can arrive
// behind younger groups, and the merger requires each file ascending.
func (a *aggIter) writeGroups(fold *aggFold, outputs *[]*spill.File) error {
	if len(fold.order) == 0 {
		return nil
	}
	sort.Slice(fold.order, func(i, j int) bool { return fold.order[i].firstSeq < fold.order[j].firstSeq })
	out, err := a.ctx.Mem.Pool().Create()
	if err != nil {
		return err
	}
	a.reg.add(out)
	*outputs = append(*outputs, out)
	var rec []byte
	for _, g := range fold.order {
		row, err := a.groupRow(g)
		if err != nil {
			return err
		}
		rec = appendSeqRow(rec[:0], g.firstSeq, row)
		if err := out.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

// groupRow builds one output row: group keys then finalized aggregates.
// DISTINCT states that flushed runs first recompute their values from the
// deduplicating merge.
func (a *aggIter) groupRow(g *aggGroup) (value.Row, error) {
	row := make(value.Row, 0, len(g.keys)+len(g.states))
	row = append(row, g.keys...)
	for i, ae := range a.op.Aggs {
		st := &g.states[i]
		if st.runs != nil {
			if err := st.finalizeDistinct(a.ctx, &a.reg, ae); err != nil {
				return nil, err
			}
		}
		v, err := st.result(ae)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// aggFold is one in-memory aggregation pass: a group table plus (once over
// budget) the partition set rows of non-resident groups route to.
type aggFold struct {
	a      *aggIter
	level  int
	acct   memAcct
	groups map[string]*aggGroup
	order  []*aggGroup
	parts  *partitionSet
	// evictStuck records that the last evictOver scan released nothing;
	// growSinceEvict accrues charged growth since that scan, so the next one
	// only runs once a fragment can plausibly have crossed the run floor.
	evictStuck     bool
	growSinceEvict int64
	// scratch buffers, reused across rows
	keyVals         value.Row
	keyScratch      []byte
	distinctScratch []byte
	rec             []byte
}

func (a *aggIter) newFold(level int) *aggFold {
	return &aggFold{
		a:       a,
		level:   level,
		acct:    memAcct{ctx: a.ctx},
		groups:  make(map[string]*aggGroup),
		keyVals: make(value.Row, len(a.groupBy)),
	}
}

func (f *aggFold) newGroup(keys value.Row, firstSeq uint64) *aggGroup {
	return newAggGroup(f.a.op.Aggs, keys, firstSeq)
}

// newAggGroup initializes a group's states for the given aggregate list.
func newAggGroup(aggs []algebra.AggExpr, keys value.Row, firstSeq uint64) *aggGroup {
	g := &aggGroup{keys: keys, states: make([]aggState, len(aggs)), firstSeq: firstSeq}
	for i, ae := range aggs {
		st := &g.states[i]
		st.sum, st.min, st.max = value.Null, value.Null, value.Null
		if ae.Distinct {
			st.distinct = make(map[string]value.Value)
		}
	}
	return g
}

// add folds one (sequence, row) pair: accumulate into a resident group,
// create the group if there is room, or route the row to a partition.
func (f *aggFold) add(seq uint64, row value.Row) error {
	// The group key is built in the scratch buffer and looked up
	// allocation-free; only new groups pay for a map-owned key string.
	f.keyScratch = f.keyScratch[:0]
	for i, ge := range f.a.groupBy {
		v, err := ge(row, f.a.ctx)
		if err != nil {
			return err
		}
		f.keyVals[i] = v
		f.keyScratch = value.AppendFramedKey(f.keyScratch, v)
	}
	g, ok := f.groups[string(f.keyScratch)]
	if !ok {
		if f.routing() {
			f.rec = append(f.rec[:0], aggRecRaw)
			f.rec = appendSeqRow(f.rec, seq, row)
			return f.parts.route(f.keyScratch, f.rec)
		}
		g = f.newGroup(f.keyVals.Clone(), seq)
		f.groups[string(f.keyScratch)] = g
		f.order = append(f.order, g)
		g.bytes = int64(len(f.keyScratch)) + rowBytes(g.keys) + aggGroupFixedBytes + int64(len(g.states))*48
		f.acct.grow(g.bytes)
		f.growSinceEvict += g.bytes
	}
	for i, ae := range f.a.op.Aggs {
		var arg value.Value
		if f.a.argExprs[i] != nil {
			v, err := f.a.argExprs[i](row, f.a.ctx)
			if err != nil {
				return err
			}
			arg = v
		}
		grew, err := g.states[i].accumulate(ae, arg, &f.distinctScratch)
		if err != nil {
			return err
		}
		if grew > 0 {
			g.bytes += grew
			f.acct.grow(grew)
			f.growSinceEvict += grew
		}
	}
	// Resident state that outgrew the budget (DISTINCT seen-sets) sheds here
	// — the one growth path the new-group gate above cannot bound. When a
	// previous scan found nothing left to shed, rescan only once enough new
	// growth accrued for a fragment to have crossed the run floor.
	if f.acct.spillable() && f.acct.over() {
		if f.a.partial {
			return errParallelOverflow
		}
		if !f.evictStuck || f.growSinceEvict >= minDistinctRunBytes {
			return f.evictOver()
		}
	}
	return nil
}

// routing reports whether rows of non-resident groups currently route to disk
// partitions, creating the partition set on the first routed row.
func (f *aggFold) routing() bool {
	if f.parts != nil {
		return true
	}
	if !f.a.partial && f.acct.spillable() && f.acct.over() && len(f.order) >= minFoldGroups && f.level < maxSpillLevel {
		f.parts = newPartitionSet(f.a.ctx.Mem.Pool(), &f.a.reg, f.level)
		return true
	}
	return false
}

// addPartial folds one serialized partial group state (rec includes the
// discriminator). The partial either passes through to a deeper partition
// (when the fold is already routing) or becomes a resident group; its
// remaining raw rows always follow it in file order, because an eviction
// precedes every routed row of its group.
func (f *aggFold) addPartial(rec []byte) error {
	g, bytes, err := decodeAggPartial(rec[1:], len(f.a.op.Aggs))
	if err != nil {
		return err
	}
	f.keyScratch = f.keyScratch[:0]
	for _, v := range g.keys {
		f.keyScratch = value.AppendFramedKey(f.keyScratch, v)
	}
	if _, exists := f.groups[string(f.keyScratch)]; exists {
		return fmt.Errorf("executor: internal: partial aggregate state after its group became resident")
	}
	if f.routing() {
		return f.parts.route(f.keyScratch, rec)
	}
	g.bytes = bytes + int64(len(f.keyScratch))
	f.groups[string(f.keyScratch)] = g
	f.order = append(f.order, g)
	f.acct.grow(g.bytes)
	f.growSinceEvict += g.bytes
	if f.acct.spillable() && f.acct.over() {
		if f.a.partial {
			return errParallelOverflow
		}
		if !f.evictStuck || f.growSinceEvict >= minDistinctRunBytes {
			return f.evictOver()
		}
	}
	return nil
}

// evictOver sheds resident footprint — largest groups first — until tracked
// memory is back under 3/4 of the budget (the hysteresis keeps one growing
// seen-set from re-triggering a scan per element). A group carrying a sizable
// DISTINCT fragment flushes it to a sorted run and stays resident: its rows
// keep folding in place, bounding even a single giant seen-set, and the runs
// merge back at emission (finalizeDistinct). Other groups serialize whole into
// the partition files as partial records and leave the table; their later rows
// route to the same partition by key and merge one level deeper. Groups
// already behind runs can only flush — a run file cannot ride inside a
// partition record — and partial eviction needs headroom below maxSpillLevel,
// while flushing works at any level.
func (f *aggFold) evictOver() error {
	m := f.a.ctx.Mem
	target := m.Budget() - m.Budget()/4
	f.growSinceEvict = 0
	if m.Tracked() <= target || len(f.order) == 0 {
		return nil
	}
	cands := append([]*aggGroup(nil), f.order...)
	sort.Slice(cands, func(i, j int) bool { return cands[i].bytes > cands[j].bytes })
	evicted := make(map[*aggGroup]bool)
	released := false
	var key []byte
	for _, g := range cands {
		if m.Tracked() <= target {
			break
		}
		var flushed int64
		hasRuns := false
		for i := range g.states {
			st := &g.states[i]
			if st.runs != nil {
				hasRuns = true
			}
			if st.distinct != nil && st.fragBytes >= minDistinctRunBytes {
				rel, err := st.flushFragment(m.Pool(), &f.a.reg)
				if err != nil {
					return err
				}
				flushed += rel
				hasRuns = true
			}
		}
		if flushed > 0 {
			g.bytes -= flushed
			f.acct.release(flushed)
			released = true
			continue
		}
		if hasRuns || f.level >= maxSpillLevel {
			continue
		}
		if f.parts == nil {
			f.parts = newPartitionSet(m.Pool(), &f.a.reg, f.level)
		}
		key = key[:0]
		for _, v := range g.keys {
			key = value.AppendFramedKey(key, v)
		}
		f.rec = appendAggPartial(f.rec[:0], g)
		if err := f.parts.route(key, f.rec); err != nil {
			return err
		}
		delete(f.groups, string(key))
		evicted[g] = true
		released = true
		f.acct.release(g.bytes)
	}
	if len(evicted) > 0 {
		keep := f.order[:0]
		for _, g := range f.order {
			if !evicted[g] {
				keep = append(keep, g)
			}
		}
		f.order = keep
	}
	f.evictStuck = !released
	return nil
}

// accumulate folds one input value into the state. scratch is a shared
// reusable buffer for DISTINCT seen-set keys; the returned byte count is the
// DISTINCT set growth to account.
func (s *aggState) accumulate(ae algebra.AggExpr, arg value.Value, scratch *[]byte) (int64, error) {
	if ae.Func == algebra.AggCount && ae.Arg == nil {
		s.count++ // COUNT(*): every row counts
		return 0, nil
	}
	if arg.IsNull() {
		return 0, nil // aggregates skip NULLs
	}
	var grew int64
	if s.distinct != nil {
		*scratch = arg.AppendKey((*scratch)[:0])
		if _, seen := s.distinct[string(*scratch)]; seen {
			return 0, nil
		}
		s.distinct[string(*scratch)] = arg
		grew = int64(len(*scratch)) + mapEntryBytes + valueFixedBytes + int64(len(arg.S))
		s.fragBytes += grew
		if s.runs != nil {
			// An element absent from the fragment may still sit in a flushed
			// run, so the eager values below would double-count; they are
			// garbage from the first flush on, and finalizeDistinct recomputes
			// them from the merge before the group emits.
			return grew, nil
		}
	}
	return grew, s.fold(ae, arg)
}

// fold applies one non-NULL value to the running aggregates (any DISTINCT
// bookkeeping already done by the caller).
func (s *aggState) fold(ae algebra.AggExpr, arg value.Value) error {
	s.count++
	switch ae.Func {
	case algebra.AggCount:
	case algebra.AggSum, algebra.AggAvg:
		if s.sum.IsNull() {
			s.sum = arg
		} else {
			v, err := value.Add(s.sum, arg)
			if err != nil {
				return err
			}
			s.sum = v
		}
	case algebra.AggMin:
		if s.min.IsNull() {
			s.min = arg
		} else if c, err := value.Compare(arg, s.min); err != nil {
			return err
		} else if c < 0 {
			s.min = arg
		}
	case algebra.AggMax:
		if s.max.IsNull() {
			s.max = arg
		} else if c, err := value.Compare(arg, s.max); err != nil {
			return err
		} else if c > 0 {
			s.max = arg
		}
	default:
		return fmt.Errorf("executor: unknown aggregate %q", ae.Func)
	}
	return nil
}

// minDistinctRunBytes floors the fragment size worth flushing as a run, so a
// permanently over-budget tracker cannot degrade into per-element run files.
const minDistinctRunBytes = 2048

// flushFragment writes the resident DISTINCT fragment as one sorted run file
// and clears it, returning the released footprint. Canonical keys sort
// bytewise, so every run is internally ascending and duplicate-free;
// duplicates exist only across runs and fall to the merge's dedup.
func (s *aggState) flushFragment(pool *spill.Pool, reg *fileReg) (int64, error) {
	keys := make([]string, 0, len(s.distinct))
	for k := range s.distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f, err := pool.Create()
	if err != nil {
		return 0, err
	}
	reg.add(f)
	var rec []byte
	for _, k := range keys {
		rec = binary.AppendUvarint(rec[:0], uint64(len(k)))
		rec = append(rec, k...)
		rec = spill.AppendValue(rec, s.distinct[k])
		if err := f.Append(rec); err != nil {
			return 0, err
		}
	}
	s.runs = append(s.runs, f)
	released := s.fragBytes
	s.fragBytes = 0
	s.distinct = make(map[string]value.Value)
	return released, nil
}

// distinctCursor walks one sorted DISTINCT run. Keys copy out of the file's
// read buffer (Next aliases it); values copy by construction (DecodeValue).
type distinctCursor struct {
	f   *spill.File
	key []byte
	val value.Value
}

func (c *distinctCursor) advance() (done bool, err error) {
	rec, err := c.f.Next()
	if err != nil {
		return false, err
	}
	if rec == nil {
		return true, c.f.Close()
	}
	klen, n := binary.Uvarint(rec)
	if n <= 0 || uint64(len(rec)-n) < klen {
		return false, fmt.Errorf("executor: corrupt DISTINCT run record")
	}
	c.key = append(c.key[:0], rec[n:n+int(klen)]...)
	c.val, _, err = spill.DecodeValue(rec[n+int(klen):])
	return false, err
}

// distinctHeap orders run cursors by canonical element key. Equal keys carry
// equal values, so ties need no break.
type distinctHeap []*distinctCursor

func (h distinctHeap) Len() int           { return len(h) }
func (h distinctHeap) Less(i, j int) bool { return bytes.Compare(h[i].key, h[j].key) < 0 }
func (h distinctHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distinctHeap) Push(x any)        { *h = append(*h, x.(*distinctCursor)) }
func (h *distinctHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// distinctMerger streams the deduplicating k-way merge of sorted element runs:
// each step surfaces one distinct element and advances every cursor sitting on
// it.
type distinctMerger struct {
	h       distinctHeap
	scratch []byte
}

func openDistinctHeap(files []*spill.File) (*distinctMerger, error) {
	m := &distinctMerger{h: make(distinctHeap, 0, len(files))}
	for _, f := range files {
		if err := f.StartRead(); err != nil {
			return nil, err
		}
		c := &distinctCursor{f: f}
		done, err := c.advance()
		if err != nil {
			return nil, err
		}
		if !done {
			m.h = append(m.h, c)
		}
	}
	heap.Init(&m.h)
	return m, nil
}

func (m *distinctMerger) remaining() int { return len(m.h) }

func (m *distinctMerger) minRecord(dst []byte) []byte {
	c := m.h[0]
	dst = binary.AppendUvarint(dst, uint64(len(c.key)))
	dst = append(dst, c.key...)
	return spill.AppendValue(dst, c.val)
}

func (m *distinctMerger) step() error {
	m.scratch = append(m.scratch[:0], m.h[0].key...)
	for len(m.h) > 0 && bytes.Equal(m.h[0].key, m.scratch) {
		c := m.h[0]
		done, err := c.advance()
		if err != nil {
			return err
		}
		if done {
			heap.Pop(&m.h)
		} else {
			heap.Fix(&m.h, 0)
		}
	}
	return nil
}

// finalizeDistinct recomputes a spilled DISTINCT state's aggregates from the
// deduplicating merge of its runs (plus the final resident fragment, flushed
// as one more run), then drops the runs. States that never flushed keep their
// eager values and never reach here.
func (s *aggState) finalizeDistinct(ctx *Context, reg *fileReg, ae algebra.AggExpr) error {
	if len(s.distinct) > 0 {
		if _, err := s.flushFragment(ctx.Mem.Pool(), reg); err != nil {
			return err
		}
	}
	files, err := reduceToFanIn(ctx.Mem.Pool(), reg, s.runs,
		func(fs []*spill.File) (mergeStream, error) { return openDistinctHeap(fs) }, ctx.tick)
	if err != nil {
		return err
	}
	s.runs = nil
	m, err := openDistinctHeap(files)
	if err != nil {
		return err
	}
	s.count, s.sum, s.min, s.max = 0, value.Null, value.Null, value.Null
	for m.remaining() > 0 {
		if err := ctx.tick(); err != nil {
			return err
		}
		if err := s.fold(ae, m.h[0].val); err != nil {
			return err
		}
		if err := m.step(); err != nil {
			return err
		}
	}
	return nil
}

// result finalizes the aggregate value.
func (s *aggState) result(ae algebra.AggExpr) (value.Value, error) {
	switch ae.Func {
	case algebra.AggCount:
		return value.NewInt(s.count), nil
	case algebra.AggSum:
		return s.sum, nil
	case algebra.AggAvg:
		if s.count == 0 || s.sum.IsNull() {
			return value.Null, nil
		}
		return value.NewFloat(s.sum.Float() / float64(s.count)), nil
	case algebra.AggMin:
		return s.min, nil
	case algebra.AggMax:
		return s.max, nil
	}
	return value.Null, fmt.Errorf("executor: unknown aggregate %q", ae.Func)
}

func (a *aggIter) Next() (value.Row, error) {
	if a.merger != nil {
		return a.merger.Next()
	}
	if a.pos >= len(a.out) {
		return nil, nil
	}
	row := a.out[a.pos]
	a.pos++
	return row, nil
}

// release drops all aggregation state: output, accounting, spill files.
func (a *aggIter) release() {
	a.out = nil
	a.pos = 0
	a.merger.Close()
	a.merger = nil
	a.reg.closeAll()
	if a.fold != nil {
		a.fold.acct.releaseAll()
		a.fold = nil
	}
}

func (a *aggIter) Close() error {
	a.release()
	return nil
}
