package executor

import (
	"bytes"
	"fmt"
	"hash/maphash"

	"perm/internal/algebra"
	"perm/internal/spill"
	"perm/internal/sql"
	"perm/internal/value"
)

// joinHashSeed seeds the maphash bucketing of hash joins. One process-wide
// seed keeps build and probe sides consistent across iterators.
var joinHashSeed = maphash.MakeSeed()

// buildJoin picks a join algorithm: lateral joins always run nested-loop with
// per-left-row re-execution of the right side; equi-joins run as hash joins;
// everything else falls back to a generic nested loop.
func buildJoin(op *algebra.Join, parent *OpStats, par bool) (iterator, error) {
	n := node(parent, op)
	if op.Lateral {
		switch op.Kind {
		case algebra.JoinInner, algebra.JoinCross, algebra.JoinLeft:
			return wrapStat(&lateralJoinIter{op: op, stats: n}, n), nil
		default:
			return nil, fmt.Errorf("executor: lateral %s join is not supported", op.Kind)
		}
	}
	leaf := exchangeLeaf(op, par)
	left, err := buildInto(op.Left, n, par && leaf == nil)
	if err != nil {
		return nil, err
	}
	right, err := buildInto(op.Right, n, par && leaf == nil)
	if err != nil {
		return nil, err
	}
	return wrapStat(withExchange(joinIter(op, left, right, nil), op, leaf, right, n), n), nil
}

// joinIter is the non-lateral join over built inputs: a hash join on
// equi-keys, a nested loop otherwise. A non-nil tailMatched makes it a
// parallel worker's RIGHT/FULL join, which records which build rows matched
// (by build ordinal) instead of emitting the unmatched build tail itself.
func joinIter(op *algebra.Join, left, right iterator, tailMatched []bool) iterator {
	if keys := extractEquiKeys(op); len(keys) > 0 {
		return &hashJoinIter{op: op, left: left, right: right, keys: keys, tailMatched: tailMatched}
	}
	return &nlJoinIter{op: op, left: left, right: right, tailMatched: tailMatched}
}

// HashJoinable reports whether a non-lateral join runs as a hash join (its
// condition has at least one hashable equi-key), the planner's cue that the
// right input becomes the build side.
func HashJoinable(op *algebra.Join) bool {
	return len(extractEquiKeys(op)) > 0
}

// equiKey is one hashable join key pair: leftExpr over the left schema,
// rightExpr over the right schema (already un-shifted). nullEq marks
// IS NOT DISTINCT FROM keys where NULL joins NULL.
type equiKey struct {
	left   algebra.Expr
	right  algebra.Expr
	nullEq bool
}

// extractEquiKeys finds hashable equality conjuncts in the join condition.
func extractEquiKeys(op *algebra.Join) []equiKey {
	if op.Cond == nil {
		return nil
	}
	nLeft := len(op.Left.Schema())
	var keys []equiKey
	for _, conj := range algebra.SplitAnd(op.Cond) {
		b, ok := conj.(*algebra.Bin)
		if !ok || (b.Op != sql.OpEq && b.Op != sql.OpNotDistinct) {
			continue
		}
		if algebra.HasSubplan(b.L) || algebra.HasSubplan(b.R) {
			continue
		}
		lSide, lOK := sideOf(b.L, nLeft)
		rSide, rOK := sideOf(b.R, nLeft)
		if !lOK || !rOK {
			continue
		}
		switch {
		case lSide == 0 && rSide == 1:
			keys = append(keys, equiKey{
				left:   b.L,
				right:  algebra.ShiftCols(b.R, -nLeft),
				nullEq: b.Op == sql.OpNotDistinct,
			})
		case lSide == 1 && rSide == 0:
			keys = append(keys, equiKey{
				left:   b.R,
				right:  algebra.ShiftCols(b.L, -nLeft),
				nullEq: b.Op == sql.OpNotDistinct,
			})
		}
	}
	return keys
}

// sideOf classifies which input an expression references: 0 = left only,
// 1 = right only. ok is false when it references both sides or neither
// determinately (constants count as either; pure constants return left).
func sideOf(e algebra.Expr, nLeft int) (int, bool) {
	used := map[int]bool{}
	algebra.ColsUsed(e, used)
	left, right := false, false
	for idx := range used {
		if idx < nLeft {
			left = true
		} else {
			right = true
		}
	}
	switch {
	case left && right:
		return 0, false
	case right:
		return 1, true
	default:
		return 0, true
	}
}

// buildRow is one materialized build-side row. key is the framed hash-key
// encoding (nil when the row has a NULL in a strict-equality key and can
// never match).
type buildRow struct {
	row     value.Row
	key     []byte
	matched bool
}

// buildRowFixedBytes approximates the per-row footprint of a materialized
// build side beyond the row and key payloads: the buildRow struct itself plus
// its share of the hash-table buckets.
const buildRowFixedBytes = 96

// --- hash join -------------------------------------------------------------------

type hashJoinIter struct {
	op    *algebra.Join
	left  iterator
	right iterator
	keys  []equiKey
	ctx   *Context

	// compiled per-side key evaluators and residual condition
	leftKey  []compiledExpr
	rightKey []compiledExpr
	nullEq   []bool
	cond     compiledPred // nil when the join has no condition

	// table buckets build-row indices by maphash of the framed key bytes;
	// probes confirm candidates with a byte-slice equality check, so hash
	// collisions stay correct.
	table map[uint64][]int32
	// buildRows is a flat slice (one allocation) in insertion order, for
	// full-join unmatched emission.
	buildRows []buildRow
	// keyScratch is the reusable key-encoding buffer (zero allocs per probe).
	keyScratch []byte
	// comb is the reusable probe⧺build scratch row for residual-condition
	// evaluation; ownership transfers to the caller when a combined row is
	// emitted.
	comb value.Row
	// current probe state
	curProbe   value.Row
	curMatches []int32
	curIdx     int
	curMatched bool
	// full-join tail state
	tailIdx int
	inTail  bool
	done    bool
	// tailMatched replaces the tail in a parallel worker (see joinIter).
	tailMatched []bool
	// spill state: the build side is charged against work_mem; past the
	// budget the whole join switches to grace partitioning (gracejoin.go) and
	// the output streams from the merger instead of the probe loop.
	acct   memAcct
	reg    fileReg
	merger *seqMerger
}

func (h *hashJoinIter) Open(ctx *Context) error {
	h.release()
	h.ctx = ctx
	h.inTail, h.done = false, false
	h.tailIdx = 0
	h.curProbe = nil
	h.curMatches = nil
	h.acct.ctx = ctx
	if h.leftKey == nil {
		h.leftKey = make([]compiledExpr, len(h.keys))
		h.rightKey = make([]compiledExpr, len(h.keys))
		h.nullEq = make([]bool, len(h.keys))
		for i, k := range h.keys {
			h.leftKey[i] = Compile(k.left)
			h.rightKey[i] = Compile(k.right)
			h.nullEq[i] = k.nullEq
		}
		if h.op.Cond != nil {
			h.cond = compilePred(h.op.Cond)
		}
	}
	if err := h.right.Open(ctx); err != nil {
		return err
	}
	// Stream the build side in, charging every retained row (its payload, its
	// stable key copy, and the struct/bucket overhead). The moment the budget
	// is crossed the join hands the buffered prefix — and both remaining
	// inputs — to the grace path, which finishes on disk.
	var rows []buildRow
	total := 0
	for {
		if err := ctx.tick(); err != nil {
			h.right.Close()
			return err
		}
		row, err := h.right.Next()
		if err != nil {
			h.right.Close()
			return err
		}
		if row == nil {
			break
		}
		total++
		if ctx.RowBudget > 0 && total > int(ctx.RowBudget) {
			h.right.Close()
			return fmt.Errorf("executor: intermediate result exceeds row budget of %d rows", ctx.RowBudget)
		}
		key, hashable, err := h.appendKey(h.keyScratch[:0], row, h.rightKey)
		h.keyScratch = key
		if err != nil {
			h.right.Close()
			return err
		}
		br := buildRow{row: row}
		if hashable {
			br.key = append([]byte(nil), key...)
		}
		rows = append(rows, br)
		h.acct.grow(rowBytes(row) + int64(len(br.key)) + buildRowFixedBytes)
		if h.acct.spillable() && h.acct.over() && len(rows) >= minBufferRows {
			return h.openGrace(rows, total)
		}
	}
	h.right.Close()
	h.buildRows = rows
	h.table = make(map[uint64][]int32, len(rows))
	if ctx.owner != nil {
		ctx.owner.BuildRows = int64(len(rows))
	}
	for i := range rows {
		if rows[i].key != nil {
			sum := maphash.Bytes(joinHashSeed, rows[i].key)
			h.table[sum] = append(h.table[sum], int32(i))
		}
	}
	return h.left.Open(ctx)
}

// appendKey encodes the hash key for a row into dst using the given side's
// compiled key expressions. hashable=false means the row contains a NULL in a
// strict-equality key and can never match.
func (h *hashJoinIter) appendKey(dst []byte, row value.Row, side []compiledExpr) ([]byte, bool, error) {
	for i, ce := range side {
		v, err := ce(row, h.ctx)
		if err != nil {
			return dst, false, err
		}
		if v.IsNull() && !h.nullEq[i] {
			return dst, false, nil
		}
		dst = value.AppendFramedKey(dst, v)
	}
	return dst, true, nil
}

// combineScratch copies l⧺r into the reusable scratch row pointed to by
// scratch and returns it. The caller must either drop the returned row or
// take ownership by setting *scratch = nil before handing it out.
func combineScratch(scratch *value.Row, l, r value.Row) value.Row {
	n := len(l) + len(r)
	if cap(*scratch) < n {
		*scratch = make(value.Row, 0, n)
	}
	c := (*scratch)[:0]
	c = append(c, l...)
	c = append(c, r...)
	*scratch = c
	return c
}

func (h *hashJoinIter) Next() (value.Row, error) {
	if h.merger != nil {
		// Grace path: the join already ran partition by partition; the merger
		// replays the outputs in exact serial emission order.
		return h.merger.Next()
	}
	nRight := len(h.op.Right.Schema())
	nLeft := len(h.op.Left.Schema())
	for {
		// Poll for cancellation: a probe stream that never matches loops here
		// without emitting rows, invisible to the materialization polls.
		if err := h.ctx.tick(); err != nil {
			return nil, err
		}
		if h.done {
			return nil, nil
		}
		if h.inTail {
			if h.tailMatched != nil {
				for i := range h.buildRows {
					h.tailMatched[i] = h.buildRows[i].matched
				}
				h.done = true
				return nil, nil
			}
			// FULL/RIGHT JOIN: emit unmatched build-side rows null-padded.
			for h.tailIdx < len(h.buildRows) {
				br := &h.buildRows[h.tailIdx]
				h.tailIdx++
				if !br.matched {
					return value.Concat(value.NullRow(nLeft), br.row), nil
				}
			}
			h.done = true
			return nil, nil
		}
		if h.curProbe == nil {
			probe, err := h.left.Next()
			if err != nil {
				return nil, err
			}
			if probe == nil {
				if h.op.Kind == algebra.JoinFull || h.op.Kind == algebra.JoinRight {
					h.inTail = true
					continue
				}
				h.done = true
				return nil, nil
			}
			h.curProbe = probe
			h.curIdx = 0
			h.curMatched = false
			key, hashable, err := h.appendKey(h.keyScratch[:0], probe, h.leftKey)
			h.keyScratch = key
			if err != nil {
				return nil, err
			}
			h.curMatches = h.curMatches[:0]
			if hashable {
				sum := maphash.Bytes(joinHashSeed, key)
				for _, bi := range h.table[sum] {
					if bytes.Equal(h.buildRows[bi].key, key) {
						h.curMatches = append(h.curMatches, bi)
					}
				}
			}
		}
		// Scan candidate matches.
		for h.curIdx < len(h.curMatches) {
			br := &h.buildRows[h.curMatches[h.curIdx]]
			h.curIdx++
			ok := true
			var combined value.Row
			if h.cond != nil {
				combined = combineScratch(&h.comb, h.curProbe, br.row)
				var err error
				ok, err = h.cond(combined, h.ctx)
				if err != nil {
					return nil, err
				}
			}
			if !ok {
				continue
			}
			h.curMatched = true
			br.matched = true
			switch h.op.Kind {
			case algebra.JoinSemi:
				// Emit probe once, skip the rest.
				probe := h.curProbe
				h.curProbe = nil
				return probe, nil
			case algebra.JoinAnti:
				// A match disqualifies the probe row.
				h.curProbe = nil
				goto nextProbe
			default:
				if combined == nil {
					return value.Concat(h.curProbe, br.row), nil
				}
				h.comb = nil // transfer scratch ownership to the caller
				return combined, nil
			}
		}
		// Probe exhausted its matches.
		{
			probe := h.curProbe
			matched := h.curMatched
			h.curProbe = nil
			switch h.op.Kind {
			case algebra.JoinLeft, algebra.JoinFull:
				if !matched {
					return value.Concat(probe, value.NullRow(nRight)), nil
				}
			case algebra.JoinAnti:
				if !matched {
					return probe, nil
				}
			}
		}
	nextProbe:
	}
}

// release drops the build table, merger, spill files and accounted bytes.
func (h *hashJoinIter) release() {
	h.table = nil
	h.buildRows = nil
	h.merger.Close()
	h.merger = nil
	h.reg.closeAll()
	h.acct.releaseAll()
}

func (h *hashJoinIter) Close() error {
	h.release()
	return h.left.Close()
}

// --- nested-loop join ---------------------------------------------------------------

type nlJoinIter struct {
	op    *algebra.Join
	left  iterator
	right iterator
	ctx   *Context
	cond  compiledPred

	rightRows []buildRow
	// Spill state: once the materialized right side crosses work_mem, every
	// further row appends to one spill file in insertion order and probes
	// stream the file after scanning the resident prefix — emission order is
	// identical to the fully resident loop. spillMatched mirrors
	// buildRow.matched for spilled rows, indexed by file ordinal.
	acct         memAcct
	reg          fileReg
	spillFile    *spill.File
	spillMatched []bool
	// tailMatched replaces the tail in a parallel worker (see joinIter).
	tailMatched []bool

	comb       value.Row
	curProbe   value.Row
	curIdx     int
	curMatch   bool
	inFile     bool
	fileOrd    int
	inTail     bool
	tailIdx    int
	tailInFile bool
	done       bool
}

func (n *nlJoinIter) Open(ctx *Context) error {
	n.release()
	n.ctx = ctx
	n.done, n.inTail, n.inFile, n.tailInFile = false, false, false, false
	n.tailIdx, n.fileOrd = 0, 0
	n.curProbe = nil
	n.acct.ctx = ctx
	if n.cond == nil && n.op.Cond != nil {
		n.cond = compilePred(n.op.Cond)
	}
	if err := n.right.Open(ctx); err != nil {
		return err
	}
	var rec []byte
	total := 0
	for {
		if err := ctx.tick(); err != nil {
			n.right.Close()
			return err
		}
		row, err := n.right.Next()
		if err != nil {
			n.right.Close()
			return err
		}
		if row == nil {
			break
		}
		total++
		if ctx.RowBudget > 0 && total > int(ctx.RowBudget) {
			n.right.Close()
			return fmt.Errorf("executor: intermediate result exceeds row budget of %d rows", ctx.RowBudget)
		}
		if n.spillFile == nil && n.acct.spillable() && n.acct.over() && len(n.rightRows) >= minBufferRows {
			f, err := ctx.Mem.Pool().Create()
			if err != nil {
				n.right.Close()
				return err
			}
			n.reg.add(f)
			n.spillFile = f
		}
		if n.spillFile != nil {
			rec = spill.AppendRow(rec[:0], row)
			if err := n.spillFile.Append(rec); err != nil {
				n.right.Close()
				return err
			}
			n.spillMatched = append(n.spillMatched, false)
			n.acct.grow(1) // the matched flag stays resident per spilled row
		} else {
			n.rightRows = append(n.rightRows, buildRow{row: row})
			n.acct.grow(rowBytes(row) + buildRowFixedBytes)
		}
	}
	n.right.Close()
	if ctx.owner != nil {
		ctx.owner.BuildRows = int64(total)
	}
	return n.left.Open(ctx)
}

func (n *nlJoinIter) Next() (value.Row, error) {
	nLeft := len(n.op.Left.Schema())
	nRight := len(n.op.Right.Schema())
	for {
		if err := n.ctx.tick(); err != nil {
			return nil, err
		}
		if n.done {
			return nil, nil
		}
		if n.inTail && n.tailMatched != nil {
			for i := range n.rightRows {
				n.tailMatched[i] = n.rightRows[i].matched
			}
			copy(n.tailMatched[len(n.rightRows):], n.spillMatched)
			n.done = true
			return nil, nil
		}
		if n.inTail {
			for n.tailIdx < len(n.rightRows) {
				br := &n.rightRows[n.tailIdx]
				n.tailIdx++
				if !br.matched {
					return value.Concat(value.NullRow(nLeft), br.row), nil
				}
			}
			if n.spillFile != nil {
				if !n.tailInFile {
					if err := n.spillFile.StartRead(); err != nil {
						return nil, err
					}
					n.tailInFile = true
					n.fileOrd = 0
				}
				for {
					if err := n.ctx.tick(); err != nil {
						return nil, err
					}
					rec, err := n.spillFile.Next()
					if err != nil {
						return nil, err
					}
					if rec == nil {
						break
					}
					ord := n.fileOrd
					n.fileOrd++
					if n.spillMatched[ord] {
						continue
					}
					row, _, err := spill.DecodeRow(rec)
					if err != nil {
						return nil, err
					}
					return value.Concat(value.NullRow(nLeft), row), nil
				}
			}
			n.done = true
			return nil, nil
		}
		if n.curProbe == nil {
			probe, err := n.left.Next()
			if err != nil {
				return nil, err
			}
			if probe == nil {
				if n.op.Kind == algebra.JoinFull || n.op.Kind == algebra.JoinRight {
					n.inTail = true
					continue
				}
				n.done = true
				return nil, nil
			}
			n.curProbe = probe
			n.curIdx = 0
			n.inFile = false
			n.curMatch = false
		}
		if !n.inFile {
			for n.curIdx < len(n.rightRows) {
				// Per-candidate poll: one probe row can scan the whole right side
				// without a match, so the outer-loop poll alone is not enough.
				if err := n.ctx.tick(); err != nil {
					return nil, err
				}
				br := &n.rightRows[n.curIdx]
				n.curIdx++
				ok := true
				var combined value.Row
				if n.cond != nil {
					combined = combineScratch(&n.comb, n.curProbe, br.row)
					var err error
					ok, err = n.cond(combined, n.ctx)
					if err != nil {
						return nil, err
					}
				}
				if !ok {
					continue
				}
				n.curMatch = true
				br.matched = true
				switch n.op.Kind {
				case algebra.JoinSemi:
					probe := n.curProbe
					n.curProbe = nil
					return probe, nil
				case algebra.JoinAnti:
					n.curProbe = nil
					goto nextProbe
				default:
					if combined == nil {
						return value.Concat(n.curProbe, br.row), nil
					}
					n.comb = nil // transfer scratch ownership to the caller
					return combined, nil
				}
			}
			if n.spillFile != nil {
				// Resident prefix exhausted: stream the spilled suffix in
				// insertion order (the file position carries across emitted
				// rows; only a new probe rewinds it).
				if err := n.spillFile.StartRead(); err != nil {
					return nil, err
				}
				n.inFile = true
				n.fileOrd = 0
			}
		}
		if n.inFile {
			for {
				if err := n.ctx.tick(); err != nil {
					return nil, err
				}
				rec, err := n.spillFile.Next()
				if err != nil {
					return nil, err
				}
				if rec == nil {
					break
				}
				ord := n.fileOrd
				n.fileOrd++
				row, _, err := spill.DecodeRow(rec)
				if err != nil {
					return nil, err
				}
				ok := true
				var combined value.Row
				if n.cond != nil {
					combined = combineScratch(&n.comb, n.curProbe, row)
					ok, err = n.cond(combined, n.ctx)
					if err != nil {
						return nil, err
					}
				}
				if !ok {
					continue
				}
				n.curMatch = true
				n.spillMatched[ord] = true
				switch n.op.Kind {
				case algebra.JoinSemi:
					probe := n.curProbe
					n.curProbe = nil
					return probe, nil
				case algebra.JoinAnti:
					n.curProbe = nil
					goto nextProbe
				default:
					if combined == nil {
						return value.Concat(n.curProbe, row), nil
					}
					n.comb = nil // transfer scratch ownership to the caller
					return combined, nil
				}
			}
		}
		{
			probe := n.curProbe
			matched := n.curMatch
			n.curProbe = nil
			switch n.op.Kind {
			case algebra.JoinLeft, algebra.JoinFull:
				if !matched {
					return value.Concat(probe, value.NullRow(nRight)), nil
				}
			case algebra.JoinAnti:
				if !matched {
					return probe, nil
				}
			}
		}
	nextProbe:
	}
}

// release drops the materialized right side, spill file and accounted bytes.
func (n *nlJoinIter) release() {
	n.rightRows = nil
	n.spillMatched = nil
	n.spillFile = nil
	n.reg.closeAll()
	n.acct.releaseAll()
}

func (n *nlJoinIter) Close() error {
	n.release()
	return n.left.Close()
}

// --- lateral join ---------------------------------------------------------------------

// lateralJoinIter re-executes the right side for every left row with the left
// row pushed as the correlation context. The provenance rewriter uses this to
// implement the EDBT '09 de-correlation of nested subqueries. The right-side
// iterator tree is built (and its expressions compiled) once; each probe row
// only re-Opens it, so the compile-once property survives per-row
// re-execution.
type lateralJoinIter struct {
	op    *algebra.Join
	left  iterator
	right iterator
	ctx   *Context
	cond  compiledPred
	stats *OpStats

	curProbe value.Row
	curRows  []value.Row
	curIdx   int
	curMatch bool
}

func (l *lateralJoinIter) Open(ctx *Context) error {
	l.ctx = ctx
	l.curProbe = nil
	if l.cond == nil && l.op.Cond != nil {
		l.cond = compilePred(l.op.Cond)
	}
	var err error
	if l.right == nil {
		l.right, err = buildInto(l.op.Right, l.stats, false)
		if err != nil {
			return err
		}
	}
	if l.left == nil {
		l.left, err = buildInto(l.op.Left, l.stats, false)
		if err != nil {
			return err
		}
	}
	return l.left.Open(ctx)
}

func (l *lateralJoinIter) Next() (value.Row, error) {
	nRight := len(l.op.Right.Schema())
	for {
		if err := l.ctx.tick(); err != nil {
			return nil, err
		}
		if l.curProbe == nil {
			probe, err := l.left.Next()
			if err != nil {
				return nil, err
			}
			if probe == nil {
				return nil, nil
			}
			l.curProbe = probe
			l.curIdx = 0
			l.curMatch = false
			// Re-open the prebuilt right side under this probe row.
			l.ctx.pushOuter(probe)
			rows, err := reopenAndDrain(l.right, l.ctx)
			l.ctx.popOuter()
			if err != nil {
				return nil, err
			}
			l.curRows = rows
		}
		for l.curIdx < len(l.curRows) {
			rrow := l.curRows[l.curIdx]
			l.curIdx++
			combined := value.Concat(l.curProbe, rrow)
			ok := true
			if l.cond != nil {
				var err error
				ok, err = l.cond(combined, l.ctx)
				if err != nil {
					return nil, err
				}
			}
			if !ok {
				continue
			}
			l.curMatch = true
			return combined, nil
		}
		probe := l.curProbe
		matched := l.curMatch
		l.curProbe = nil
		if l.op.Kind == algebra.JoinLeft && !matched {
			return value.Concat(probe, value.NullRow(nRight)), nil
		}
	}
}

func (l *lateralJoinIter) Close() error {
	if l.left != nil {
		return l.left.Close()
	}
	return nil
}
