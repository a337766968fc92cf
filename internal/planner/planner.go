// Package planner implements the optimizer stage of the Perm pipeline
// (Figure 3: "optimize and transform into plan"): rule-based logical
// optimizations (constant folding, predicate pushdown, filter merging,
// identity-projection removal), two join-planning rules, and the
// cardinality estimator that both the planner and the provenance rewriter's
// cost-based strategy chooser use. The join rules: two-sided filter
// conjuncts fold into inner and cross join conditions (a comma join becomes
// a hashable inner join), and a hash join whose right input is estimated
// larger than its left commutes so it builds on the smaller side. Perm
// deliberately reuses the host DBMS's optimizer on rewritten queries; this
// package plays that role for the Go engine.
package planner

import (
	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/value"
)

// Planner optimizes plans and estimates cardinalities against a catalog.
type Planner struct {
	Cat *catalog.Catalog
	// MaxPasses bounds the fixpoint iteration of the rewrite rules.
	MaxPasses int
}

// New returns a planner over the catalog.
func New(cat *catalog.Catalog) *Planner {
	return &Planner{Cat: cat, MaxPasses: 8}
}

// Optimize applies the logical rewrite rules to a fixpoint (bounded), then
// picks every hash join's build side.
func (p *Planner) Optimize(op algebra.Op) algebra.Op {
	passes := p.MaxPasses
	if passes <= 0 {
		passes = 8
	}
	for i := 0; i < passes; i++ {
		next, changed := p.pass(op)
		op = next
		if !changed {
			break
		}
	}
	return p.buildSmaller(op)
}

// pass applies one bottom-up optimization pass.
func (p *Planner) pass(op algebra.Op) (algebra.Op, bool) {
	changed := false
	children := op.Children()
	if len(children) > 0 {
		newChildren := make([]algebra.Op, len(children))
		for i, c := range children {
			nc, ch := p.pass(c)
			newChildren[i] = nc
			changed = changed || ch
		}
		if changed {
			op = op.WithChildren(newChildren)
		}
	}
	// Fold constants in this operator's expressions.
	op = algebra.MapOwnExprs(op, func(e algebra.Expr) algebra.Expr {
		ne, ch := FoldConstants(e)
		changed = changed || ch
		return ne
	})

	switch o := op.(type) {
	case *algebra.Select:
		// Drop trivially-true filters.
		if c, ok := o.Cond.(*algebra.Const); ok && !c.Val.IsNull() && c.Val.K == value.KindBool && c.Val.Bool() {
			return o.Input, true
		}
		// Merge stacked filters.
		if inner, ok := o.Input.(*algebra.Select); ok {
			return &algebra.Select{
				Input: inner.Input,
				Cond:  &algebra.Bin{Op: sql.OpAnd, L: inner.Cond, R: o.Cond},
			}, true
		}
		// Push filter below a projection when the condition rewrites to
		// cheap expressions.
		if proj, ok := o.Input.(*algebra.Project); ok && !algebra.HasSubplan(o.Cond) {
			if cond, ok2 := substitute(o.Cond, proj.Exprs); ok2 {
				np := *proj
				np.Input = &algebra.Select{Input: proj.Input, Cond: cond}
				return &np, true
			}
		}
		// Push conjuncts into join sides.
		if join, ok := o.Input.(*algebra.Join); ok && !join.Lateral {
			if next, ok2 := pushIntoJoin(o, join); ok2 {
				return next, true
			}
		}
		// Swap with sort (filter first).
		if srt, ok := o.Input.(*algebra.Sort); ok {
			return &algebra.Sort{
				Input: &algebra.Select{Input: srt.Input, Cond: o.Cond},
				Keys:  srt.Keys,
			}, true
		}
	case *algebra.Project:
		// Collapse identity projections that change nothing observable.
		if isIdentityProject(o) {
			return o.Input, true
		}
		// Merge Project(Project) when the outer references are substitutable.
		if inner, ok := o.Input.(*algebra.Project); ok {
			if merged, ok := mergeProjects(o, inner); ok {
				return merged, true
			}
		}
	}
	return op, changed
}

// mergeProjects folds outer over inner into one Project when every outer
// column reference substitutes to a cheap inner expression.
func mergeProjects(outer, inner *algebra.Project) (*algebra.Project, bool) {
	newExprs := make([]algebra.Expr, len(outer.Exprs))
	for i, e := range outer.Exprs {
		ne, ok := substitute(e, inner.Exprs)
		if !ok {
			return nil, false
		}
		newExprs[i] = ne
	}
	np := *outer
	np.Input = inner.Input
	np.Exprs = newExprs
	return &np, true
}

// isIdentityProject reports whether the projection emits its input unchanged
// (same positions, names, types and provenance metadata).
func isIdentityProject(p *algebra.Project) bool {
	in := p.Input.Schema()
	if len(p.Exprs) != len(in) {
		return false
	}
	for i, e := range p.Exprs {
		ci, ok := e.(*algebra.ColIdx)
		if !ok || ci.Idx != i {
			return false
		}
		if p.Sch[i] != in[i] {
			return false
		}
	}
	return true
}

// substitute rewrites cond's column references through the projection's
// expressions; ok is false when any referenced expression is not cheap
// (only ColIdx, Const and Cast-of-those count as cheap to duplicate).
func substitute(cond algebra.Expr, exprs []algebra.Expr) (algebra.Expr, bool) {
	ok := true
	out := algebra.MapCols(cond, func(c *algebra.ColIdx) algebra.Expr {
		if c.Idx >= len(exprs) {
			ok = false
			return c
		}
		e := exprs[c.Idx]
		if !cheap(e) {
			ok = false
		}
		return e
	})
	return out, ok
}

func cheap(e algebra.Expr) bool {
	switch x := e.(type) {
	case *algebra.ColIdx, *algebra.Const, *algebra.OuterRef:
		return true
	case *algebra.Cast:
		return cheap(x.E)
	}
	return false
}

// pushIntoJoin moves filter conjuncts into an inner or cross join: a
// conjunct over one side goes below the join onto that side, and a two-sided
// conjunct joins the join condition, turning a cross join inner so the
// executor can hash its equi-keys. Conjuncts with subplans, and ones over no
// join column, stay above. Outer joins are left alone (NULL semantics).
func pushIntoJoin(sel *algebra.Select, join *algebra.Join) (algebra.Op, bool) {
	if join.Kind != algebra.JoinInner && join.Kind != algebra.JoinCross {
		return nil, false
	}
	nLeft := len(join.Left.Schema())
	var leftConds, rightConds, joinConds, rest []algebra.Expr
	for _, conj := range algebra.SplitAnd(sel.Cond) {
		if algebra.HasSubplan(conj) {
			rest = append(rest, conj)
			continue
		}
		used := map[int]bool{}
		algebra.ColsUsed(conj, used)
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
			joinConds = append(joinConds, conj)
		case left:
			leftConds = append(leftConds, conj)
		case right:
			rightConds = append(rightConds, algebra.ShiftCols(conj, -nLeft))
		default:
			rest = append(rest, conj)
		}
	}
	if len(leftConds) == 0 && len(rightConds) == 0 && len(joinConds) == 0 {
		return nil, false
	}
	nj := *join
	if c := algebra.AndAll(leftConds); c != nil {
		nj.Left = &algebra.Select{Input: join.Left, Cond: c}
	}
	if c := algebra.AndAll(rightConds); c != nil {
		nj.Right = &algebra.Select{Input: join.Right, Cond: c}
	}
	if len(joinConds) > 0 {
		nj.Cond = algebra.AndAll(append([]algebra.Expr{join.Cond}, joinConds...))
		nj.Kind = algebra.JoinInner
	}
	var out algebra.Op = &nj
	if c := algebra.AndAll(rest); c != nil {
		out = &algebra.Select{Input: out, Cond: c}
	}
	return out, true
}

// buildSmaller is the build-side rule, one bottom-up pass after the rewrite
// fixpoint. A hash join builds its right input, so a join that will hash and
// whose right input is estimated strictly larger than its left commutes:
// the inputs swap, LEFT and RIGHT trade places, the condition is remapped,
// and a column-reordering Project restores the original schema (names and
// provenance flags included), merging into a parent Project when there is
// one. Ties, SEMI/ANTI/CROSS, lateral joins and conditions with subplans
// are left alone.
func (p *Planner) buildSmaller(op algebra.Op) algebra.Op {
	if children := op.Children(); len(children) > 0 {
		newChildren := make([]algebra.Op, len(children))
		changed := false
		for i, c := range children {
			newChildren[i] = p.buildSmaller(c)
			changed = changed || newChildren[i] != c
		}
		if changed {
			op = op.WithChildren(newChildren)
		}
	}
	switch o := op.(type) {
	case *algebra.Join:
		if p.shouldCommute(o) {
			return commute(o)
		}
	case *algebra.Project:
		if inner, ok := o.Input.(*algebra.Project); ok {
			if merged, ok := mergeProjects(o, inner); ok {
				return merged
			}
		}
	}
	return op
}

// shouldCommute reports whether the join hashes with the larger input as
// its build side.
func (p *Planner) shouldCommute(j *algebra.Join) bool {
	switch j.Kind {
	case algebra.JoinInner, algebra.JoinLeft, algebra.JoinRight, algebra.JoinFull:
	default:
		return false
	}
	if j.Lateral || algebra.HasSubplan(j.Cond) || !executor.HashJoinable(j) {
		return false
	}
	return p.EstimateRows(j.Right) > p.EstimateRows(j.Left)
}

// commute swaps the join's inputs under a Project that restores the
// original column order.
func commute(j *algebra.Join) algebra.Op {
	nLeft, nRight := len(j.Left.Schema()), len(j.Right.Schema())
	kind := j.Kind
	switch kind {
	case algebra.JoinLeft:
		kind = algebra.JoinRight
	case algebra.JoinRight:
		kind = algebra.JoinLeft
	}
	// Old left column i moves to nRight+i, old right column nLeft+i to i.
	moved := func(idx int) int {
		if idx < nLeft {
			return nRight + idx
		}
		return idx - nLeft
	}
	cond := algebra.MapCols(j.Cond, func(c *algebra.ColIdx) algebra.Expr {
		return &algebra.ColIdx{Idx: moved(c.Idx), Typ: c.Typ, Name: c.Name}
	})
	swapped := algebra.NewJoin(kind, j.Right, j.Left, cond)
	exprs := make([]algebra.Expr, len(j.Sch))
	for i, c := range j.Sch {
		exprs[i] = &algebra.ColIdx{Idx: moved(i), Typ: c.Type, Name: c.Name}
	}
	return &algebra.Project{Input: swapped, Exprs: exprs, Sch: j.Sch}
}

// FoldConstants evaluates constant sub-expressions at plan time. A Bin
// (other than AND/OR), Not, Neg, IsNull or Cast whose operands are all Const
// folds to the value the executor's compiled evaluator computes for it; one
// whose evaluation errors stays unfolded, so the error surfaces at run time
// only if the expression runs.
func FoldConstants(e algebra.Expr) (algebra.Expr, bool) {
	changed := false
	var fold func(algebra.Expr) algebra.Expr
	fold = func(e algebra.Expr) algebra.Expr {
		out, foldable := e, false
		switch x := e.(type) {
		case *algebra.Bin:
			l, r := fold(x.L), fold(x.R)
			if l != x.L || r != x.R {
				out = &algebra.Bin{Op: x.Op, L: l, R: r}
			}
			foldable = isConst(l) && isConst(r) && foldableOp(x.Op)
		case *algebra.Not:
			in := fold(x.E)
			if in != x.E {
				out = &algebra.Not{E: in}
			}
			foldable = isConst(in)
		case *algebra.Neg:
			in := fold(x.E)
			if in != x.E {
				out = &algebra.Neg{E: in}
			}
			foldable = isConst(in)
		case *algebra.IsNull:
			in := fold(x.E)
			if in != x.E {
				out = &algebra.IsNull{E: in, Not: x.Not}
			}
			foldable = isConst(in)
		case *algebra.Cast:
			in := fold(x.E)
			if in != x.E {
				out = &algebra.Cast{E: in, To: x.To}
			}
			foldable = isConst(in)
		}
		if out != e {
			changed = true
		}
		if foldable {
			if v, err := executor.CompileExpr(out)(nil, nil); err == nil {
				changed = true
				return &algebra.Const{Val: v}
			}
		}
		return out
	}
	out := fold(e)
	return out, changed
}

func isConst(e algebra.Expr) bool {
	_, ok := e.(*algebra.Const)
	return ok
}

// foldableOp excludes AND/OR (3VL short-circuits are already cheap and
// folding them needs care with NULL) — arithmetic and comparisons fold.
func foldableOp(op sql.BinOp) bool {
	switch op {
	case sql.OpAnd, sql.OpOr:
		return false
	}
	return true
}

// --- cardinality estimation -------------------------------------------------------

const defaultTableRows = 1000

// EstimateRows estimates the output cardinality of a plan using catalog
// statistics; unknown tables default to 1000 rows. The provenance rewriter's
// cost-based strategy chooser consumes this.
func (p *Planner) EstimateRows(op algebra.Op) float64 {
	switch o := op.(type) {
	case *algebra.Scan:
		st := p.Cat.TableStats(o.Table)
		if st.RowCount > 0 {
			return float64(st.RowCount)
		}
		return defaultTableRows
	case *algebra.Values:
		return float64(len(o.Rows))
	case *algebra.Project:
		return p.EstimateRows(o.Input)
	case *algebra.BaseRel:
		return p.EstimateRows(o.Input)
	case *algebra.ProvDone:
		return p.EstimateRows(o.Input)
	case *algebra.Select:
		sel := 1.0
		for range algebra.SplitAnd(o.Cond) {
			sel *= 0.25
		}
		if sel < 0.01 {
			sel = 0.01
		}
		return p.EstimateRows(o.Input) * sel
	case *algebra.Join:
		l := p.EstimateRows(o.Left)
		r := p.EstimateRows(o.Right)
		switch o.Kind {
		case algebra.JoinCross:
			return l * r
		case algebra.JoinSemi, algebra.JoinAnti:
			return l / 2
		}
		if o.Cond == nil {
			return l * r
		}
		// Equi-join heuristic: |L×R| / max(|L|,|R|).
		den := l
		if r > den {
			den = r
		}
		if den < 1 {
			den = 1
		}
		est := l * r / den
		if o.Kind == algebra.JoinLeft && est < l {
			est = l
		}
		if o.Kind == algebra.JoinRight && est < r {
			est = r
		}
		if o.Kind == algebra.JoinFull && est < l+r {
			est = l + r
		}
		return est
	case *algebra.Agg:
		in := p.EstimateRows(o.Input)
		if len(o.GroupBy) == 0 {
			return 1
		}
		groups := in * 0.1
		if groups < 1 {
			groups = 1
		}
		return groups
	case *algebra.Distinct:
		return p.EstimateRows(o.Input) * 0.5
	case *algebra.SetOp:
		l := p.EstimateRows(o.Left)
		r := p.EstimateRows(o.Right)
		switch o.Kind {
		case algebra.UnionAll:
			return l + r
		case algebra.UnionDistinct:
			return (l + r) * 0.7
		case algebra.IntersectAll, algebra.IntersectDistinct:
			if l < r {
				return l * 0.5
			}
			return r * 0.5
		default:
			return l * 0.5
		}
	case *algebra.Sort:
		return p.EstimateRows(o.Input)
	case *algebra.Limit:
		in := p.EstimateRows(o.Input)
		if o.Count >= 0 && float64(o.Count) < in {
			return float64(o.Count)
		}
		return in
	}
	return defaultTableRows
}
