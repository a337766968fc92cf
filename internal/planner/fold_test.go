package planner

import (
	"testing"

	"perm/internal/algebra"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/value"
)

// TestFoldMatchesRun: for constant-only expressions, plan-time folding agrees
// with run-time evaluation. FoldConstants either returns a Const equal in
// kind and value to what the compiled evaluator computes, or, when that
// evaluation errors, leaves the expression unfolded.
func TestFoldMatchesRun(t *testing.T) {
	i := func(n int64) algebra.Expr { return &algebra.Const{Val: value.NewInt(n)} }
	f := func(x float64) algebra.Expr { return &algebra.Const{Val: value.NewFloat(x)} }
	s := func(x string) algebra.Expr { return &algebra.Const{Val: value.NewString(x)} }
	b := func(x bool) algebra.Expr { return &algebra.Const{Val: value.NewBool(x)} }
	null := &algebra.Const{Val: value.Null}
	bin := func(op sql.BinOp, l, r algebra.Expr) algebra.Expr { return &algebra.Bin{Op: op, L: l, R: r} }
	cases := []algebra.Expr{
		// arithmetic, including mixed kinds, NULL operands and errors
		bin(sql.OpAdd, i(2), i(3)),
		bin(sql.OpSub, i(2), f(0.5)),
		bin(sql.OpMul, bin(sql.OpAdd, i(1), i(2)), i(4)),
		bin(sql.OpMod, i(7), i(3)),
		bin(sql.OpAdd, null, i(1)),
		bin(sql.OpDiv, i(7), i(2)),
		bin(sql.OpDiv, i(1), i(0)),
		bin(sql.OpMod, i(1), i(0)),
		bin(sql.OpAdd, bin(sql.OpDiv, i(1), i(0)), i(1)),
		bin(sql.OpAdd, s("a"), i(1)),
		bin(sql.OpConcat, s("a"), i(1)),
		bin(sql.OpConcat, s("a"), null),
		// comparisons
		bin(sql.OpLt, i(1), i(2)),
		bin(sql.OpEq, s("x"), s("x")),
		bin(sql.OpGte, f(1.5), i(2)),
		bin(sql.OpEq, null, i(1)),
		bin(sql.OpNotDistinct, null, null),
		bin(sql.OpEq, s("x"), i(1)),
		// NOT
		&algebra.Not{E: b(true)},
		&algebra.Not{E: null},
		&algebra.Not{E: bin(sql.OpGt, i(1), i(2))},
		&algebra.Not{E: bin(sql.OpEq, s("x"), i(1))},
		// unary minus
		&algebra.Neg{E: i(5)},
		&algebra.Neg{E: f(-2.5)},
		&algebra.Neg{E: null},
		&algebra.Neg{E: s("x")},
		&algebra.Neg{E: &algebra.Neg{E: i(3)}},
		// IS [NOT] NULL
		&algebra.IsNull{E: null},
		&algebra.IsNull{E: i(1)},
		&algebra.IsNull{E: null, Not: true},
		&algebra.IsNull{E: bin(sql.OpAdd, null, i(1)), Not: true},
		&algebra.IsNull{E: bin(sql.OpDiv, i(1), i(0))},
		// casts, good and bad
		&algebra.Cast{E: s("12"), To: value.KindInt},
		&algebra.Cast{E: i(3), To: value.KindFloat},
		&algebra.Cast{E: f(2.5), To: value.KindString},
		&algebra.Cast{E: s("true"), To: value.KindBool},
		&algebra.Cast{E: null, To: value.KindInt},
		&algebra.Cast{E: s("x"), To: value.KindInt},
		&algebra.Cast{E: bin(sql.OpDiv, i(1), i(0)), To: value.KindString},
	}
	for _, e := range cases {
		folded, _ := FoldConstants(e)
		want, err := executor.CompileExpr(e)(nil, nil)
		c, isConst := folded.(*algebra.Const)
		switch {
		case err != nil:
			if isConst {
				t.Errorf("%v: folded to %v, but evaluation errors (%v)", e, c.Val, err)
			}
		case !isConst:
			t.Errorf("%v: left unfolded as %v, evaluation gives %v", e, folded, want)
		case c.Val.K != want.K || value.Distinct(c.Val, want):
			t.Errorf("%v: folded to %v (%s), evaluation gives %v (%s)", e, c.Val, c.Val.K, want, want.K)
		}
	}
}
