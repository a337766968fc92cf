package executor

import (
	"math"
	"strings"
	"testing"

	"perm/internal/algebra"
	"perm/internal/sql"
	"perm/internal/value"
)

// compile_test.go pins the semantics of the expression evaluator. The golden
// table records, for a matrix of expressions over a matrix of rows, the value
// and kind (or the exact error text) each must produce; the per-feature tests
// below it cover 3VL, NULL propagation, CASE laziness, IN lists, LIKE, the
// scalar functions, casts, predicate truth and column/outer-ref bounds.

func boolConst(b bool) *algebra.Const     { return &algebra.Const{Val: value.NewBool(b)} }
func nullConst() *algebra.Const           { return &algebra.Const{Val: value.Null} }
func strConst(s string) *algebra.Const    { return &algebra.Const{Val: value.NewString(s)} }
func floatConst(f float64) *algebra.Const { return &algebra.Const{Val: value.NewFloat(f)} }
func col(i int, k value.Kind) *algebra.ColIdx {
	return &algebra.ColIdx{Idx: i, Typ: k}
}

// evalOne compiles e and evaluates it once against row.
func evalOne(t *testing.T, e algebra.Expr, row value.Row) value.Value {
	t.Helper()
	v, err := Compile(e)(row, NewContext(nil))
	if err != nil {
		t.Fatalf("Compile(%v): %v", e, err)
	}
	return v
}

// golden is one expected evaluation outcome: a value (kind included) or, when
// err is set, the exact error text.
type golden struct {
	v   value.Value
	err string
}

var gNull = golden{v: value.Null}

func gBool(b bool) golden     { return golden{v: value.NewBool(b)} }
func gInt(n int64) golden     { return golden{v: value.NewInt(n)} }
func gFloat(f float64) golden { return golden{v: value.NewFloat(f)} }
func gStr(s string) golden    { return golden{v: value.NewString(s)} }
func gErr(text string) golden { return golden{err: text} }

// goldenRows are the rows every golden expression is evaluated against.
var goldenRows = [4]value.Row{
	{value.NewInt(2), value.NewString("abc"), value.NewFloat(1.5)},
	{value.NewInt(0), value.NewString("12"), value.NewFloat(-3)},
	{value.Null, value.Null, value.Null},
	{value.NewInt(-7), value.NewString(""), value.NewFloat(2)},
}

type goldenCase struct {
	e    algebra.Expr
	want [4]golden
}

func goldenCases() []goldenCase {
	c0 := col(0, value.KindInt)
	c1 := col(1, value.KindString)
	c2 := col(2, value.KindFloat)
	bin := func(op sql.BinOp, l, r algebra.Expr) algebra.Expr { return &algebra.Bin{Op: op, L: l, R: r} }
	return []goldenCase{
		// constants and columns
		{intConst(7), [4]golden{gInt(7), gInt(7), gInt(7), gInt(7)}},
		{nullConst(), [4]golden{gNull, gNull, gNull, gNull}},
		{c0, [4]golden{gInt(2), gInt(0), gNull, gInt(-7)}},
		{c1, [4]golden{gStr("abc"), gStr("12"), gNull, gStr("")}},
		// arithmetic, incl. division by zero (error case) and NULL operands
		{bin(sql.OpAdd, c0, intConst(3)), [4]golden{gInt(5), gInt(3), gNull, gInt(-4)}},
		{bin(sql.OpMul, c0, c2), [4]golden{gFloat(3), gFloat(math.Copysign(0, -1)), gNull, gFloat(-14)}},
		{bin(sql.OpDiv, intConst(10), c0), [4]golden{gInt(5), gErr("division by zero"), gNull, gInt(-1)}},
		{bin(sql.OpMod, c0, intConst(4)), [4]golden{gInt(2), gInt(0), gNull, gInt(-3)}},
		{bin(sql.OpSub, nullConst(), c0), [4]golden{gNull, gNull, gNull, gNull}},
		{bin(sql.OpConcat, c1, strConst("!")), [4]golden{gStr("abc!"), gStr("12!"), gNull, gStr("!")}},
		{bin(sql.OpConcat, c1, nullConst()), [4]golden{gNull, gNull, gNull, gNull}},
		// comparisons and 3VL logic
		{bin(sql.OpEq, c0, intConst(2)), [4]golden{gBool(true), gBool(false), gNull, gBool(false)}},
		{bin(sql.OpNeq, c0, c2), [4]golden{gBool(true), gBool(true), gNull, gBool(true)}},
		{bin(sql.OpLt, c1, strConst("m")), [4]golden{gBool(true), gBool(true), gNull, gBool(true)}},
		{bin(sql.OpGte, c2, floatConst(1.5)), [4]golden{gBool(true), gBool(false), gNull, gBool(true)}},
		{bin(sql.OpEq, c0, nullConst()), [4]golden{gNull, gNull, gNull, gNull}},
		{bin(sql.OpNotDistinct, c0, nullConst()), [4]golden{gBool(false), gBool(false), gBool(true), gBool(false)}},
		{bin(sql.OpAnd, bin(sql.OpGt, c0, intConst(0)), bin(sql.OpLt, c0, intConst(9))), [4]golden{gBool(true), gBool(false), gNull, gBool(false)}},
		{bin(sql.OpOr, bin(sql.OpEq, c0, nullConst()), boolConst(true)), [4]golden{gBool(true), gBool(true), gBool(true), gBool(true)}},
		{bin(sql.OpAnd, nullConst(), boolConst(false)), [4]golden{gBool(false), gBool(false), gBool(false), gBool(false)}},
		{bin(sql.OpAnd, boolConst(false), nullConst()), [4]golden{gBool(false), gBool(false), gBool(false), gBool(false)}},
		{bin(sql.OpEq, c1, intConst(1)), [4]golden{gErr("cannot compare text with integer"), gErr("cannot compare text with integer"), gNull, gErr("cannot compare text with integer")}}, // type error at runtime
		{&algebra.Not{E: bin(sql.OpGt, c0, intConst(2))}, [4]golden{gBool(true), gBool(true), gNull, gBool(true)}},
		{&algebra.Neg{E: c0}, [4]golden{gInt(-2), gInt(0), gNull, gInt(7)}},
		{&algebra.Neg{E: c1}, [4]golden{gErr("unary minus not defined for text"), gErr("unary minus not defined for text"), gNull, gErr("unary minus not defined for text")}}, // error: unary minus on text
		{&algebra.IsNull{E: c0}, [4]golden{gBool(false), gBool(false), gBool(true), gBool(false)}},
		{&algebra.IsNull{E: c0, Not: true}, [4]golden{gBool(true), gBool(true), gBool(false), gBool(true)}},
		// functions: strict, tolerant, unknown, nested
		{&algebra.Func{Name: "upper", Args: []algebra.Expr{c1}, Typ: value.KindString}, [4]golden{gStr("ABC"), gStr("12"), gNull, gStr("")}},
		{&algebra.Func{Name: "length", Args: []algebra.Expr{c1}, Typ: value.KindInt}, [4]golden{gInt(3), gInt(2), gNull, gInt(0)}},
		{&algebra.Func{Name: "coalesce", Args: []algebra.Expr{nullConst(), c0, intConst(9)}, Typ: value.KindInt}, [4]golden{gInt(2), gInt(0), gInt(9), gInt(-7)}},
		{&algebra.Func{Name: "nullif", Args: []algebra.Expr{c0, intConst(2)}, Typ: value.KindInt}, [4]golden{gNull, gInt(0), gNull, gInt(-7)}},
		{&algebra.Func{Name: "greatest", Args: []algebra.Expr{c0, intConst(5), nullConst()}, Typ: value.KindInt}, [4]golden{gInt(5), gInt(5), gInt(5), gInt(5)}},
		{&algebra.Func{Name: "substr", Args: []algebra.Expr{c1, intConst(2), intConst(2)}, Typ: value.KindString}, [4]golden{gStr("bc"), gStr("2"), gNull, gStr("")}},
		{&algebra.Func{Name: "abs", Args: []algebra.Expr{&algebra.Neg{E: c0}}, Typ: value.KindInt}, [4]golden{gInt(2), gInt(0), gNull, gInt(7)}},
		{&algebra.Func{Name: "no_such_fn", Args: nil, Typ: value.KindInt}, [4]golden{gErr("executor: unknown function \"no_such_fn\""), gErr("executor: unknown function \"no_such_fn\""), gErr("executor: unknown function \"no_such_fn\""), gErr("executor: unknown function \"no_such_fn\"")}},
		// CASE: lazy arms must not evaluate (the error arm is unreachable)
		{&algebra.Case{
			Whens: []algebra.CaseWhen{
				{Cond: bin(sql.OpGt, c0, intConst(100)), Result: &algebra.Neg{E: c1}},
				{Cond: bin(sql.OpGt, c0, intConst(1)), Result: strConst("big")},
			},
			Else: strConst("small"),
			Typ:  value.KindString,
		}, [4]golden{gStr("big"), gStr("small"), gStr("small"), gStr("small")}},
		// IN lists, LIKE and casts
		{&algebra.InList{E: c0, List: []algebra.Expr{intConst(1), intConst(2), nullConst()}}, [4]golden{gBool(true), gNull, gNull, gNull}},
		{&algebra.InList{E: c0, List: []algebra.Expr{intConst(99), nullConst()}, Neg: true}, [4]golden{gNull, gNull, gNull, gNull}},
		{&algebra.Like{E: c1, Pattern: strConst("a%")}, [4]golden{gBool(true), gBool(false), gNull, gBool(false)}},
		{&algebra.Like{E: c1, Pattern: strConst("_b%"), Neg: true}, [4]golden{gBool(false), gBool(true), gNull, gBool(true)}},
		{&algebra.Cast{E: c0, To: value.KindString}, [4]golden{gStr("2"), gStr("0"), gNull, gStr("-7")}},
		{&algebra.Cast{E: c1, To: value.KindInt}, [4]golden{gErr("cannot cast \"abc\" to integer"), gInt(12), gNull, gErr("cannot cast \"\" to integer")}}, // errors on rows that are not integer text
	}
}

func TestCompileGolden(t *testing.T) {
	for _, c := range goldenCases() {
		ce := Compile(c.e)
		for ri, row := range goldenRows {
			want := c.want[ri]
			got, err := ce(row, NewContext(nil))
			switch {
			case want.err != "":
				if err == nil || err.Error() != want.err {
					t.Errorf("%v row %d: got (%v, %v), want error %q", c.e, ri, got, err, want.err)
				}
			case err != nil:
				t.Errorf("%v row %d: unexpected error %v, want %v", c.e, ri, err, want.v)
			case got.K != want.v.K || value.Distinct(got, want.v):
				t.Errorf("%v row %d: got %v (%s), want %v (%s)", c.e, ri, got, got.K, want.v, want.v.K)
			}
		}
	}
}

func TestThreeValuedAnd(t *testing.T) {
	cases := []struct {
		l, r algebra.Expr
		want value.Value
	}{
		{boolConst(true), boolConst(true), value.NewBool(true)},
		{boolConst(true), boolConst(false), value.NewBool(false)},
		{boolConst(false), nullConst(), value.NewBool(false)}, // FALSE AND NULL = FALSE
		{nullConst(), boolConst(false), value.NewBool(false)},
		{boolConst(true), nullConst(), value.Null},
		{nullConst(), nullConst(), value.Null},
	}
	for _, c := range cases {
		got := evalOne(t, &algebra.Bin{Op: sql.OpAnd, L: c.l, R: c.r}, nil)
		if value.Distinct(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("AND(%v, %v) = %v, want %v", c.l, c.r, got, c.want)
		}
	}
}

func TestThreeValuedOr(t *testing.T) {
	cases := []struct {
		l, r algebra.Expr
		want value.Value
	}{
		{boolConst(false), boolConst(false), value.NewBool(false)},
		{boolConst(true), nullConst(), value.NewBool(true)}, // TRUE OR NULL = TRUE
		{nullConst(), boolConst(true), value.NewBool(true)},
		{boolConst(false), nullConst(), value.Null},
		{nullConst(), nullConst(), value.Null},
	}
	for _, c := range cases {
		got := evalOne(t, &algebra.Bin{Op: sql.OpOr, L: c.l, R: c.r}, nil)
		if value.Distinct(got, c.want) && !(got.IsNull() && c.want.IsNull()) {
			t.Errorf("OR = %v, want %v", got, c.want)
		}
	}
}

func TestNotOfNull(t *testing.T) {
	got := evalOne(t, &algebra.Not{E: nullConst()}, nil)
	if !got.IsNull() {
		t.Errorf("NOT NULL = %v", got)
	}
}

func TestComparisonNullPropagation(t *testing.T) {
	got := evalOne(t, &algebra.Bin{Op: sql.OpEq, L: nullConst(), R: nullConst()}, nil)
	if !got.IsNull() {
		t.Errorf("NULL = NULL must be NULL, got %v", got)
	}
	got = evalOne(t, &algebra.Bin{Op: sql.OpNotDistinct, L: nullConst(), R: nullConst()}, nil)
	if got.IsNull() || !got.Bool() {
		t.Errorf("NULL IS NOT DISTINCT FROM NULL must be TRUE, got %v", got)
	}
}

func TestIsNullNeverNull(t *testing.T) {
	got := evalOne(t, &algebra.IsNull{E: nullConst()}, nil)
	if got.IsNull() || !got.Bool() {
		t.Errorf("NULL IS NULL = %v", got)
	}
	got = evalOne(t, &algebra.IsNull{E: boolConst(true), Not: true}, nil)
	if !got.Bool() {
		t.Errorf("TRUE IS NOT NULL = %v", got)
	}
}

func TestCaseEvaluation(t *testing.T) {
	e := &algebra.Case{
		Whens: []algebra.CaseWhen{
			{Cond: boolConst(false), Result: strConst("no")},
			{Cond: nullConst(), Result: strConst("never")},
			{Cond: boolConst(true), Result: strConst("yes")},
		},
		Else: strConst("else"),
		Typ:  value.KindString,
	}
	if got := evalOne(t, e, nil); got.S != "yes" {
		t.Errorf("CASE = %v", got)
	}
	e.Whens = e.Whens[:2]
	if got := evalOne(t, e, nil); got.S != "else" {
		t.Errorf("CASE else = %v", got)
	}
	e.Else = nil
	if got := evalOne(t, e, nil); !got.IsNull() {
		t.Errorf("CASE without else = %v", got)
	}
}

func TestInListSemantics(t *testing.T) {
	in := &algebra.InList{
		E:    &algebra.Const{Val: value.NewInt(2)},
		List: []algebra.Expr{nullConst(), &algebra.Const{Val: value.NewInt(3)}},
	}
	// 2 IN (NULL, 3) = NULL
	if got := evalOne(t, in, nil); !got.IsNull() {
		t.Errorf("IN with NULL = %v", got)
	}
	in.List = append(in.List, &algebra.Const{Val: value.NewInt(2)})
	if got := evalOne(t, in, nil); !got.Bool() {
		t.Errorf("IN match = %v", got)
	}
	in.Neg = true
	if got := evalOne(t, in, nil); got.Bool() {
		t.Errorf("NOT IN match = %v", got)
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%l%", true},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"日本語", "日_語", true},
	}
	for _, c := range cases {
		e := &algebra.Like{E: strConst(c.s), Pattern: strConst(c.pat)}
		if got := evalOne(t, e, nil); got.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
	// NULL propagation
	e := &algebra.Like{E: nullConst(), Pattern: strConst("%")}
	if got := evalOne(t, e, nil); !got.IsNull() {
		t.Errorf("NULL LIKE = %v", got)
	}
}

func TestScalarFunctions(t *testing.T) {
	call := func(name string, args ...algebra.Expr) value.Value {
		return evalOne(t, &algebra.Func{Name: name, Args: args}, nil)
	}
	i := func(n int64) algebra.Expr { return &algebra.Const{Val: value.NewInt(n)} }
	f := func(x float64) algebra.Expr { return &algebra.Const{Val: value.NewFloat(x)} }

	if got := call("upper", strConst("abc")); got.S != "ABC" {
		t.Errorf("upper = %v", got)
	}
	if got := call("lower", strConst("ABC")); got.S != "abc" {
		t.Errorf("lower = %v", got)
	}
	if got := call("length", strConst("héllo")); got.I != 5 {
		t.Errorf("length = %v", got)
	}
	if got := call("abs", i(-5)); got.I != 5 {
		t.Errorf("abs = %v", got)
	}
	if got := call("coalesce", nullConst(), nullConst(), i(3)); got.I != 3 {
		t.Errorf("coalesce = %v", got)
	}
	if got := call("nullif", i(1), i(1)); !got.IsNull() {
		t.Errorf("nullif equal = %v", got)
	}
	if got := call("nullif", i(1), i(2)); got.I != 1 {
		t.Errorf("nullif distinct = %v", got)
	}
	if got := call("substr", strConst("hello"), i(2), i(3)); got.S != "ell" {
		t.Errorf("substr = %v", got)
	}
	if got := call("substr", strConst("hello"), i(4)); got.S != "lo" {
		t.Errorf("substr open = %v", got)
	}
	if got := call("replace", strConst("aaa"), strConst("a"), strConst("b")); got.S != "bbb" {
		t.Errorf("replace = %v", got)
	}
	if got := call("round", f(2.567), i(1)); got.F != 2.6 {
		t.Errorf("round = %v", got)
	}
	if got := call("floor", f(2.9)); got.F != 2 {
		t.Errorf("floor = %v", got)
	}
	if got := call("sqrt", f(9)); got.F != 3 {
		t.Errorf("sqrt = %v", got)
	}
	if got := call("power", f(2), f(10)); got.F != 1024 {
		t.Errorf("power = %v", got)
	}
	if got := call("greatest", i(1), nullConst(), i(7), i(3)); got.I != 7 {
		t.Errorf("greatest = %v", got)
	}
	if got := call("least", i(1), i(7)); got.I != 1 {
		t.Errorf("least = %v", got)
	}
	if got := call("concat", strConst("a"), nullConst(), strConst("b")); got.S != "ab" {
		t.Errorf("concat skips nulls = %v", got)
	}
	if got := call("strpos", strConst("hello"), strConst("ll")); got.I != 3 {
		t.Errorf("strpos = %v", got)
	}
	if got := call("mod", i(7), i(3)); got.I != 1 {
		t.Errorf("mod = %v", got)
	}
	// NULL propagation for plain functions.
	if got := call("upper", nullConst()); !got.IsNull() {
		t.Errorf("upper(NULL) = %v", got)
	}
}

func TestCastEval(t *testing.T) {
	got := evalOne(t, &algebra.Cast{E: strConst("12"), To: value.KindInt}, nil)
	if got.I != 12 {
		t.Errorf("cast = %v", got)
	}
	_, err := Compile(&algebra.Cast{E: strConst("x"), To: value.KindInt})(nil, NewContext(nil))
	if err == nil {
		t.Error("bad cast must error")
	}
}

func TestConcatOperatorNull(t *testing.T) {
	got := evalOne(t, &algebra.Bin{Op: sql.OpConcat, L: strConst("a"), R: nullConst()}, nil)
	if !got.IsNull() {
		t.Errorf("'a' || NULL = %v, want NULL", got)
	}
	got = evalOne(t, &algebra.Bin{Op: sql.OpConcat, L: strConst("a"), R: &algebra.Const{Val: value.NewInt(1)}}, nil)
	if got.S != "a1" {
		t.Errorf("'a' || 1 = %v", got)
	}
}

// TestCompilePredicateTruth checks WHERE truth semantics of the compiled
// predicate wrapper: TRUE accepts, FALSE rejects.
func TestCompilePredicateTruth(t *testing.T) {
	for _, c := range []struct {
		e    algebra.Expr
		want bool
	}{
		{boolConst(true), true},
		{boolConst(false), false},
	} {
		got, err := CompilePredicate(c.e)(nil, NewContext(nil))
		if err != nil || got != c.want {
			t.Errorf("%v: got %v, %v; want %v", c.e, got, err, c.want)
		}
	}
}

// TestEvalBoolRejectsNonBool checks the predicate contract's error and NULL
// cases: a non-boolean predicate is a type error, a NULL one rejects the row.
func TestEvalBoolRejectsNonBool(t *testing.T) {
	_, err := CompilePredicate(intConst(1))(nil, NewContext(nil))
	if err == nil || !strings.Contains(err.Error(), "boolean") {
		t.Errorf("err = %v", err)
	}
	ok, err := CompilePredicate(nullConst())(nil, NewContext(nil))
	if err != nil || ok {
		t.Errorf("NULL predicate must reject: %v %v", ok, err)
	}
}

const outOfRange5 = "executor: column index 5 out of range (row width 1)"

func TestColumnOutOfRange(t *testing.T) {
	_, err := Compile(&algebra.ColIdx{Idx: 5})(value.Row{value.NewInt(1)}, NewContext(nil))
	if err == nil || err.Error() != outOfRange5 {
		t.Errorf("err = %v, want out-of-range error", err)
	}
}

// TestCompiledColumnOutOfRange checks the typed-column shape's bounds error.
func TestCompiledColumnOutOfRange(t *testing.T) {
	_, err := Compile(col(5, value.KindInt))(value.Row{value.NewInt(1)}, NewContext(nil))
	if err == nil || err.Error() != outOfRange5 {
		t.Errorf("err = %v, want out-of-range error", err)
	}
}

func TestOuterRefOutsideContext(t *testing.T) {
	_, err := Compile(&algebra.OuterRef{Idx: 0})(nil, NewContext(nil))
	if err == nil {
		t.Error("outer ref without correlation context must error")
	}
	ctx := NewContext(nil)
	ctx.pushOuter(value.Row{value.NewInt(1)})
	_, err = Compile(&algebra.OuterRef{Idx: 3})(nil, ctx)
	if err == nil || err.Error() != "executor: outer index 3 out of range (outer width 1)" {
		t.Errorf("err = %v, want outer out-of-range error", err)
	}
}

// TestCompiledOuterRef checks correlation-stack reads and the error outside a
// correlated context.
func TestCompiledOuterRef(t *testing.T) {
	ce := Compile(&algebra.OuterRef{Idx: 0, Typ: value.KindInt})
	ctx := NewContext(nil)
	if _, err := ce(nil, ctx); err == nil {
		t.Fatal("outer ref outside correlation must error")
	}
	ctx.pushOuter(value.Row{value.NewInt(42)})
	v, err := ce(nil, ctx)
	if err != nil || v.I != 42 {
		t.Fatalf("outer ref = %v, %v", v, err)
	}
}
