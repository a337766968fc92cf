package planner

import (
	"reflect"
	"testing"

	"perm/internal/algebra"
	"perm/internal/catalog"
	"perm/internal/executor"
	"perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// joinplan_test.go covers the two join-planning rules: folding two-sided
// filter conjuncts into inner and cross join conditions, and commuting a
// hash join whose right (build) input is estimated larger than its left.

// joinEnv extends env with w(c, d), five rows, for three-table chains.
func joinEnv(t *testing.T) *storage.Store {
	t.Helper()
	s := env(t)
	tab, err := s.CreateTable(&catalog.TableDef{Name: "w", Columns: []catalog.Column{
		{Name: "c", Type: value.KindInt}, {Name: "d", Type: value.KindInt},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		tab.Insert(value.Row{value.NewInt(i * 1000), value.NewInt(i)})
	}
	if err := s.Analyze(""); err != nil {
		t.Fatal(err)
	}
	return s
}

// joinsOf lists the plan's joins in pre-order (top join first).
func joinsOf(op algebra.Op) []*algebra.Join {
	var out []*algebra.Join
	algebra.Walk(op, func(o algebra.Op) {
		if j, ok := o.(*algebra.Join); ok {
			out = append(out, j)
		}
	})
	return out
}

// selectsOf lists the plan's filters.
func selectsOf(op algebra.Op) []*algebra.Select {
	var out []*algebra.Select
	algebra.Walk(op, func(o algebra.Op) {
		if s, ok := o.(*algebra.Select); ok {
			out = append(out, s)
		}
	})
	return out
}

// optimizeSame optimizes q and requires the optimized plan to return the
// same multiset of rows as the raw one.
func optimizeSame(t *testing.T, s *storage.Store, q string) algebra.Op {
	t.Helper()
	raw := planOf(t, s, q)
	opt := New(s.Catalog()).Optimize(raw)
	if a, b := rowsOf(t, s, raw), rowsOf(t, s, opt); !reflect.DeepEqual(a, b) {
		t.Fatalf("%q: optimized plan changed results (%d vs %d rows):\n%s", q, len(a), len(b), algebra.Tree(opt))
	}
	return opt
}

func TestFoldCrossToInner(t *testing.T) {
	s := joinEnv(t)
	opt := optimizeSame(t, s, `SELECT t.a, u.c FROM t, u WHERE t.a = u.a`)
	js := joinsOf(opt)
	if len(js) != 1 || js[0].Kind != algebra.JoinInner || js[0].Cond == nil {
		t.Fatalf("cross join with an equi-predicate must become an inner join:\n%s", algebra.Tree(opt))
	}
	if !executor.HashJoinable(js[0]) {
		t.Errorf("folded join does not hash:\n%s", algebra.Tree(opt))
	}
	if sels := selectsOf(opt); len(sels) != 0 {
		t.Errorf("filter left above the join:\n%s", algebra.Tree(opt))
	}
}

func TestFoldMergesIntoInnerCondition(t *testing.T) {
	s := joinEnv(t)
	opt := optimizeSame(t, s, `SELECT t.a, u.c FROM t JOIN u ON t.a = u.a WHERE t.b * 10 < u.c`)
	js := joinsOf(opt)
	if len(js) != 1 || js[0].Kind != algebra.JoinInner {
		t.Fatalf("want one inner join:\n%s", algebra.Tree(opt))
	}
	if n := len(algebra.SplitAnd(js[0].Cond)); n != 2 {
		t.Errorf("join condition has %d conjuncts, want the ON equality AND the folded one:\n%s", n, algebra.Tree(opt))
	}
	if sels := selectsOf(opt); len(sels) != 0 {
		t.Errorf("filter left above the join:\n%s", algebra.Tree(opt))
	}
}

func TestFoldChainLowestCoveringJoin(t *testing.T) {
	s := joinEnv(t)
	opt := optimizeSame(t, s,
		`SELECT t.a, u.c, w.d FROM t, u, w WHERE t.a = u.a AND u.c = w.c AND t.b + w.d > 0 AND w.d > 1`)
	if sels := selectsOf(opt); len(sels) != 1 {
		t.Fatalf("want only the one-sided w.d filter left, got %d filters:\n%s", len(sels), algebra.Tree(opt))
	}
	js := joinsOf(opt)
	if len(js) != 2 {
		t.Fatalf("want two joins:\n%s", algebra.Tree(opt))
	}
	// The top join covers w: it takes u.c = w.c and the three-table
	// conjunct; the lower one takes t.a = u.a alone.
	for i, want := range []int{2, 1} {
		if js[i].Kind != algebra.JoinInner {
			t.Errorf("join %d is %s, want inner", i, js[i].Kind)
		}
		if n := len(algebra.SplitAnd(js[i].Cond)); n != want {
			t.Errorf("join %d has %d conjuncts, want %d:\n%s", i, n, want, algebra.Tree(opt))
		}
	}
}

func TestFoldStaysAboveOuterJoins(t *testing.T) {
	s := joinEnv(t)
	for _, q := range []string{
		`SELECT t.a, u.c FROM t LEFT JOIN u ON t.a = u.a WHERE t.b * 10 < u.c`,
		`SELECT t.a, u.c FROM t FULL JOIN u ON t.a = u.a WHERE t.b * 10 < u.c`,
	} {
		opt := optimizeSame(t, s, q)
		js := joinsOf(opt)
		if len(js) != 1 || len(algebra.SplitAnd(js[0].Cond)) != 1 {
			t.Fatalf("%q: outer join condition changed:\n%s", q, algebra.Tree(opt))
		}
		above := false
		for _, sel := range selectsOf(opt) {
			algebra.Walk(sel.Input, func(o algebra.Op) { above = above || o == algebra.Op(js[0]) })
		}
		if !above {
			t.Errorf("%q: the two-sided filter must stay above the outer join:\n%s", q, algebra.Tree(opt))
		}
	}
}

func TestFoldKeepsSubplanAbove(t *testing.T) {
	s := joinEnv(t)
	opt := optimizeSame(t, s,
		`SELECT t.a, u.c FROM t, u WHERE t.a = u.a AND t.b + u.c > (SELECT min(d) FROM w)`)
	js := joinsOf(opt)
	if len(js) != 1 || js[0].Kind != algebra.JoinInner || algebra.HasSubplan(js[0].Cond) {
		t.Fatalf("want an inner join on the equality alone:\n%s", algebra.Tree(opt))
	}
	sels := selectsOf(opt)
	if len(sels) != 1 || !algebra.HasSubplan(sels[0].Cond) {
		t.Errorf("the subplan conjunct must stay in a filter above the join:\n%s", algebra.Tree(opt))
	}
}

func TestFoldNonEquiBecomesNestedLoop(t *testing.T) {
	s := joinEnv(t)
	opt := optimizeSame(t, s, `SELECT t.a, u.a FROM t, u WHERE t.a < u.a`)
	js := joinsOf(opt)
	if len(js) != 1 || js[0].Kind != algebra.JoinInner || js[0].Cond == nil {
		t.Fatalf("want an inner join carrying the inequality:\n%s", algebra.Tree(opt))
	}
	if executor.HashJoinable(js[0]) {
		t.Errorf("an inequality has no hash key:\n%s", algebra.Tree(opt))
	}
	if _, ok := js[0].Left.(*algebra.Scan); !ok || js[0].Left.(*algebra.Scan).Table != "t" {
		t.Errorf("a nested-loop join must not commute:\n%s", algebra.Tree(opt))
	}
}

// provInput projects a table's columns twice, the second copy flagged as
// provenance under its own name, so schema comparisons see names and flags.
func provInput(table string, cols ...string) algebra.Op {
	var sch algebra.Schema
	for _, c := range cols {
		sch = append(sch, algebra.Column{Name: c, Table: table, Type: value.KindInt})
	}
	for _, c := range cols {
		sch = append(sch, algebra.Column{Name: "prov_" + table + "_" + c, Type: value.KindInt,
			IsProv: true, ProvRel: table, ProvAttr: c})
	}
	var exprs []algebra.Expr
	for i := range sch {
		exprs = append(exprs, &algebra.ColIdx{Idx: i % len(cols), Typ: value.KindInt, Name: sch[i].Name})
	}
	return &algebra.Project{Input: &algebra.Scan{Table: table, Sch: sch[:len(cols)]}, Exprs: exprs, Sch: sch}
}

func TestBuildSideCommutePreservesSchema(t *testing.T) {
	s := joinEnv(t)
	p := New(s.Catalog())
	for _, kind := range []algebra.JoinKind{algebra.JoinInner, algebra.JoinLeft, algebra.JoinRight, algebra.JoinFull} {
		// w (5 rows) ⋈ t (20 rows): the right input is larger, so it commutes.
		left, right := provInput("w", "c", "d"), provInput("t", "a", "b")
		cond := &algebra.Bin{Op: sql.OpEq,
			L: &algebra.ColIdx{Idx: 1, Typ: value.KindInt, Name: "d"},
			R: &algebra.ColIdx{Idx: 4, Typ: value.KindInt, Name: "a"}}
		j := algebra.NewJoin(kind, left, right, cond)
		opt := p.Optimize(j)
		proj, ok := opt.(*algebra.Project)
		if !ok {
			t.Fatalf("%s: want a reordering Project over the commuted join:\n%s", kind, algebra.Tree(opt))
		}
		if !reflect.DeepEqual(proj.Schema(), j.Schema()) {
			t.Errorf("%s: schema changed:\nwant %v\ngot  %v", kind, j.Schema(), proj.Schema())
		}
		if !reflect.DeepEqual(proj.Schema().ProvIdx(), j.Schema().ProvIdx()) {
			t.Errorf("%s: provenance columns moved", kind)
		}
		cj := proj.Input.(*algebra.Join)
		wantKind := map[algebra.JoinKind]algebra.JoinKind{
			algebra.JoinInner: algebra.JoinInner, algebra.JoinLeft: algebra.JoinRight,
			algebra.JoinRight: algebra.JoinLeft, algebra.JoinFull: algebra.JoinFull,
		}[kind]
		if cj.Kind != wantKind || cj.Left != right || cj.Right != left {
			t.Errorf("%s: commuted to %s with inputs %s / %s", kind, cj.Kind, cj.Left.Name(), cj.Right.Name())
		}
		// d was column 1 of the left (now at 4+1), a column 0 of the right
		// (now at 0).
		if got := cj.Cond.String(); got != "(d#5 = a#0)" {
			t.Errorf("%s: remapped condition = %s, want (d#5 = a#0)", kind, got)
		}
		a, b := rowsOf(t, s, j), rowsOf(t, s, opt)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: commuted join changed results (%d vs %d rows)", kind, len(a), len(b))
		}
	}
}

// scanOf is a bare scan of a catalog table.
func scanOf(s *storage.Store, table string) *algebra.Scan {
	var sch algebra.Schema
	for _, c := range s.Catalog().Table(table).Columns {
		sch = append(sch, algebra.Column{Name: c.Name, Table: table, Type: c.Type})
	}
	return &algebra.Scan{Table: table, Sch: sch}
}

func TestBuildSideLeavesJoinsAlone(t *testing.T) {
	s := joinEnv(t)
	p := New(s.Catalog())
	eq := &algebra.Bin{Op: sql.OpEq,
		L: &algebra.ColIdx{Idx: 0, Typ: value.KindInt, Name: "a"},
		R: &algebra.ColIdx{Idx: 2, Typ: value.KindInt, Name: "a"}}
	small, big := scanOf(s, "t"), scanOf(s, "u") // 20 and 21 rows
	lateral := algebra.NewJoin(algebra.JoinInner, small, big, eq)
	lateral.Lateral = true
	cases := map[string]*algebra.Join{
		"semi":    algebra.NewJoin(algebra.JoinSemi, small, big, eq),
		"anti":    algebra.NewJoin(algebra.JoinAnti, small, big, eq),
		"cross":   algebra.NewJoin(algebra.JoinCross, small, big, nil),
		"lateral": lateral,
		"tie":     algebra.NewJoin(algebra.JoinInner, small, scanOf(s, "t"), eq),
		"smaller": algebra.NewJoin(algebra.JoinInner, big, small, eq),
	}
	for name, j := range cases {
		opt := p.Optimize(j)
		got, ok := opt.(*algebra.Join)
		if !ok || got.Left != j.Left || got.Right != j.Right || got.Kind != j.Kind {
			t.Errorf("%s: join must not commute:\n%s", name, algebra.Tree(opt))
		}
	}
}
