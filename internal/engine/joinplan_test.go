package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Join-planning coverage at the engine layer: comma joins fold into the same
// hash joins their JOIN … ON forms plan (same rows, same order), RIGHT and
// FULL joins — including LEFT joins the planner commutes into RIGHT ones —
// fan out, and the provenance aggregation class builds its hash table on
// the aggregate.

// seedForumTables adds a deterministic forum database to db: the schema of
// the paper's Figure 1 (users, messages, imports, approved, view v1) with
// messages rows, a tenth as many users, half as many imports (a tenth of
// them repeating a message text) and two approvals per message or import.
func seedForumTables(t testing.TB, db *DB, messages int) {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	for _, ddl := range []string{
		`CREATE TABLE users (uid int, name text)`,
		`CREATE TABLE messages (mid int, text text, uid int)`,
		`CREATE TABLE imports (mid int, text text, origin text)`,
		`CREATE TABLE approved (uid int, mid int)`,
	} {
		mustExecSpill(t, s, ddl)
	}
	rng := rand.New(rand.NewSource(11))
	users, imports := messages/10, messages/2
	insert := func(table string, n int, row func(i int) string) {
		for off := 0; off < n; off += 1000 {
			var b strings.Builder
			fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
			for i := off; i < n && i < off+1000; i++ {
				if i > off {
					b.WriteString(", ")
				}
				b.WriteString(row(i))
			}
			mustExecSpill(t, s, b.String())
		}
	}
	texts := make([]string, messages)
	for i := range texts {
		texts[i] = fmt.Sprintf("text %d", rng.Intn(messages))
	}
	insert("users", users, func(i int) string { return fmt.Sprintf("(%d, 'user%d')", i+1, i+1) })
	insert("messages", messages, func(i int) string {
		return fmt.Sprintf("(%d, '%s', %d)", i+1, texts[i], rng.Intn(users)+1)
	})
	insert("imports", imports, func(i int) string {
		text := fmt.Sprintf("import %d", i)
		if rng.Intn(10) == 0 {
			text = texts[rng.Intn(messages)]
		}
		return fmt.Sprintf("(%d, '%s', 'origin%d')", messages+i+1, text, rng.Intn(5))
	})
	insert("approved", 2*(messages+imports), func(int) string {
		return fmt.Sprintf("(%d, %d)", rng.Intn(users)+1, rng.Intn(messages+imports)+1)
	})
	mustExecSpill(t, s, `CREATE VIEW v1 AS SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`)
}

// forumAggClass is the paper's aggregation class over the forum tables; its
// provenance rewrite joins the aggregate back to the provenance of its
// input, which the planner now runs as a RIGHT hash join built on the
// aggregate.
const forumAggClass = `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`

// commaForms pairs each provenance class, written with JOIN … ON, with the
// same query written as a comma join.
var commaForms = [][2]string{
	{`SELECT m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`,
		`SELECT m.mid, m.text, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid % 10 = 0`},
	{`SELECT count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`,
		`SELECT count(*), text FROM v1, approved a WHERE v1.mid = a.mid GROUP BY v1.mid, text`},
	{`SELECT m.mid, u.name FROM messages m JOIN users u ON m.uid = u.uid UNION SELECT i.mid, i.origin FROM imports i JOIN approved a ON i.mid = a.mid`,
		`SELECT m.mid, u.name FROM messages m, users u WHERE m.uid = u.uid UNION SELECT i.mid, i.origin FROM imports i, approved a WHERE i.mid = a.mid`},
	{`SELECT m.mid, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid IN (SELECT mid FROM approved)`,
		`SELECT m.mid, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid IN (SELECT mid FROM approved)`},
	{`SELECT m.mid, u.name, a.uid FROM messages m JOIN users u ON m.uid = u.uid JOIN approved a ON a.mid = m.mid WHERE a.uid < u.uid`,
		`SELECT m.mid, u.name, a.uid FROM messages m, users u, approved a WHERE m.uid = u.uid AND a.mid = m.mid AND a.uid < u.uid`},
}

// TestCommaJoinMatchesJoinOn: every class written as a comma join returns
// exactly the bytes of its JOIN … ON form, row order included, with and
// without PROVENANCE.
func TestCommaJoinMatchesJoinOn(t *testing.T) {
	db := NewDB()
	seedForumTables(t, db, 3000)
	s := db.NewSession()
	defer s.Close()
	for _, f := range commaForms {
		for _, prefix := range []string{"", "PROVENANCE "} {
			on := strings.Replace(f[0], "SELECT ", "SELECT "+prefix, 1)
			comma := strings.Replace(f[1], "SELECT ", "SELECT "+prefix, 1)
			want := renderFull(mustExecSpill(t, s, on))
			if got := renderFull(mustExecSpill(t, s, comma)); got != want {
				t.Errorf("comma form diverged from JOIN … ON:\n%s\n%s\nwant:\n%.1500s\ngot:\n%.1500s", on, comma, want, got)
			}
		}
	}
}

// TestBuildSideExplain: the aggregation class plans a RIGHT hash join whose
// build side is the aggregate, and it runs without spilling; a commuted
// join under a SELECT list shows no extra Project.
func TestBuildSideExplain(t *testing.T) {
	db := NewDB()
	seedForumTables(t, db, 3000)
	s := db.NewSession()
	defer s.Close()
	ex, err := s.ExplainAnalyze(parseSelect(t, forumAggClass))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.OptimizedTree, "Join ⋈ Right") {
		t.Fatalf("aggregation class does not plan a RIGHT join:\n%s", ex.OptimizedTree)
	}
	groups := renderRows(mustExecSpill(t, s,
		`SELECT count(*) FROM (SELECT v1.mid, text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text) AS g`))
	if !strings.Contains(ex.AnalyzedTree, "build="+groups) {
		t.Errorf("RIGHT join does not build on the %s aggregate groups:\n%s", groups, ex.AnalyzedTree)
	}
	if ex.SpillFiles != 0 {
		t.Errorf("aggregation class spilled %d files", ex.SpillFiles)
	}

	res := mustExecSpill(t, s, `EXPLAIN SELECT m.text, u.name FROM users u JOIN messages m ON u.uid = m.uid`)
	var plan []string
	in := false
	for _, r := range res.Rows {
		line := r[0].Str()
		if strings.HasPrefix(line, "Optimized plan:") {
			in = true
			continue
		}
		if in {
			plan = append(plan, line)
		}
	}
	tree := strings.Join(plan, "\n")
	if n := strings.Count(tree, "Project"); n != 1 {
		t.Errorf("want the SELECT list's Project only, got %d:\n%s", n, tree)
	}
	if !strings.Contains(tree, "Join ⋈ Inner") || strings.Index(tree, "Scan messages") > strings.Index(tree, "Scan users") {
		t.Errorf("users (small) must be the build side under messages (large):\n%s", tree)
	}
}

// parallelTailJoins are RIGHT and FULL joins with unmatched rows on both
// sides: hash joins plain and with PROVENANCE (b.k < 25 rejects about half
// the candidate pairs), a LEFT join the planner commutes into a RIGHT one,
// and a nested-loop RIGHT join.
var parallelTailJoins = []string{
	`SELECT b.k, b.v, o.k, o.s FROM big b RIGHT JOIN other o ON b.v = o.v AND b.k < 25`,
	`SELECT b.k, b.s, o.v FROM big b FULL JOIN other o ON b.v = o.v AND b.k < 25`,
	`SELECT o.k, o.v, b.s FROM other o LEFT JOIN big b ON o.v = b.v AND b.k < 25`,
	`SELECT PROVENANCE b.k, o.s FROM big b RIGHT JOIN other o ON b.v = o.v AND b.k < 25`,
	`SELECT PROVENANCE b.s, o.k FROM big b FULL JOIN other o ON b.v = o.v AND b.k < 25`,
	`SELECT sm.w, b.k FROM big b RIGHT JOIN small sm ON b.v % 997 < sm.w - 30`,
}

// TestParallelTailJoinsFanOut: RIGHT and FULL joins, and the commuted LEFT
// join, really run parallel at degree 4.
func TestParallelTailJoinsFanOut(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 4`)
	mustExecSpill(t, s, `SET trace = on`)
	for _, q := range parallelTailJoins {
		mustExecSpill(t, s, q)
		tr := mustExecSpill(t, s, `SHOW last_trace`)
		if ops := tr.Rows[0][colIndex(t, tr.Columns, "parallel_ops")].I; ops < 1 {
			t.Errorf("%q did not fan out (parallel_ops = %d)", q, ops)
		}
	}
}

// TestParallelTailJoinWorkerSpill: under a budget the shared build side fits
// but the workers' private hash tables do not, workers spill to grace
// partitions and report their matched flags from there; the tail must still
// come out once, in build order, byte-identical to the serial run.
func TestParallelTailJoinWorkerSpill(t *testing.T) {
	const budget = 1 << 20
	db := seedParallelDB(t)
	base := db.NewSession()
	defer base.Close()
	for _, q := range parallelTailJoins[:2] {
		want := renderFull(mustExecSpill(t, base, q))
		s := db.NewSession()
		dir := t.TempDir()
		s.SetTempDir(dir)
		mustExecSpill(t, s, `SET parallelism = 4`)
		mustExecSpill(t, s, `SET trace = on`)
		mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, budget))
		if got := renderFull(mustExecSpill(t, s, q)); got != want {
			t.Fatalf("%q diverged with spilling workers", q)
		}
		tr := mustExecSpill(t, s, `SHOW last_trace`)
		if ops := tr.Rows[0][colIndex(t, tr.Columns, "parallel_ops")].I; ops < 1 {
			t.Errorf("%q did not fan out (parallel_ops = %d)", q, ops)
		}
		if ms := s.MemStatus(); ms.SpillFiles == 0 || ms.Tracked != 0 {
			t.Errorf("%q: want worker spill files and no tracked bytes left: %+v", q, ms)
		}
		s.Close()
	}
}
