package engine

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"perm/internal/algebra"
	"perm/internal/executor"
)

// Intra-query parallelism coverage: parallel execution must be byte-identical
// to serial across degrees, memory budgets, and provenance rewriting; workers
// must observe interrupts and deadlines promptly; and no goroutine or spill
// file may outlive its query.

// seedParallelDB extends the spill fixture with a small table for bounded
// nested-loop joins and the forum tables. big has 6000 rows and other 3000 —
// both above the executor's fan-out floor.
func seedParallelDB(t testing.TB) *DB {
	t.Helper()
	db := seedSpillDB(t, 6000)
	seedForumTables(t, db, 3000)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `CREATE TABLE small (w int)`)
	var b strings.Builder
	b.WriteString(`INSERT INTO small VALUES `)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d)", i*3%40)
	}
	mustExecSpill(t, s, b.String())
	return db
}

// parallelSuite spans every parallel operator plus shapes that must fall back
// to the serial path and still agree: gather chains, partition-wise hash and
// nested-loop joins (RIGHT/FULL ones too), partition-wise aggregation,
// DISTINCT aggregates and float sums (ineligible), subqueries, sorts, and
// provenance rewrites, the forum aggregation class among them.
var parallelSuite = slices.Concat([]string{
	// gather: scan/filter/project chains
	`SELECT k, v FROM big WHERE v % 3 = 0`,
	`SELECT k + v, s FROM big WHERE k < 25`,
	// partition-wise hash join
	`SELECT b.k, b.v, o.v FROM big b, other o WHERE b.v = o.v`,
	`SELECT b.k, o.s FROM big b JOIN other o ON b.v = o.v WHERE b.k % 2 = 0`,
	`SELECT b.v, o.v FROM big b LEFT JOIN other o ON b.v = o.v WHERE b.v < 500`,
	// partition-wise nested-loop and cross joins
	`SELECT b.v, sm.w FROM big b, small sm WHERE b.v % 97 < sm.w AND b.v % 11 = 0`,
	`SELECT count(*) FROM big b, small sm`,
	// partition-wise aggregation with worker-order partial merge
	`SELECT k, count(*), sum(v), min(s), max(v) FROM big GROUP BY k`,
	`SELECT k % 7, count(*), avg(v) FROM big WHERE v % 2 = 0 GROUP BY k % 7`,
	`SELECT count(*), sum(v), min(v), max(s) FROM big`,
	// serial-fallback shapes (DISTINCT aggregates, sorts, subqueries)
	`SELECT k, count(DISTINCT s) FROM big GROUP BY k`,
	`SELECT k, v FROM big ORDER BY v DESC, k LIMIT 100`,
	`SELECT DISTINCT k FROM big`,
	`SELECT k FROM big WHERE v IN (SELECT v FROM other) ORDER BY k LIMIT 50`,
	// provenance-rewritten plans through the same operators
	`SELECT PROVENANCE k, v FROM big WHERE v % 5 = 0`,
	`SELECT PROVENANCE b.k, o.v FROM big b, other o WHERE b.v = o.v`,
	`SELECT PROVENANCE k, count(*), sum(v) FROM big GROUP BY k`,
	forumAggClass,
}, parallelTailJoins)

// TestParallelDifferential pins the headline contract: for every query in the
// suite, every (parallelism, work_mem) combination must produce bytes
// identical to the serial wide-budget run — including the forced-spill
// configurations, where parallel operators either spill per worker (joins) or
// fall back to the serial spilling path (aggregation).
func TestParallelDifferential(t *testing.T) {
	db := seedParallelDB(t)
	base := db.NewSession()
	defer base.Close()
	mustExecSpill(t, base, `SET parallelism = 1`)
	want := make(map[string]string, len(parallelSuite))
	for _, q := range parallelSuite {
		want[q] = renderFull(mustExecSpill(t, base, q))
	}

	for _, deg := range []int{1, 2, 8} {
		for _, tiny := range []bool{false, true} {
			name := fmt.Sprintf("parallelism=%d/tiny=%v", deg, tiny)
			t.Run(name, func(t *testing.T) {
				s := db.NewSession()
				defer s.Close()
				dir := t.TempDir()
				s.SetTempDir(dir)
				mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
				if tiny {
					mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, tinyWorkMem))
				}
				for _, q := range parallelSuite {
					got := renderFull(mustExecSpill(t, s, q))
					if got != want[q] {
						t.Fatalf("diverged on %q:\nwant:\n%.2000s\ngot:\n%.2000s", q, want[q], got)
					}
					if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
						t.Fatalf("%q left %d files in temp dir (err %v)", q, len(ents), err)
					}
				}
				if ms := s.MemStatus(); ms.Tracked != 0 {
					t.Fatalf("tracked memory leaked: %d bytes", ms.Tracked)
				}
			})
		}
	}
}

// TestParallelReadYourWrites: parallel scans cut their partitions from the
// statement's own view — inside a transaction, its snapshot plus its
// uncommitted writes — exactly as serial scans do, through gather,
// aggregation and join, and each statement at degree > 1 really fans out.
func TestParallelReadYourWrites(t *testing.T) {
	db := seedParallelDB(t)
	cases := []struct{ q, want string }{
		{`SELECT k, s FROM big WHERE v = 999999`, "-1|mine"},
		{`SELECT count(*), max(v) FROM big`, "6001|999999"},
		{`SELECT b.s, o.s FROM big b JOIN other o ON b.v = o.v WHERE b.v = 999999`, "mine|theirs"},
	}
	for _, deg := range []int{1, 2, 8} {
		s := db.NewSession()
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		mustExecSpill(t, s, `SET trace = on`)
		mustExecSpill(t, s, `BEGIN`)
		mustExecSpill(t, s, `INSERT INTO big VALUES (-1, 999999, 'mine')`)
		mustExecSpill(t, s, `INSERT INTO other VALUES (-2, 999999, 'theirs')`)
		for _, c := range cases {
			if got := renderRows(mustExecSpill(t, s, c.q)); got != c.want {
				t.Errorf("parallelism=%d: %q = %q, want %q", deg, c.q, got, c.want)
			}
			if deg == 1 {
				continue
			}
			tr := mustExecSpill(t, s, `SHOW last_trace`)
			if ops := tr.Rows[0][colIndex(t, tr.Columns, "parallel_ops")].I; ops < 1 {
				t.Errorf("parallelism=%d: %q did not fan out (parallel_ops = %d)", deg, c.q, ops)
			}
		}
		mustExecSpill(t, s, `ROLLBACK`)
		s.Close()
	}
}

// TestParallelErrorAgreement: a query that fails must fail identically at
// every degree (same error text), not hang or half-succeed.
func TestParallelErrorAgreement(t *testing.T) {
	db := seedParallelDB(t)
	q := `SELECT b.v / (o.v - o.v) FROM big b, other o WHERE b.v = o.v`
	var want string
	for i, deg := range []int{1, 2, 8} {
		s := db.NewSession()
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		_, err := s.Execute(q)
		if err == nil {
			s.Close()
			t.Fatalf("parallelism=%d: expected division error, got success", deg)
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("parallelism=%d error diverged:\nwant %q\ngot  %q", deg, want, err.Error())
		}
		if ms := s.MemStatus(); ms.Tracked != 0 {
			t.Fatalf("parallelism=%d leaked %d tracked bytes after error", deg, ms.Tracked)
		}
		s.Close()
	}
}

// TestParallelInterrupt arms the session kill channel mid-query: every worker
// must observe the interrupt and the statement must unwind promptly even with
// workers parked in the exchange.
func TestParallelInterrupt(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 4`)
	kill := make(chan struct{})
	s.SetInterrupt(kill)
	done := make(chan error, 1)
	go func() {
		_, err := s.Execute(`SELECT count(*) FROM big b1, big b2 WHERE b1.v + b2.v >= 0`)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	close(kill)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "interrupted") {
			t.Fatalf("expected interrupt error, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted parallel query did not unwind within 10s")
	}
	if ms := s.MemStatus(); ms.Tracked != 0 {
		t.Fatalf("interrupt leaked %d tracked bytes", ms.Tracked)
	}
}

// TestParallelDeadline: the wall-clock deadline must cancel parallel workers
// exactly as it cancels the serial loops.
func TestParallelDeadline(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 4`)
	s.SetDeadline(time.Now().Add(50 * time.Millisecond))
	defer s.SetDeadline(time.Time{})
	_, err := s.Execute(`SELECT count(*) FROM big b1, big b2 WHERE b1.v + b2.v >= 0`)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("expected deadline interrupt, got %v", err)
	}
}

// TestParallelGoroutineLeak runs parallel queries to completion, abandons one
// mid-stream (workers parked on full exchange queues must exit through the
// quit channel), and requires the goroutine count to settle back to the
// baseline.
func TestParallelGoroutineLeak(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 8`)
	before := runtime.NumGoroutine()

	for _, q := range []string{
		`SELECT b.k, b.v, o.v FROM big b, other o WHERE b.v = o.v`,
		`SELECT k, count(*), sum(v) FROM big GROUP BY k`,
	} {
		mustExecSpill(t, s, q)
	}
	rows, err := s.Query(`SELECT k, v FROM big WHERE v % 2 = 0`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rows.Next(); err != nil {
			t.Fatal(err)
		}
	}
	rows.Close()
	// An abandoned parallel RIGHT join, parked before its tail.
	rows, err = s.Query(parallelTailJoins[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rows.Next(); err != nil {
			t.Fatal(err)
		}
	}
	rows.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestParallelJoinBuildSpillRegression is the build-side memory-bug
// regression: a hash join whose build side dwarfs work_mem must account it,
// spill, stay within ~2x the budget, and produce byte-identical rows — at
// every parallelism degree (the parallel join detects the overflow and takes
// the serial grace path).
func TestParallelJoinBuildSpillRegression(t *testing.T) {
	const budget = 131072
	db := seedParallelDB(t)
	base := db.NewSession()
	defer base.Close()
	q := `SELECT b.k, b.v, o.s FROM big b JOIN other o ON b.v = o.v`
	want := renderFull(mustExecSpill(t, base, q))
	for _, deg := range []int{1, 4} {
		s := db.NewSession()
		s.SetTempDir(t.TempDir())
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, budget))
		got := renderFull(mustExecSpill(t, s, q))
		if got != want {
			t.Fatalf("parallelism=%d: forced-spill join diverged", deg)
		}
		ms := s.MemStatus()
		if ms.SpillFiles == 0 {
			t.Fatalf("parallelism=%d: join build side never spilled: %+v", deg, ms)
		}
		if ms.Peak > 2*budget {
			t.Fatalf("parallelism=%d: peak tracked bytes %d exceed 2x budget %d", deg, ms.Peak, 2*budget)
		}
		s.Close()
	}
}

// TestParallelDistinctSpillRegression is the resident-DISTINCT memory-bug
// regression: per-group seen-sets far beyond work_mem must shed to sorted
// element runs and stay within ~2x the budget, byte-identical to the
// unbounded run.
func TestParallelDistinctSpillRegression(t *testing.T) {
	const budget = 131072
	db := NewDB()
	seed := db.NewSession()
	mustExecSpill(t, seed, `CREATE TABLE d (g int, x int)`)
	for off := 0; off < 60000; off += 1000 {
		var b strings.Builder
		b.WriteString(`INSERT INTO d VALUES `)
		for i := 0; i < 1000; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d)", (off+i)%8, off+i)
		}
		mustExecSpill(t, seed, b.String())
	}
	seed.Close()

	q := `SELECT g, count(DISTINCT x), min(x), avg(x) FROM d GROUP BY g`
	base := db.NewSession()
	defer base.Close()
	want := renderFull(mustExecSpill(t, base, q))
	for _, deg := range []int{1, 4} {
		s := db.NewSession()
		s.SetTempDir(t.TempDir())
		mustExecSpill(t, s, fmt.Sprintf(`SET parallelism = %d`, deg))
		mustExecSpill(t, s, fmt.Sprintf(`SET work_mem = %d`, budget))
		got := renderFull(mustExecSpill(t, s, q))
		if got != want {
			t.Fatalf("parallelism=%d: forced-spill DISTINCT diverged", deg)
		}
		ms := s.MemStatus()
		if ms.SpillFiles == 0 {
			t.Fatalf("parallelism=%d: DISTINCT states never spilled: %+v", deg, ms)
		}
		if ms.Peak > 2*budget {
			t.Fatalf("parallelism=%d: peak tracked bytes %d exceed 2x budget %d", deg, ms.Peak, 2*budget)
		}
		s.Close()
	}
}

// TestParallelTraceCounters drives the observability surface of a parallel
// statement the way a client would: SET trace on, run a fan-out-eligible
// query, and read SHOW last_trace — the parallel_ops/parallel_workers
// columns must be present, positionally consistent with the schema and row
// (a mismatch panics generic table renderers like permshell's), and nonzero
// exactly when the statement actually fanned out.
func TestParallelTraceCounters(t *testing.T) {
	db := seedParallelDB(t)
	s := db.NewSession()
	defer s.Close()
	mustExecSpill(t, s, `SET parallelism = 4`)
	mustExecSpill(t, s, `SET trace = on`)
	mustExecSpill(t, s, `SELECT v, v % 7 FROM big WHERE v % 3 <> 1`)
	res := mustExecSpill(t, s, `SHOW last_trace`)
	if len(res.Rows) != 1 {
		t.Fatalf("last_trace rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if len(res.Columns) != len(res.Schema) || len(row) != len(res.Columns) {
		t.Fatalf("last_trace arity mismatch: %d columns, %d schema fields, %d row cells",
			len(res.Columns), len(res.Schema), len(row))
	}
	ops := row[colIndex(t, res.Columns, "parallel_ops")].I
	workers := row[colIndex(t, res.Columns, "parallel_workers")].I
	if ops < 1 {
		t.Errorf("parallel_ops = %d, want >= 1", ops)
	}
	if workers < 2 {
		t.Errorf("parallel_workers = %d, want >= 2", workers)
	}

	// EXPLAIN ANALYZE instruments a parallel join + aggregation, so the
	// per-worker rollup is published from the join's release path too (the
	// counters must only be read after the workers are joined — this is
	// the regression surface for that ordering).
	res = mustExecSpill(t, s,
		`EXPLAIN ANALYZE SELECT b.v % 16, count(*), sum(b.v) FROM big b JOIN other o ON b.v = o.v GROUP BY b.v % 16`)
	var out strings.Builder
	for _, r := range res.Rows {
		out.WriteString(r[0].Str())
		out.WriteByte('\n')
	}
	if !strings.Contains(out.String(), "workers=") {
		t.Errorf("EXPLAIN ANALYZE of a parallel join missing workers= rollup:\n%s", out.String())
	}

	// Beneath a fanned-out join or aggregation the workers' scans are
	// instrumented: their rows, summed over the workers, are big's 6000.
	mustExecSpill(t, s, `SET parallelism = 2`)
	for _, q := range []string{
		`SELECT b.k, o.v FROM big b JOIN other o ON b.v = o.v`,
		`SELECT k, count(*), sum(v) FROM big GROUP BY k`,
	} {
		ex, err := s.ExplainAnalyze(parseSelect(t, q))
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		var fanned *executor.OpStats
		ex.Stats.Walk(func(n *executor.OpStats) {
			if n.Workers > 0 && fanned == nil {
				fanned = n
			}
		})
		if fanned == nil || fanned.Workers != 2 {
			t.Fatalf("%q: no operator fanned out to 2 workers:\n%s", q, ex.AnalyzedTree)
		}
		if got := scanRows(fanned, "big"); got != 6000 {
			t.Errorf("%q: scans of big under the exchange produced %d rows, want 6000:\n%s", q, got, ex.AnalyzedTree)
		}
	}

	// A join whose probe side is below the fan-out floor runs serially, and
	// its scans are instrumented all the same.
	ex, err := s.ExplainAnalyze(parseSelect(t, `SELECT a.w, b.w FROM small a JOIN small b ON a.w = b.w`))
	if err != nil {
		t.Fatal(err)
	}
	ex.Stats.Walk(func(n *executor.OpStats) {
		if n.Workers != 0 {
			t.Errorf("small join: %T fanned out to %d workers", n.Op, n.Workers)
		}
	})
	if got := scanRows(ex.Stats, "small"); got != 80 {
		t.Errorf("serial-fallback join scans produced %d rows, want 2x40:\n%s", got, ex.AnalyzedTree)
	}
}

// scanRows sums the rows every scan of table produced in the stats subtree.
func scanRows(root *executor.OpStats, table string) int64 {
	var n int64
	root.Walk(func(st *executor.OpStats) {
		if sc, ok := st.Op.(*algebra.Scan); ok && sc.Table == table {
			n += st.Rows
		}
	})
	return n
}
