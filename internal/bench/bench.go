// Package bench implements the experiment harness that regenerates every
// figure of the paper and the performance-shaped experiments E5–E8. Each
// experiment returns a Table that cmd/permbench prints; PERFORMANCE.md
// records the measured numbers, and benchmark/README.md describes the
// end-to-end wire-path benchmark.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"perm/internal/engine"
	"perm/internal/workload"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned ASCII.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 3
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// newPipelineSession opens a session with the plan cache disabled, so every
// repetition of an experiment query pays the full parse/analyze/rewrite/plan
// pipeline. The experiments E5-E8 contrast exactly those stages (rewrite
// scope, strategy choice), which a cache hit would silently exclude; cached
// steady-state behavior is measured separately by BenchmarkPlanCacheHit.
func newPipelineSession(db *engine.DB) (*engine.Session, error) {
	s := db.NewSession()
	if _, err := s.Execute("SET plan_cache = 'off'"); err != nil {
		return nil, err
	}
	return s, nil
}

// timeQuery runs a query reps times and returns the median wall time.
func timeQuery(s *engine.Session, query string, reps int) (time.Duration, error) {
	if reps < 1 {
		reps = 1
	}
	times := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := s.Execute(query); err != nil {
			return 0, fmt.Errorf("%v\nquery: %s", err, query)
		}
		times = append(times, time.Since(t0))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

func ratio(prov, plain time.Duration) string {
	if plain <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(prov)/float64(plain))
}

// queryClass pairs a plain query with its provenance variant.
type queryClass struct {
	name  string
	plain string
	prov  string
}

func classes() []queryClass {
	return []queryClass{
		{
			name:  "SPJ",
			plain: `SELECT m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`,
			prov:  `SELECT PROVENANCE m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`,
		},
		{
			name:  "AGG",
			plain: `SELECT count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`,
			prov:  `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`,
		},
		{
			name:  "UNION",
			plain: `SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`,
			prov:  `SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`,
		},
		{
			name:  "NESTED",
			plain: `SELECT mid, text FROM messages WHERE mid IN (SELECT mid FROM approved)`,
			prov:  `SELECT PROVENANCE mid, text FROM messages WHERE mid IN (SELECT mid FROM approved)`,
		},
	}
}

// RunOverhead is E5: provenance computation overhead per query class across
// dataset sizes — the demo's core performance claim that rewritten queries
// stay ordinary relational queries with moderate overhead for SPJ and larger
// (output-proportional) overhead for aggregation and set operations.
func RunOverhead(sizes []int, reps int) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Provenance overhead by query class (median ms, provenance/plain)",
		Headers: []string{"class", "rows", "plain ms", "prov ms", "overhead"},
		Notes: []string{
			"provenance result width/cardinality grows with witnesses; overhead is expected >1x and largest for AGG",
		},
	}
	for _, n := range sizes {
		db := engine.NewDB()
		if err := workload.LoadForum(db, workload.DefaultForum(n)); err != nil {
			return nil, err
		}
		s, err := newPipelineSession(db)
		if err != nil {
			return nil, err
		}
		for _, qc := range classes() {
			plain, err := timeQuery(s, qc.plain, reps)
			if err != nil {
				return nil, err
			}
			prov, err := timeQuery(s, qc.prov, reps)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				qc.name, fmt.Sprintf("%d", n), ms(plain), ms(prov), ratio(prov, plain),
			})
		}
	}
	return t, nil
}

// RunStrategies is E6: the rewrite-strategy ablation (§2.2 "heuristic and a
// cost-based solution for choosing the best rewrite strategy").
func RunStrategies(n, reps int) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Rewrite strategy ablation (median ms)",
		Headers: []string{"operator", "strategy", "ms"},
		Notes: []string{
			"pad vs join for UNION; joingroup vs crossfilter for aggregation; equivalent results, different cost",
		},
	}
	db := engine.NewDB()
	if err := workload.LoadForum(db, workload.DefaultForum(n)); err != nil {
		return nil, err
	}
	unionQ := `SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`
	aggQ := `SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`

	run := func(setting, val, query, label, strat string) error {
		s, err := newPipelineSession(db)
		if err != nil {
			return err
		}
		if _, err := s.Execute(fmt.Sprintf("SET %s = '%s'", setting, val)); err != nil {
			return err
		}
		d, err := timeQuery(s, query, reps)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{label, strat, ms(d)})
		return nil
	}
	if err := run("provenance_set_strategy", "pad", unionQ, "UNION", "SetPad (heuristic default)"); err != nil {
		return nil, err
	}
	if err := run("provenance_set_strategy", "join", unionQ, "UNION", "SetJoin"); err != nil {
		return nil, err
	}
	if err := run("provenance_agg_strategy", "joingroup", aggQ, "AGG", "AggJoinGroup (heuristic default)"); err != nil {
		return nil, err
	}
	if err := run("provenance_agg_strategy", "crossfilter", aggQ, "AGG", "AggCrossFilter"); err != nil {
		return nil, err
	}
	// Cost-based mode for reference.
	s, err := newPipelineSession(db)
	if err != nil {
		return nil, err
	}
	if _, err := s.Execute("SET provenance_strategy = 'cost'"); err != nil {
		return nil, err
	}
	d, err := timeQuery(s, aggQ, reps)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"AGG", "cost-based choice", ms(d)})
	return t, nil
}

// RunLazyEager is E7: lazy (recompute per use) vs eager (materialize once
// with CREATE TABLE AS SELECT PROVENANCE, then query the stored provenance).
func RunLazyEager(n, uses, reps int) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   fmt.Sprintf("Lazy vs eager provenance over %d re-uses", uses),
		Headers: []string{"mode", "setup ms", "per-use ms", fmt.Sprintf("total ms (%d uses)", uses)},
		Notes: []string{
			"eager pays materialization once; lazy re-runs the rewritten query per use — eager wins once uses exceed the break-even",
		},
	}
	db := engine.NewDB()
	if err := workload.LoadForum(db, workload.DefaultForum(n)); err != nil {
		return nil, err
	}
	s, err := newPipelineSession(db)
	if err != nil {
		return nil, err
	}

	lazyQ := `SELECT text, prov_public_imports_origin
		FROM (SELECT PROVENANCE count(*), text
		      FROM v1 JOIN approved a ON v1.mid = a.mid
		      GROUP BY v1.mid, text) AS p
		WHERE count > 1 AND prov_public_imports_origin IS NOT NULL`
	lazyPerUse, err := timeQuery(s, lazyQ, reps)
	if err != nil {
		return nil, err
	}
	lazyTotal := time.Duration(uses) * lazyPerUse
	t.Rows = append(t.Rows, []string{"lazy", "0", ms(lazyPerUse), ms(lazyTotal)})

	t0 := time.Now()
	if _, err := s.Execute(`CREATE TABLE provmat AS
		SELECT PROVENANCE count(*), text
		FROM v1 JOIN approved a ON v1.mid = a.mid
		GROUP BY v1.mid, text`); err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	eagerQ := `SELECT text, prov_public_imports_origin FROM provmat
		WHERE count > 1 AND prov_public_imports_origin IS NOT NULL`
	eagerPerUse, err := timeQuery(s, eagerQ, reps)
	if err != nil {
		return nil, err
	}
	eagerTotal := setup + time.Duration(uses)*eagerPerUse
	t.Rows = append(t.Rows, []string{"eager", ms(setup), ms(eagerPerUse), ms(eagerTotal)})

	if lazyPerUse > eagerPerUse {
		breakEven := float64(setup) / float64(lazyPerUse-eagerPerUse)
		t.Notes = append(t.Notes, fmt.Sprintf("break-even at ~%.1f uses", breakEven))
	}
	return t, nil
}

// RunIncremental is E8: full rewrite vs BASERELATION (stop the rewrite at a
// view) vs external provenance (query a pre-materialized provenance table
// through PROVENANCE (attrs)).
func RunIncremental(n, reps int) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Incremental provenance: full vs BASERELATION vs external",
		Headers: []string{"mode", "ms", "prov columns"},
		Notes: []string{
			"BASERELATION stops the rewrite at the view; external reuses stored provenance without rewriting the view at all",
		},
	}
	db := engine.NewDB()
	if err := workload.LoadForum(db, workload.DefaultForum(n)); err != nil {
		return nil, err
	}
	s, err := newPipelineSession(db)
	if err != nil {
		return nil, err
	}
	if _, err := s.Execute(`CREATE VIEW v2 AS
		SELECT v1.mid AS mid, text, count(*) AS cnt
		FROM v1 JOIN approved a ON v1.mid = a.mid
		GROUP BY v1.mid, text`); err != nil {
		return nil, err
	}

	measure := func(mode, q string) error {
		d, err := timeQuery(s, q, reps)
		if err != nil {
			return err
		}
		res, err := s.Execute(q)
		if err != nil {
			return err
		}
		provCols := 0
		for _, c := range res.Schema {
			if c.IsProv {
				provCols++
			}
		}
		t.Rows = append(t.Rows, []string{mode, ms(d), fmt.Sprintf("%d", provCols)})
		return nil
	}

	if err := measure("full rewrite",
		`SELECT PROVENANCE mid, cnt FROM v2 WHERE cnt > 1`); err != nil {
		return nil, err
	}
	if err := measure("BASERELATION",
		`SELECT PROVENANCE mid, cnt FROM v2 BASERELATION WHERE cnt > 1`); err != nil {
		return nil, err
	}
	// External: materialize v2's provenance once, then declare the stored
	// provenance columns with PROVENANCE (attrs).
	if _, err := s.Execute(`CREATE TABLE v2prov AS SELECT PROVENANCE mid, text, cnt FROM v2`); err != nil {
		return nil, err
	}
	ext := `SELECT PROVENANCE mid, cnt FROM v2prov PROVENANCE (` + strings.Join(provColumnList(db, "v2prov"), ", ") + `) WHERE cnt > 1`
	if err := measure("external provenance", ext); err != nil {
		return nil, err
	}
	return t, nil
}

// provColumnList lists the prov_* columns of a stored table.
func provColumnList(db *engine.DB, table string) []string {
	def := db.Catalog().Table(table)
	var out []string
	for _, c := range def.Columns {
		if strings.HasPrefix(c.Name, "prov_") {
			out = append(out, c.Name)
		}
	}
	return out
}

// RunAll executes every experiment at the given base size.
func RunAll(sizes []int, reps int) ([]*Table, error) {
	var out []*Table
	t5, err := RunOverhead(sizes, reps)
	if err != nil {
		return nil, fmt.Errorf("E5: %v", err)
	}
	out = append(out, t5)
	n := sizes[len(sizes)-1]
	t6, err := RunStrategies(n, reps)
	if err != nil {
		return nil, fmt.Errorf("E6: %v", err)
	}
	out = append(out, t6)
	t7, err := RunLazyEager(n, 20, reps)
	if err != nil {
		return nil, fmt.Errorf("E7: %v", err)
	}
	out = append(out, t7)
	t8, err := RunIncremental(n, reps)
	if err != nil {
		return nil, fmt.Errorf("E8: %v", err)
	}
	out = append(out, t8)
	return out, nil
}
