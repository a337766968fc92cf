package main

import (
	"context"
	"database/sql"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"perm/internal/algebra"
	"perm/internal/analyzer"
	"perm/internal/core"
	"perm/internal/engine"
	"perm/internal/executor"
	"perm/internal/planner"
	psql "perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

// template is one statement shape of a workload, replayed by the traced run
// through each module's public entry point in turn.
type template struct {
	class string
	// own is the SQL the workload's clients send; pair is its twin with
	// PROVENANCE toggled ("" = none), replayed for core.prov_overhead_x.
	own, pair string
	ownIsProv bool
	// args gives the bound arguments of the next replay (nil = none).
	args func() []value.Value
	// check validates the rows of a replay of own.
	check func(rows []value.Row) error
	// write, for write templates, replays the i-th write layer by layer
	// and returns the tables it wrote; embedded runs the same write through
	// an embedded session.
	write    func(i int, lc *layerCtx, root, req uint64) ([]string, error)
	embedded func(i int, sess *engine.Session) error
}

// layerCtx is the traced run's handle on the primary's modules.
type layerCtx struct {
	st *stack
	tr *tracer
}

// parse times sql.Parse.
func (lc *layerCtx) parse(root, req uint64, text string) (psql.Statement, error) {
	t := time.Now()
	stmt, err := psql.Parse(text)
	lc.tr.record("sql.parse", root, req, t, time.Now())
	return stmt, err
}

// compileWhere resolves and compiles a DELETE/UPDATE WHERE clause and the
// SET expressions of an UPDATE, as the engine does, in one analyzer span.
func (lc *layerCtx) compileWhere(root, req uint64, table string, where psql.Expr, sets []psql.UpdateSet) (
	func(value.Row) (bool, error), func(value.Row) (value.Row, error), error) {
	t := time.Now()
	defer func() { lc.tr.record("analyzer.analyze", root, req, t, time.Now()) }()
	store := lc.st.db.Store()
	def := store.Table(table).Def()
	sch := make(algebra.Schema, len(def.Columns))
	for i, c := range def.Columns {
		sch[i] = algebra.Column{Name: c.Name, Table: def.Name, Type: c.Type}
	}
	an := analyzer.New(store.Catalog())
	cond, err := an.AnalyzeExpr(where, sch)
	if err != nil {
		return nil, nil, err
	}
	ctx := executor.NewContext(store)
	p := executor.CompilePredicate(cond)
	pred := func(row value.Row) (bool, error) { return p(row, ctx) }
	type setter struct {
		idx  int
		expr func(value.Row, *executor.Context) (value.Value, error)
	}
	var setters []setter
	for _, s := range sets {
		e, err := an.AnalyzeExpr(s.Expr, sch)
		if err != nil {
			return nil, nil, err
		}
		setters = append(setters, setter{def.ColumnIndex(s.Column), executor.CompileExpr(e)})
	}
	apply := func(row value.Row) (value.Row, error) {
		out := row.Clone()
		for _, s := range setters {
			v, err := s.expr(row, ctx)
			if err != nil {
				return nil, err
			}
			out[s.idx] = v
		}
		return out, nil
	}
	return pred, apply, nil
}

// storage times one storage-layer write; the WAL waits it triggers become
// its child spans, so its self time is the storage share alone.
func (lc *layerCtx) storage(root, req uint64, fn func(store *storage.Store) error) error {
	id := lc.tr.newID()
	lc.st.dur.parent.Store(id)
	lc.st.dur.req.Store(req)
	lc.st.dur.tr.Store(lc.tr)
	t := time.Now()
	err := fn(lc.st.db.Store())
	t1 := time.Now()
	lc.st.dur.tr.Store(nil)
	lc.tr.add(id, root, req, "storage.write", "", t, t1)
	return err
}

// snapshot times Table.SnapshotAt on each table, as the next reader after
// a write pays it.
func (lc *layerCtx) snapshot(root, req uint64, tables []string) {
	for _, name := range tables {
		t := time.Now()
		lc.st.db.Store().Table(name).SnapshotAt(0)
		lc.tr.record("storage.snapshot", root, req, t, time.Now())
	}
}

// read replays one SELECT through parse, analyze (with the rewriter as a
// child span), optimize, executor open and drain, and returns its rows and
// the bytes allocated while executing it.
func (lc *layerCtx) read(class, text string, args []value.Value) ([]value.Row, float64, error) {
	tr := lc.tr
	req, root := tr.newID(), tr.newID()
	t0 := time.Now()
	defer func() { tr.add(root, 0, req, "request", class, t0, time.Now()) }()
	stmt, err := lc.parse(root, req, text)
	if err != nil {
		return nil, 0, err
	}
	sel, ok := stmt.(*psql.SelectStmt)
	if !ok {
		return nil, 0, fmt.Errorf("%s: not a SELECT", class)
	}
	store := lc.st.db.Store()
	an := analyzer.New(store.Catalog())
	for _, a := range args {
		an.Params = append(an.Params, a.K)
	}
	aid := tr.newID()
	an.Rewrite = func(pr analyzer.ProvRequest) (algebra.Op, error) {
		t := time.Now()
		out, err := core.NewRewriter(core.DefaultOptions()).Rewrite(pr.Input)
		tr.record("core.rewrite", aid, req, t, time.Now())
		return out, err
	}
	t := time.Now()
	plan, err := an.AnalyzeSelect(sel)
	tr.add(aid, root, req, "analyzer.analyze", "", t, time.Now())
	if err != nil {
		return nil, 0, err
	}
	t = time.Now()
	plan = planner.New(store.Catalog()).Optimize(plan)
	tr.record("planner.optimize", root, req, t, time.Now())

	// The same memory budget as the sessions, so the replay spills where
	// the server does.
	ctx := executor.NewContext(store)
	ctx.Mem = executor.NewMemTracker(pinWorkMem, filepath.Join(lc.st.dir, "spill"))
	defer ctx.Mem.Cleanup()
	snap := store.PinSnapshot()
	ctx.SnapLSN = snap
	ctx.SetUnpin(func() { store.UnpinSnapshot(snap) })
	defer ctx.Release()
	ctx.Params = args
	c0 := readCounters()
	t = time.Now()
	stream, err := executor.Open(ctx, plan)
	tr.record("executor.open", root, req, t, time.Now())
	if err != nil {
		return nil, 0, err
	}
	defer stream.Close()
	t = time.Now()
	rows, err := stream.Drain()
	tr.record("executor.drain", root, req, t, time.Now())
	return rows, readCounters().allocBytes - c0.allocBytes, err
}

// replayLayers replays every template layer by layer, through an embedded
// session and through the driver, with no other load running, and derives
// the per-layer metrics from the spans.
func replayLayers(cfg config, sp *spec, st *stack, conn *sql.Conn, tr *tracer, traced *loopResult, rep *report) (map[string]metric, error) {
	lc := &layerCtx{st: st, tr: tr}
	cached, err := st.session()
	if err != nil {
		return nil, err
	}
	defer cached.Close()
	uncached, err := st.session()
	if err != nil {
		return nil, err
	}
	defer uncached.Close()
	if _, err := uncached.Execute("SET plan_cache = 'off'"); err != nil {
		return nil, err
	}

	engineUS := map[string][]float64{} // embedded, plan cache off
	cachedUS := map[string][]float64{} // embedded, plan cache on
	pairUS := map[string][]float64{}
	wireUS := map[string][]float64{}
	var allocBytes, allocRows float64
	var qerrs, scanRatios, overheads []float64

	timeIt := func(dst map[string][]float64, class string, fn func() error) error {
		t := time.Now()
		err := fn()
		dst[class] = append(dst[class], us(time.Since(t)))
		return err
	}
	for _, t := range sp.templates {
		if t.write != nil {
			for i := 0; i < cfg.sizes.LayerReps; i++ {
				req, root := tr.newID(), tr.newID()
				t0 := time.Now()
				tables, err := t.write(i, lc, root, req)
				t1 := time.Now()
				if err != nil {
					return nil, fmt.Errorf("%s layered write: %w", t.class, err)
				}
				lc.snapshot(root, req, tables)
				tr.add(root, 0, req, "request", t.class, t0, t1)
				if err := timeIt(engineUS, t.class, func() error { return t.embedded(i, uncached) }); err != nil {
					return nil, fmt.Errorf("%s embedded write: %w", t.class, err)
				}
			}
			continue
		}
		// Replay slow classes less often so the traced run stays bounded.
		reps := cfg.sizes.LayerReps
		if m := median(traced.lat[t.class]); m > 0 {
			reps = min(reps, max(3, int(2000/m)))
		}
		for i := 0; i < reps; i++ {
			var args []value.Value
			var anyArgs []any
			if t.args != nil {
				args = t.args()
				for _, a := range args {
					anyArgs = append(anyArgs, driverValue(a))
				}
			}
			rows, alloc, err := lc.read(t.class, t.own, args)
			if err != nil {
				return nil, fmt.Errorf("%s layered read: %w", t.class, err)
			}
			if err := t.check(rows); err != nil {
				rep.mismatch("%s layered replay: %v", t.class, err)
			}
			allocBytes += alloc
			allocRows += float64(len(rows))
			if t.pair != "" {
				if _, _, err := lc.read(t.class+"/pair", t.pair, args); err != nil {
					return nil, fmt.Errorf("%s layered pair: %w", t.class, err)
				}
				if err := timeIt(pairUS, t.class, func() error { return drainEmbedded(cached, t.pair, args) }); err != nil {
					return nil, err
				}
			}
			if err := timeIt(engineUS, t.class, func() error { return drainEmbedded(uncached, t.own, args) }); err != nil {
				return nil, err
			}
			if err := timeIt(cachedUS, t.class, func() error { return drainEmbedded(cached, t.own, args) }); err != nil {
				return nil, err
			}
			if err := timeIt(wireUS, t.class, func() error {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				defer cancel()
				_, err := queryDigest(ctx, conn, t.own, anyArgs...)
				return err
			}); err != nil {
				return nil, err
			}
		}
		if t.pair != "" {
			prov, plain := median(cachedUS[t.class]), median(pairUS[t.class])
			if !t.ownIsProv {
				prov, plain = plain, prov
			}
			overheads = append(overheads, prov/plain)
		}
		q, scan, err := explainAnalyze(cached, st.db, literal(t.own, argsOf(t)))
		if err != nil {
			return nil, fmt.Errorf("%s explain analyze: %w", t.class, err)
		}
		qerrs = append(qerrs, q...)
		scanRatios = append(scanRatios, scan)
	}

	self := tr.selfUS()
	// layer averages, over the workload's own classes, each class's median
	// self time in the layer; pair replays count only for the rewriter.
	layer := func(name string, withPairs bool) float64 {
		var meds []float64
		for class, xs := range self[name] {
			if class == "" || (!withPairs && strings.HasSuffix(class, "/pair")) {
				continue
			}
			meds = append(meds, median(xs))
		}
		return mean(meds)
	}
	diff := func(a, b map[string][]float64) float64 {
		var ds []float64
		for class, xs := range a {
			if ys, ok := b[class]; ok {
				ds = append(ds, median(xs)-median(ys))
			}
		}
		return mean(ds)
	}
	requestUS := map[string][]float64{}
	for class := range engineUS {
		requestUS[class] = requestDurations(tr, class)
	}
	out := map[string]metric{
		"sql.parse_us":                      {layer("sql.parse", false), "us"},
		"analyzer.analyze_us":               {layer("analyzer.analyze", false), "us"},
		"planner.optimize_us":               {layer("planner.optimize", false), "us"},
		"core.rewrite_us":                   {layer("core.rewrite", true), "us"},
		"core.prov_overhead_x":              {geomean(overheads), "x"},
		"planner.est_rows_err":              {geomean(qerrs), "x"},
		"executor.rows_scanned_per_row_out": {mean(scanRatios), "ratio"},
		"executor.open_us":                  {layer("executor.open", false), "us"},
		"executor.drain_us":                 {layer("executor.drain", false), "us"},
		"executor.alloc_bytes_per_row":      {ratio(allocBytes, allocRows), "B"},
		"engine.unattributed_us":            {diff(engineUS, requestUS), "us"},
		"storage.snapshot_us":               {layer("storage.snapshot", false), "us"},
		"storage.commit_us":                 {layer("storage.write", false), "us"},
		"wire.roundtrip_overhead_us":        {diff(wireUS, cachedUS), "us"},
	}
	return out, nil
}

// requestDurations lists the wall time of every replayed request of class.
func requestDurations(tr *tracer, class string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == "request" && s.Class == class {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func argsOf(t *template) []value.Value {
	if t.args == nil {
		return nil
	}
	return t.args()
}

// drainEmbedded runs a query on an embedded session and drains it.
func drainEmbedded(sess *engine.Session, text string, args []value.Value) error {
	var rows *engine.Rows
	var err error
	if len(args) == 0 {
		rows, err = sess.Query(text)
	} else {
		var p *engine.Prepared
		if p, err = sess.Prepare(text); err == nil {
			rows, err = p.Query(args...)
		}
	}
	if err != nil {
		return err
	}
	defer rows.Close()
	for {
		row, err := rows.Next()
		if err != nil {
			return err
		}
		if row == nil {
			return nil
		}
	}
}

// explainAnalyze runs EXPLAIN ANALYZE and returns each operator's q-error
// (estimated against actual rows per open, whichever is larger over the
// smaller, both floored at one row) and the rows scanned per row returned.
func explainAnalyze(sess *engine.Session, db *engine.DB, text string) ([]float64, float64, error) {
	stmt, err := psql.Parse(text)
	if err != nil {
		return nil, 0, err
	}
	sel, ok := stmt.(*psql.SelectStmt)
	if !ok {
		return nil, 0, fmt.Errorf("not a SELECT")
	}
	ex, err := sess.ExplainAnalyze(sel)
	if err != nil {
		return nil, 0, err
	}
	pl := planner.New(db.Catalog())
	var qerrs []float64
	var scanned float64
	var walk func(s *executor.OpStats)
	walk = func(s *executor.OpStats) {
		if s.Op != nil {
			est := math.Max(pl.EstimateRows(s.Op), 1)
			act := math.Max(float64(s.Rows)/math.Max(float64(s.Opens), 1), 1)
			qerrs = append(qerrs, math.Max(est, act)/math.Min(est, act))
			if _, ok := s.Op.(*algebra.Scan); ok {
				scanned += float64(s.Rows)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(ex.Stats)
	return qerrs, scanned / math.Max(float64(ex.RowCount), 1), nil
}

// replayChangeLog replays the primary's change log onto a fresh store
// through Store.ApplyChange, as a replica applies it, and returns the mean
// apply time of the records logged after fromLSN (at most maxTimedRecords
// of them; earlier records only rebuild the state they apply to).
func replayChangeLog(st *stack, fromLSN uint64) (float64, error) {
	const maxTimedRecords = 200
	recs, ok := st.db.Store().Log().Since(0, 0)
	if !ok {
		return 0, fmt.Errorf("change log trimmed before the replay")
	}
	fresh := storage.NewStore()
	var timed []float64
	for _, r := range recs {
		t := time.Now()
		if err := fresh.ApplyChange(r); err != nil {
			return 0, fmt.Errorf("apply LSN %d: %w", r.LSN, err)
		}
		if r.LSN > fromLSN {
			timed = append(timed, us(time.Since(t)))
			if len(timed) == maxTimedRecords {
				break
			}
		}
	}
	return mean(timed), nil
}
