package main

import (
	"context"
	"database/sql"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"perm/internal/engine"
	"perm/internal/value"
)

// spec is what one workload contributes to the common run sequence.
type spec struct {
	name string
	// clients is how many connections the measured loop uses (at most 2).
	clients int
	load    func(db *engine.DB) error
	// prepare runs once on the final stack before anything is measured
	// (reference results, expected state); it is not part of setup_s.
	prepare func(st *stack) error
	// warm runs the warm-up statements on fresh client connections; it is
	// part of setup_s.
	warm func(conns []*sql.Conn) error
	// loop runs the measured workload for d. tr is nil in untraced loops.
	loop func(st *stack, conns []*sql.Conn, d time.Duration, tr *tracer, rep *report) *loopResult
	// templates are the statements the traced run replays layer by layer.
	templates []*template
	// final checks the end state; it runs after every load has stopped.
	final func(st *stack, rep *report)
	// inputHash fingerprints the generated data and statement stream.
	inputHash string
}

// loopResult is what a measured loop observed.
type loopResult struct {
	// lat holds per-class latencies in ms of the closed-loop clients.
	lat map[string][]float64
	// ops counts completed closed-loop operations.
	ops     int64
	elapsed time.Duration
	// rows counts result rows the clients received.
	rows int64
	// userBytes counts the bytes of row images the clients wrote.
	userBytes int64
	// writeLat holds an open-loop writer's latencies from each due time,
	// and lateness how late the generator sent each write (both ms).
	writeLat, lateness []float64
}

func newLoopResult() *loopResult { return &loopResult{lat: map[string][]float64{}} }

func (l *loopResult) merge(o *loopResult) {
	for c, xs := range o.lat {
		l.lat[c] = append(l.lat[c], xs...)
	}
	l.ops += o.ops
	l.rows += o.rows
	l.userBytes += o.userBytes
	l.writeLat = append(l.writeLat, o.writeLat...)
	l.lateness = append(l.lateness, o.lateness...)
}

// geomeanMS is the geometric mean of the per-class median latencies, so no
// single slow class swamps the others.
func (l *loopResult) geomeanMS() float64 {
	var meds []float64
	for _, xs := range l.lat {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

func (l *loopResult) opsPerS() float64 { return float64(l.ops) / l.elapsed.Seconds() }

func (l *loopResult) describe(rep *report, prefix string) {
	classes := make([]string, 0, len(l.lat))
	for c := range l.lat {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	var all []float64
	for _, c := range classes {
		rep.linef("%s%s", prefix, percentiles(c, l.lat[c]))
		all = append(all, l.lat[c]...)
	}
	rep.linef("%s%s", prefix, percentiles("all", all))
	if len(l.writeLat) > 0 {
		rep.linef("%s%s  (open-loop writer, timed from each due time)", prefix, percentiles("writer", l.writeLat))
		rep.linef("%swriter lateness: p50=%.3fms max=%.3fms", prefix, median(l.lateness), quantile(l.lateness, 1))
	}
	// The per-operation latencies by name, for the operations this workload
	// has: reads are point reads, or every provenance query; writes are
	// autocommit increments, or the open-loop writer's transactions.
	reads, writes := l.lat["READ"], l.lat["UPDATE"]
	if reads == nil {
		reads, writes = all, l.writeLat
	}
	for _, m := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"read_p50_ms", reads, 0.5}, {"read_p99_ms", reads, 0.99},
		{"write_p50_ms", writes, 0.5}, {"write_p95_ms", writes, 0.95},
		{"txn_p50_ms", l.lat["TXN"], 0.5}, {"txn_p95_ms", l.lat["TXN"], 0.95},
	} {
		switch {
		case len(m.xs) == 0:
		case m.q > 0.5 && float64(len(m.xs))*(1-m.q) < 10:
			rep.linef("%s%-13s n/a: %d samples leave fewer than 10 beyond it", prefix, m.name, len(m.xs))
		case m.q == 0.5:
			rep.linef("%s%-13s %.3f ms (n=%d)", prefix, m.name, median(m.xs), len(m.xs))
		default:
			rep.linef("%s%-13s %.3f ms (n=%d)", prefix, m.name, quantile(m.xs, m.q), len(m.xs))
		}
	}
}

// runWorkload is the run sequence every workload shares: build the stack
// (several times in an untraced run, for a steady setup_s), measure, and
// in a traced run measure again with spans and replay the statement
// templates layer by layer; then check the end state and tear down.
func runWorkload(cfg config, sp *spec) (*report, error) {
	rep := newReport(sp.name)
	rep.inputHash = sp.inputHash

	setups := cfg.sizes.Setups
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	var st *stack
	var pool *sql.DB
	var conns []*sql.Conn
	defer func() {
		closeConns(pool, conns)
		if st != nil {
			st.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if st != nil {
			closeConns(pool, conns)
			pool, conns = nil, nil
			if err := st.close(); err != nil {
				return nil, err
			}
			st = nil
		}
		t0 := time.Now()
		var err error
		if st, err = openStack(cfg.dir, sp.load); err != nil {
			return nil, err
		}
		if pool, conns, err = st.dial(sp.clients, false); err != nil {
			return nil, err
		}
		if err := sp.warm(conns); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.linef("setup: %d builds, median %.3fs; replica catch-up %.1fms", len(setupS), median(setupS), ms(st.catchup))
	if err := sp.prepare(st); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}

	if !cfg.trace {
		heap := startHeapSampler()
		res := sp.loop(st, conns, cfg.seconds, nil, rep)
		peak := heap.finish()
		res.describe(rep, "")
		rep.e2e["setup_s"] = metric{median(setupS), "s"}
		rep.e2e["ops_per_s"] = metric{res.opsPerS(), "1/s"}
		rep.e2e["query_geomean_ms"] = metric{res.geomeanMS(), "ms"}
		rep.e2e["peak_heap_mb"] = metric{peak, "MB"}
	} else {
		var err error
		pool, conns, err = traceRun(cfg, sp, st, pool, conns, rep)
		if err != nil {
			return nil, err
		}
	}
	closeConns(pool, conns)
	pool, conns = nil, nil
	if err := st.waitReplica(60 * time.Second); err != nil {
		return nil, err
	}
	sp.final(st, rep)
	checkReplica(st, rep)
	err := st.close()
	st = nil
	return rep, err
}

// checkReplica compares every table of the primary and the caught-up
// replica by digest.
func checkReplica(st *stack, rep *report) {
	for _, name := range st.db.Catalog().TableNames() {
		var p, r digest
		for _, row := range st.db.Store().Table(name).SnapshotAt(0) {
			p.addRow(row)
		}
		rt := st.replica.Store().Table(name)
		if rt == nil {
			rep.mismatch("replica lacks table %s", name)
			continue
		}
		for _, row := range rt.SnapshotAt(0) {
			r.addRow(row)
		}
		if p != r {
			rep.mismatch("replica table %s differs: primary %+v replica %+v", name, p, r)
		}
	}
}

// traceRun measures half the run untraced over direct connections and half
// traced over the byte-counting relay, then replays the templates layer by
// layer. It returns the connections still open for the caller to close.
func traceRun(cfg config, sp *spec, st *stack, pool *sql.DB, conns []*sql.Conn, rep *report) (*sql.DB, []*sql.Conn, error) {
	half := cfg.seconds / 2
	plain := sp.loop(st, conns, half, nil, rep)
	closeConns(pool, conns)
	pool, conns = nil, nil

	tr := newTracer()
	pool, conns, err := st.dial(sp.clients, true)
	if err != nil {
		return nil, nil, err
	}
	if err := sp.warm(conns); err != nil {
		return pool, conns, fmt.Errorf("warm-up: %w", err)
	}
	cache0, spill0, err := sessionCounters(conns)
	if err != nil {
		return pool, conns, err
	}
	mv0 := st.db.Store().MVCCStatus()
	wal0 := st.mgr.Status().WALBytes
	down0 := st.relay.down.Load()
	lsn0 := st.db.Store().Log().LastLSN()
	rc0 := readCounters()

	// Sample replica lag and version-chain length while the load runs.
	var lagMax uint64
	var vpsMax float64
	stopSample := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if l := st.lag(); l > lagMax {
				lagMax = l
			}
			if m := st.db.Store().MVCCStatus(); m.Slots > 0 {
				if v := float64(m.Versions) / float64(m.Slots); v > vpsMax {
					vpsMax = v
				}
			}
			select {
			case <-stopSample:
				return
			case <-t.C:
			}
		}
	}()
	traced := sp.loop(st, conns, cfg.seconds-half, tr, rep)
	close(stopSample)
	<-sampled

	rc1 := readCounters()
	down := st.relay.down.Load() - down0
	walBytes := st.mgr.Status().WALBytes - wal0
	mv1 := st.db.Store().MVCCStatus()
	cache1, spill1, err := sessionCounters(conns)
	if err != nil {
		return pool, conns, err
	}
	closeConns(pool, conns)
	pool, conns = nil, nil
	// The layer replays use a direct connection for the wire comparison.
	if pool, conns, err = st.dial(1, false); err != nil {
		return nil, nil, err
	}
	plain.describe(rep, "untraced half: ")
	traced.describe(rep, "traced half:   ")

	L := rep.layers
	L["trace.overhead_ms"] = metric{traced.geomeanMS() - plain.geomeanMS(), "ms"}
	L["trace.overhead_ops_per_s"] = metric{plain.opsPerS() - traced.opsPerS(), "1/s"}
	L["engine.plancache_hit_ratio"] = metric{ratio(cache1[0]-cache0[0], cache1[0]-cache0[0]+cache1[1]-cache0[1]), "ratio"}
	L["spill.bytes"] = metric{float64(spill1 - spill0), "B"}
	L["executor.gc_cpu_frac"] = metric{ratio(rc1.gcCPU-rc0.gcCPU, rc1.allCPU-rc0.allCPU), "ratio"}
	L["wire.bytes_per_row"] = metric{ratio(float64(down), float64(traced.rows)), "B"}
	L["wal.bytes_per_user_byte"] = metric{ratio(float64(walBytes), float64(traced.userBytes)), "ratio"}
	L["storage.vacuum_reclaimed"] = metric{float64(mv1.VacuumRemoved - mv0.VacuumRemoved), "count"}
	L["storage.write_conflicts"] = metric{float64(mv1.WriteConflicts - mv0.WriteConflicts), "count"}
	L["storage.versions_per_slot"] = metric{vpsMax, "ratio"}
	L["repl.lag_records_max"] = metric{float64(lagMax), "count"}
	L["repl.catchup_ms"] = metric{ms(st.catchup), "ms"}

	lay, err := replayLayers(cfg, sp, st, conns[0], tr, traced, rep)
	if err != nil {
		return pool, conns, err
	}
	for k, v := range lay {
		L[k] = v
	}
	L["wal.durable_wait_us"] = metric{median(st.dur.waitsUS()), "us"}
	applyUS, err := replayChangeLog(st, lsn0)
	if err != nil {
		return pool, conns, err
	}
	L["repl.apply_us_per_record"] = metric{applyUS, "us"}

	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.jsonl", sp.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return pool, conns, err
	}
	rep.linef("spans: %d written to %s", len(tr.spans), path)
	return pool, conns, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sessionCounters reads each connection's plan-cache hits and misses and
// its spill bytes through SHOW.
func sessionCounters(conns []*sql.Conn) ([2]float64, int64, error) {
	var cache [2]float64
	var spill int64
	for _, c := range conns {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		var hits, misses, entries int64
		err := c.QueryRowContext(ctx, "SHOW plan_cache_stats").Scan(&hits, &misses, &entries)
		if err == nil {
			var workMem, tracked, peak, files, bytes int64
			var dir string
			err = c.QueryRowContext(ctx, "SHOW memory_status").Scan(&workMem, &tracked, &peak, &files, &bytes, &dir)
			spill += bytes
		}
		cancel()
		if err != nil {
			return cache, 0, fmt.Errorf("session counters: %w", err)
		}
		cache[0] += float64(hits)
		cache[1] += float64(misses)
	}
	return cache, spill, nil
}

// queryDigest runs one query on a client connection and digests its rows.
func queryDigest(ctx context.Context, c *sql.Conn, text string, args ...any) (digest, error) {
	var d digest
	rows, err := c.QueryContext(ctx, text, args...)
	if err != nil {
		return d, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return d, err
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return d, err
		}
		d.add(vals)
	}
	return d, rows.Err()
}

// rowBytes is the user-data size of a row image: 8 bytes per number, the
// length of each string.
func rowBytes(row []value.Value) int64 {
	var n int64
	for _, v := range row {
		if v.K == value.KindString {
			n += int64(len(v.S))
		} else {
			n += 8
		}
	}
	return n
}

// literal substitutes args for the `?` placeholders of text, for the
// statements EXPLAIN ANALYZE and the literal replays need.
func literal(text string, args []value.Value) string {
	var b strings.Builder
	for _, a := range args {
		i := strings.IndexByte(text, '?')
		if i < 0 {
			break
		}
		b.WriteString(text[:i])
		b.WriteString(a.SQLLiteral())
		text = text[i+1:]
	}
	b.WriteString(text)
	return b.String()
}
