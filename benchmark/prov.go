package main

import (
	"context"
	"crypto/sha256"
	"database/sql"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"perm/internal/engine"
	psql "perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
	"perm/internal/workload"
)

// provClass is one of the paper's provenance query classes, with its
// provenance-free twin.
type provClass struct {
	name, prov, plain string
}

// provClasses are the query classes of the provenance workloads: the
// paper's SPJ, aggregation, union and nested classes, and SPJ written as a
// comma join (which today stays a cross join plus a filter).
var provClasses = []provClass{
	{"SPJ",
		`SELECT PROVENANCE m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`,
		`SELECT m.mid, m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid WHERE m.mid % 10 = 0`},
	{"AGG",
		`SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`,
		`SELECT count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text`},
	{"UNION",
		`SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM imports`,
		`SELECT mid, text FROM messages UNION SELECT mid, text FROM imports`},
	{"NESTED",
		`SELECT PROVENANCE mid, text FROM messages WHERE mid IN (SELECT mid FROM approved)`,
		`SELECT mid, text FROM messages WHERE mid IN (SELECT mid FROM approved)`},
	{"COMMA",
		`SELECT PROVENANCE m.mid, m.text, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid % 1000 = 0`,
		`SELECT m.mid, m.text, u.name FROM messages m, users u WHERE m.uid = u.uid AND m.mid % 1000 = 0`},
}

// forumWrite is one content-preserving write of prov_under_writes: delete a
// message and its approvals and insert them again, identical, in one
// transaction.
type forumWrite struct {
	mid       int64
	message   value.Row
	approvals []value.Row
}

// forumState is the generated forum data the writer and the checks need.
type forumState struct {
	messages  map[int64]value.Row
	approvals map[int64][]value.Row
	ref       map[string]digest
	lsn0      uint64
	mvcc0     storage.MVCCStatus
	acked     int64
}

// writeKeys is the writer's statement stream: which message the i-th
// write rewrites. It is a pure function of the seed.
func writeKeys(seed int64, messages int) func(i int) int64 {
	return func(i int) int64 {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		return int64(r.Intn(messages) + 1)
	}
}

func runProv(cfg config, writer bool) (*report, error) {
	name := wlProvAnalytic
	clients := 1
	if writer {
		name, clients = wlProvUnderWrites, 2
	}
	fc := workload.DefaultForum(cfg.sizes.Messages)
	fc.Seed = cfg.seed
	start := int(cfg.seed % int64(len(provClasses)))
	if start < 0 {
		start += len(provClasses)
	}
	keyOf := writeKeys(cfg.seed, cfg.sizes.Messages)
	fs := &forumState{}

	sp := &spec{name: name, clients: clients}
	sp.load = func(db *engine.DB) error { return workload.LoadForum(db, fc) }
	sp.inputHash = provInputHash(fc, start, keyOf, writer)
	sp.prepare = func(st *stack) error {
		fs.messages = map[int64]value.Row{}
		fs.approvals = map[int64][]value.Row{}
		for _, r := range st.db.Store().Table("messages").SnapshotAt(0) {
			fs.messages[r[0].I] = r
		}
		for _, r := range st.db.Store().Table("approved").SnapshotAt(0) {
			fs.approvals[r[1].I] = append(fs.approvals[r[1].I], r)
		}
		ref, err := provReference(st)
		if err != nil {
			return err
		}
		if cfg.corrupt {
			d := ref["AGG"]
			d.Sum++
			ref["AGG"] = d
		}
		fs.ref = ref
		fs.lsn0 = st.db.Store().Log().LastLSN()
		fs.mvcc0 = st.db.Store().MVCCStatus()
		return nil
	}
	sp.warm = func(conns []*sql.Conn) error {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		for _, pc := range provClasses {
			if _, err := queryDigest(ctx, conns[0], pc.prov); err != nil {
				return fmt.Errorf("%s: %w", pc.name, err)
			}
		}
		return nil
	}
	sp.loop = func(st *stack, conns []*sql.Conn, d time.Duration, tr *tracer, rep *report) *loopResult {
		end := time.Now().Add(d)
		res := newLoopResult()
		var wres *loopResult
		var wg sync.WaitGroup
		if writer {
			wres = newLoopResult()
			wg.Add(1)
			go func() {
				defer wg.Done()
				runWriter(conns[1], fs, keyOf, cfg.sizes.WriteRate, end, tr, rep, wres)
			}()
		}
		t0 := time.Now()
		for i := 0; time.Now().Before(end); i++ {
			pc := provClasses[(start+i)%len(provClasses)]
			rep.attempt()
			req := uint64(0)
			if tr != nil {
				req = tr.newID()
			}
			t := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			got, err := queryDigest(ctx, conns[0], pc.prov)
			cancel()
			t1 := time.Now()
			if tr != nil {
				tr.add(tr.newID(), 0, req, "driver.query", pc.name, t, t1)
			}
			if err != nil {
				rep.error("%s: %v", pc.name, err)
				continue
			}
			if want := fs.ref[pc.name]; got != want {
				rep.mismatch("%s: got %d rows sum %x, reference %d rows sum %x", pc.name, got.Rows, got.Sum, want.Rows, want.Sum)
				continue
			}
			res.lat[pc.name] = append(res.lat[pc.name], ms(t1.Sub(t)))
			res.ops++
			res.rows += got.Rows
		}
		res.elapsed = time.Since(t0)
		wg.Wait()
		if wres != nil {
			res.merge(wres)
		}
		return res
	}
	for _, pc := range provClasses {
		sp.templates = append(sp.templates, &template{
			class: pc.name, own: pc.prov, pair: pc.plain, ownIsProv: true,
			check: func(rows []value.Row) error {
				var d digest
				for _, r := range rows {
					d.addRow(r)
				}
				if want := fs.ref[pc.name]; d != want {
					return fmt.Errorf("got %d rows sum %x, reference %d rows sum %x", d.Rows, d.Sum, want.Rows, want.Sum)
				}
				return nil
			},
		})
	}
	sp.templates = append(sp.templates, forumWriteTemplate(fs, keyOf))
	sp.final = func(st *stack, rep *report) {
		if !writer {
			return
		}
		// The writes left the content unchanged, so the gate must also see
		// that they happened: the log advanced and versions were made.
		lsn := st.db.Store().Log().LastLSN()
		mv := st.db.Store().MVCCStatus()
		if fs.acked == 0 || lsn < fs.lsn0+uint64(fs.acked) {
			rep.mismatch("writer made %d writes but the LSN moved only %d -> %d", fs.acked, fs.lsn0, lsn)
		}
		if mv.VacuumRemoved == fs.mvcc0.VacuumRemoved && mv.Versions <= fs.mvcc0.Versions {
			rep.mismatch("no row versions were created or reclaimed (versions %d -> %d)", fs.mvcc0.Versions, mv.Versions)
		}
	}
	return runWorkload(cfg, sp)
}

// provReference computes each class's expected result digest on an
// embedded serial session.
func provReference(st *stack) (map[string]digest, error) {
	sess, err := st.session()
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	ref := map[string]digest{}
	for _, pc := range provClasses {
		res, err := sess.Execute(pc.prov)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", pc.name, err)
		}
		var d digest
		for _, r := range res.Rows {
			d.addRow(r)
		}
		ref[pc.name] = d
	}
	return ref, nil
}

// writeOf is the i-th write of the stream.
func (fs *forumState) writeOf(key int64) forumWrite {
	return forumWrite{mid: key, message: fs.messages[key], approvals: fs.approvals[key]}
}

// forumWriteSQL renders a write as its statements, with `?` arguments.
func forumWriteSQL(w forumWrite) (stmts []string, args [][]value.Value) {
	mid := value.NewInt(w.mid)
	stmts = append(stmts, "DELETE FROM messages WHERE mid = ?", "INSERT INTO messages VALUES (?, ?, ?)")
	args = append(args, []value.Value{mid}, w.message)
	if len(w.approvals) > 0 {
		stmts = append(stmts, "DELETE FROM approved WHERE mid = ?")
		args = append(args, []value.Value{mid})
		tuples := strings.TrimSuffix(strings.Repeat("(?, ?), ", len(w.approvals)), ", ")
		stmts = append(stmts, "INSERT INTO approved VALUES "+tuples)
		var a []value.Value
		for _, r := range w.approvals {
			a = append(a, r...)
		}
		args = append(args, a)
	}
	return stmts, args
}

// runWriter is prov_under_writes' open-loop writer: write i is due at
// start + i/rate whatever the server's speed, and is timed from then.
func runWriter(conn *sql.Conn, fs *forumState, keyOf func(int) int64, rate float64, end time.Time, tr *tracer, rep *report, res *loopResult) {
	start := time.Now()
	period := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		w := fs.writeOf(keyOf(i))
		rep.attempt()
		err := forumWriteTx(conn, w)
		done := time.Now()
		if tr != nil {
			tr.add(tr.newID(), 0, tr.newID(), "driver.write_txn", "WRITE", sent, done)
		}
		if err != nil {
			rep.error("write mid %d: %v", w.mid, err)
			continue
		}
		fs.acked++
		res.writeLat = append(res.writeLat, ms(done.Sub(due)))
		res.lateness = append(res.lateness, ms(sent.Sub(due)))
		res.userBytes += rowBytes(w.message)
		for _, r := range w.approvals {
			res.userBytes += rowBytes(r)
		}
	}
}

// forumWriteTx runs one write as a transaction over the driver and checks
// that it deleted exactly the rows it re-inserts.
func forumWriteTx(conn *sql.Conn, w forumWrite) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	tx, err := conn.BeginTx(ctx, nil)
	if err != nil {
		return err
	}
	stmts, args := forumWriteSQL(w)
	wantDeleted := []int64{1, 0, int64(len(w.approvals)), 0}
	for i, s := range stmts {
		a := make([]any, len(args[i]))
		for j, v := range args[i] {
			a[j] = driverValue(v)
		}
		r, err := tx.ExecContext(ctx, s, a...)
		if err == nil && strings.HasPrefix(s, "DELETE") {
			var n int64
			if n, err = r.RowsAffected(); err == nil && n != wantDeleted[i] {
				err = fmt.Errorf("%s deleted %d rows, want %d", s, n, wantDeleted[i])
			}
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

// forumWriteTemplate replays the writer's transaction layer by layer: parse
// each statement, analyze the WHERE clauses, then the storage transaction.
// prov_analytic replays it too, only in its traced run, so the storage,
// WAL and replication layers are measured on every workload; it leaves the
// data as it was.
func forumWriteTemplate(fs *forumState, keyOf func(int) int64) *template {
	key := func(i int) int64 { return keyOf(1_000_000 + i) }
	return &template{
		class: "WRITE",
		write: func(i int, lc *layerCtx, root, req uint64) ([]string, error) {
			w := fs.writeOf(key(i))
			stmts, args := forumWriteSQL(w)
			var preds []func(value.Row) (bool, error)
			for j, s := range stmts {
				stmt, err := lc.parse(root, req, literal(s, args[j]))
				if err != nil {
					return nil, err
				}
				if del, ok := stmt.(*psql.DeleteStmt); ok {
					pred, _, err := lc.compileWhere(root, req, del.Table, del.Where, nil)
					if err != nil {
						return nil, err
					}
					preds = append(preds, pred)
				}
			}
			err := lc.storage(root, req, func(store *storage.Store) error {
				x := store.Begin()
				msgs, appr := store.Table("messages"), store.Table("approved")
				if n, err := x.Delete(msgs, preds[0]); err != nil || n != 1 {
					x.Rollback()
					return fmt.Errorf("delete message %d: %d rows, %v", w.mid, n, err)
				}
				if _, err := x.Insert(msgs, []value.Row{w.message}); err != nil {
					x.Rollback()
					return err
				}
				if len(w.approvals) > 0 {
					if n, err := x.Delete(appr, preds[1]); err != nil || n != len(w.approvals) {
						x.Rollback()
						return fmt.Errorf("delete approvals of %d: %d rows, %v", w.mid, n, err)
					}
					if _, err := x.Insert(appr, w.approvals); err != nil {
						x.Rollback()
						return err
					}
				}
				return x.Commit()
			})
			return []string{"messages", "approved"}, err
		},
		embedded: func(i int, sess *engine.Session) error {
			w := fs.writeOf(key(i))
			stmts, args := forumWriteSQL(w)
			if _, err := sess.Execute("BEGIN"); err != nil {
				return err
			}
			for j, s := range stmts {
				if _, err := sess.Execute(literal(s, args[j])); err != nil {
					sess.Execute("ROLLBACK")
					return err
				}
			}
			_, err := sess.Execute("COMMIT")
			return err
		},
	}
}

// provInputHash fingerprints a provenance run's inputs: the forum
// generator's configuration, the reader's class order and the writer's
// first keys.
func provInputHash(fc workload.ForumConfig, start int, keyOf func(int) int64, writer bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|start=%d|writer=%v|", fc, start, writer)
	for _, pc := range provClasses {
		fmt.Fprintf(h, "%s|", pc.prov)
	}
	var b [8]byte
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(keyOf(i)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
