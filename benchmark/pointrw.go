package main

import (
	"context"
	"crypto/sha256"
	"database/sql"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"perm/internal/catalog"
	"perm/internal/engine"
	psql "perm/internal/sql"
	"perm/internal/storage"
	"perm/internal/value"
)

const (
	pointRead     = "SELECT id, bal, owner FROM accounts WHERE id = ?"
	pointReadProv = "SELECT PROVENANCE id, bal, owner FROM accounts WHERE id = ?"
	pointUpdate   = "UPDATE accounts SET bal = bal + 1 WHERE id = ?"
	transferOut   = "UPDATE accounts SET bal = bal - 1 WHERE id = ?"
	transferIn    = "UPDATE accounts SET bal = bal + 1 WHERE id = ?"
)

// rwOp is one operation of point_rw's stream: a point read (70%), an
// autocommit increment (20%) or a two-row transfer transaction (10%).
type rwOp struct {
	class string
	a, b  int64
}

// rwStream generates one client's operations. Client c owns the ids with
// id % 2 == (c+1) % 2, so the two clients never write the same row: no
// operation can fail on a write conflict, and every read can be checked
// against the exact balance its own client expects.
type rwStream struct {
	rng  *rand.Rand
	c    int
	half int
}

func newRWStream(seed int64, client, accounts int) *rwStream {
	return &rwStream{rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)), c: client, half: accounts / 2}
}

func (s *rwStream) key() int64 { return int64(2*s.rng.Intn(s.half) + 1 + s.c) }

func (s *rwStream) next() rwOp {
	r := s.rng.Float64()
	switch {
	case r < 0.7:
		return rwOp{class: "READ", a: s.key()}
	case r < 0.9:
		return rwOp{class: "UPDATE", a: s.key()}
	}
	a, b := s.key(), s.key()
	for b == a {
		b = s.key()
	}
	return rwOp{class: "TXN", a: a, b: b}
}

// accountsData is point_rw's generated table and the state the checks
// expect.
type accountsData struct {
	owner []string
	bal   []int64 // expected balance by id; each client touches its own ids
	total int64
	acked atomic.Int64 // acknowledged +1 increments
}

func genAccounts(seed int64, n int) *accountsData {
	r := rand.New(rand.NewSource(seed))
	d := &accountsData{owner: make([]string, n+1), bal: make([]int64, n+1)}
	for id := 1; id <= n; id++ {
		d.bal[id] = int64(1000 + r.Intn(9000))
		d.owner[id] = fmt.Sprintf("owner-%08x", r.Uint32())
		d.total += d.bal[id]
	}
	return d
}

func (d *accountsData) row(id int64) value.Row {
	return value.Row{value.NewInt(id), value.NewInt(d.bal[id]), value.NewString(d.owner[id])}
}

func runPointRW(cfg config) (*report, error) {
	n := cfg.sizes.Accounts
	var data *accountsData
	sp := &spec{name: wlPointRW, clients: 2}
	sp.inputHash = rwInputHash(cfg.seed, n)
	sp.load = func(db *engine.DB) error {
		data = genAccounts(cfg.seed, n)
		store := db.Store()
		t, err := store.CreateTable(&catalog.TableDef{Name: "accounts", Columns: []catalog.Column{
			{Name: "id", Type: value.KindInt}, {Name: "bal", Type: value.KindInt}, {Name: "owner", Type: value.KindString}}})
		if err != nil {
			return err
		}
		const batch = 10000
		for lo := 1; lo <= n; lo += batch {
			rows := make([]value.Row, 0, batch)
			for id := lo; id < lo+batch && id <= n; id++ {
				rows = append(rows, data.row(int64(id)))
			}
			if _, err := t.InsertBatch(rows); err != nil {
				return err
			}
		}
		return store.Analyze("accounts")
	}
	sp.prepare = func(st *stack) error {
		if cfg.corrupt {
			data.bal[1]++
		}
		return nil
	}
	sp.warm = func(conns []*sql.Conn) error {
		for c, conn := range conns {
			if err := checkRead(conn, data, int64(1+c)); err != nil {
				return err
			}
		}
		return nil
	}
	streams := []*rwStream{newRWStream(cfg.seed, 0, n), newRWStream(cfg.seed, 1, n)}
	sp.loop = func(st *stack, conns []*sql.Conn, d time.Duration, tr *tracer, rep *report) *loopResult {
		end := time.Now().Add(d)
		results := make([]*loopResult, len(conns))
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := range conns {
			results[c] = newLoopResult()
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				res := results[c]
				for time.Now().Before(end) {
					op := streams[c].next()
					rep.attempt()
					t := time.Now()
					err := runRWOp(conns[c], data, op, res)
					t1 := time.Now()
					if tr != nil {
						tr.add(tr.newID(), 0, tr.newID(), "driver."+op.class, op.class, t, t1)
					}
					if err != nil {
						if _, bad := err.(mismatchError); bad {
							rep.mismatch("%s %d: %v", op.class, op.a, err)
						} else {
							rep.error("%s %d: %v", op.class, op.a, err)
						}
						continue
					}
					res.lat[op.class] = append(res.lat[op.class], ms(t1.Sub(t)))
					res.ops++
				}
			}(c)
		}
		wg.Wait()
		out := newLoopResult()
		out.elapsed = time.Since(t0)
		for _, r := range results {
			out.merge(r)
		}
		return out
	}
	// The traced run's replays use client 0's ids, after its loop stopped.
	layered := newRWStream(cfg.seed+1, 0, n)
	sp.templates = []*template{
		{
			class: "READ", own: pointRead, pair: pointReadProv,
			args: func() []value.Value { return []value.Value{value.NewInt(layered.key())} },
			check: func(rows []value.Row) error {
				if len(rows) != 1 {
					return fmt.Errorf("%d rows", len(rows))
				}
				id := rows[0][0].I
				if rows[0][1].I != data.bal[id] || rows[0][2].S != data.owner[id] {
					return fmt.Errorf("id %d: got %v, want bal %d owner %s", id, rows[0], data.bal[id], data.owner[id])
				}
				return nil
			},
		},
		{
			class: "UPDATE",
			write: func(i int, lc *layerCtx, root, req uint64) ([]string, error) {
				k := layered.key()
				err := layeredTransfer(lc, root, req, []string{pointUpdate}, []int64{k})
				if err == nil {
					data.bal[k]++
					data.acked.Add(1)
				}
				return []string{"accounts"}, err
			},
			embedded: func(i int, sess *engine.Session) error {
				k := layered.key()
				if _, err := sess.Execute(literal(pointUpdate, []value.Value{value.NewInt(k)})); err != nil {
					return err
				}
				data.bal[k]++
				data.acked.Add(1)
				return nil
			},
		},
		{
			class: "TXN",
			write: func(i int, lc *layerCtx, root, req uint64) ([]string, error) {
				a, b := layered.key(), layered.key()
				for b == a {
					b = layered.key()
				}
				err := layeredTransfer(lc, root, req, []string{transferOut, transferIn}, []int64{a, b})
				if err == nil {
					data.bal[a]--
					data.bal[b]++
				}
				return []string{"accounts"}, err
			},
			embedded: func(i int, sess *engine.Session) error {
				a, b := layered.key(), layered.key()
				for b == a {
					b = layered.key()
				}
				for _, s := range []string{"BEGIN",
					literal(transferOut, []value.Value{value.NewInt(a)}),
					literal(transferIn, []value.Value{value.NewInt(b)}), "COMMIT"} {
					if _, err := sess.Execute(s); err != nil {
						sess.Execute("ROLLBACK")
						return err
					}
				}
				data.bal[a]--
				data.bal[b]++
				return nil
			},
		},
	}
	sp.final = func(st *stack, rep *report) {
		var total int64
		wrong := 0
		for _, r := range st.db.Store().Table("accounts").SnapshotAt(0) {
			total += r[1].I
			if id := r[0].I; id < 1 || id > int64(n) || r[1].I != data.bal[id] {
				wrong++
			}
		}
		if want := data.total + data.acked.Load(); total != want {
			rep.mismatch("total balance %d, want initial %d + %d acknowledged increments", total, data.total, data.acked.Load())
		}
		if wrong > 0 {
			rep.mismatch("%d accounts differ from their expected balance", wrong)
		}
	}
	return runWorkload(cfg, sp)
}

// mismatchError is a wrong answer, as opposed to an error the system
// returned.
type mismatchError struct{ msg string }

func (e mismatchError) Error() string { return e.msg }

func checkRead(conn *sql.Conn, data *accountsData, id int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var gotID, bal int64
	var owner string
	if err := conn.QueryRowContext(ctx, pointRead, id).Scan(&gotID, &bal, &owner); err != nil {
		return err
	}
	if gotID != id || bal != data.bal[id] || owner != data.owner[id] {
		return mismatchError{fmt.Sprintf("read id %d: got (%d, %d, %s), want bal %d owner %s", id, gotID, bal, owner, data.bal[id], data.owner[id])}
	}
	return nil
}

// runRWOp runs one operation over the driver and checks its answer.
func runRWOp(conn *sql.Conn, data *accountsData, op rwOp, res *loopResult) error {
	switch op.class {
	case "READ":
		if err := checkRead(conn, data, op.a); err != nil {
			return err
		}
		res.rows++
		return nil
	case "UPDATE":
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		r, err := conn.ExecContext(ctx, pointUpdate, op.a)
		if err != nil {
			return err
		}
		if n, err := r.RowsAffected(); err != nil || n != 1 {
			return mismatchError{fmt.Sprintf("update affected %d rows (%v)", n, err)}
		}
		data.bal[op.a]++
		data.acked.Add(1)
		res.userBytes += rowBytes(data.row(op.a))
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	tx, err := conn.BeginTx(ctx, nil)
	if err != nil {
		return err
	}
	for _, s := range []struct {
		text string
		id   int64
	}{{transferOut, op.a}, {transferIn, op.b}} {
		r, err := tx.ExecContext(ctx, s.text, s.id)
		if err == nil {
			var n int64
			if n, err = r.RowsAffected(); err == nil && n != 1 {
				err = mismatchError{fmt.Sprintf("transfer update affected %d rows", n)}
			}
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	data.bal[op.a]--
	data.bal[op.b]++
	res.userBytes += rowBytes(data.row(op.a)) + rowBytes(data.row(op.b))
	return nil
}

// layeredTransfer replays balance updates layer by layer: parse, analyze
// and compile each UPDATE, then apply them in one storage call — an
// autocommit Table.Update for one statement, a transaction for several.
func layeredTransfer(lc *layerCtx, root, req uint64, stmts []string, ids []int64) error {
	type upd struct {
		pred  func(value.Row) (bool, error)
		apply func(value.Row) (value.Row, error)
	}
	var ups []upd
	for i, s := range stmts {
		stmt, err := lc.parse(root, req, literal(s, []value.Value{value.NewInt(ids[i])}))
		if err != nil {
			return err
		}
		up := stmt.(*psql.UpdateStmt)
		pred, apply, err := lc.compileWhere(root, req, up.Table, up.Where, up.Sets)
		if err != nil {
			return err
		}
		ups = append(ups, upd{pred, apply})
	}
	return lc.storage(root, req, func(store *storage.Store) error {
		t := store.Table("accounts")
		if len(ups) == 1 {
			n, err := t.Update(ups[0].pred, ups[0].apply)
			if err == nil && n != 1 {
				err = fmt.Errorf("update affected %d rows", n)
			}
			return err
		}
		x := store.Begin()
		for _, u := range ups {
			if n, err := x.Update(t, u.pred, u.apply); err != nil || n != 1 {
				x.Rollback()
				return fmt.Errorf("transfer update affected %d rows: %v", n, err)
			}
		}
		return x.Commit()
	})
}

// rwInputHash fingerprints point_rw's inputs: the generated table and the
// first operations of each client's stream.
func rwInputHash(seed int64, n int) string {
	h := sha256.New()
	d := genAccounts(seed, n)
	var b [8]byte
	for id := 1; id <= n; id++ {
		binary.LittleEndian.PutUint64(b[:], uint64(d.bal[id]))
		h.Write(b[:])
		h.Write([]byte(d.owner[id]))
	}
	for c := 0; c < 2; c++ {
		s := newRWStream(seed, c, n)
		for i := 0; i < 4096; i++ {
			op := s.next()
			fmt.Fprintf(h, "%s:%d:%d|", op.class, op.a, op.b)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
