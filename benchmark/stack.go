package main

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	_ "perm/driver"
	"perm/internal/engine"
	"perm/internal/server"
	"perm/internal/storage"
	"perm/internal/wal"
)

// Settings pinned for every server and session the benchmark starts, so a
// change of an engine default cannot move a number.
const (
	pinParallelism = 1
	pinWorkMem     = 64 << 20
	pinWALSync     = "always"
	pinVacuumEvery = time.Second
)

// sessionSettings are issued on every client connection.
var sessionSettings = []string{
	fmt.Sprintf("SET parallelism = %d", pinParallelism),
	fmt.Sprintf("SET work_mem = %d", pinWorkMem),
	"SET plan_cache = 'on'",
}

// opTimeout bounds every client operation; a timeout is a failure.
const opTimeout = 30 * time.Second

// stack is one complete system under test: a WAL-backed primary served over
// loopback TCP, background vacuum, and one asynchronous replica following it.
type stack struct {
	dir      string
	mgr      *wal.Manager
	db       *engine.DB
	dur      *timedDurability
	srv      *server.Server
	addr     string
	served   chan error
	replica  *engine.DB
	follower *server.Follower
	stopVac  []func()
	relay    *relay
	// catchup is how long the replica took from its start to the primary's
	// last LSN.
	catchup time.Duration
}

// openStack builds a stack in a fresh directory under parent and fills the
// primary with load before the server accepts connections.
func openStack(parent string, load func(db *engine.DB) error) (st *stack, err error) {
	dir, err := os.MkdirTemp(parent, "stack-")
	if err != nil {
		return nil, fmt.Errorf("create stack dir: %w", err)
	}
	st = &stack{dir: dir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	store, mgr, _, err := wal.Open(filepath.Join(dir, "data"), wal.Options{Sync: pinWALSync})
	if err != nil {
		return st, fmt.Errorf("open wal: %w", err)
	}
	st.mgr = mgr
	st.dur = &timedDurability{inner: store.Durability()}
	store.SetDurability(st.dur)
	st.db = engine.NewDBFrom(store)
	st.db.SetWALController(server.WALController(mgr))
	if err := load(st.db); err != nil {
		return st, fmt.Errorf("load: %w", err)
	}
	spillDir := filepath.Join(dir, "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		return st, fmt.Errorf("create spill dir: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, fmt.Errorf("listen: %w", err)
	}
	st.addr = ln.Addr().String()
	st.srv = server.New(st.db, server.Config{
		Parallelism: pinParallelism,
		WorkMem:     pinWorkMem,
		TempDir:     spillDir,
		Logf:        func(string, ...any) {},
	})
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.stopVac = append(st.stopVac, st.db.StartVacuum(pinVacuumEvery))

	t0 := time.Now()
	st.replica = engine.NewDB()
	st.stopVac = append(st.stopVac, st.replica.StartVacuum(pinVacuumEvery))
	st.follower = server.StartFollower(st.replica, server.FollowerConfig{
		PrimaryAddr: st.addr,
		RetryMin:    20 * time.Millisecond,
		Logf:        func(string, ...any) {},
	})
	if err := st.waitReplica(60 * time.Second); err != nil {
		return st, err
	}
	st.catchup = time.Since(t0)
	return st, nil
}

// lag is how many change records the replica is behind the primary.
func (st *stack) lag() uint64 {
	primary := st.db.Store().Log().LastLSN()
	applied := st.follower.Status().AppliedLSN
	if applied >= primary {
		return 0
	}
	return primary - applied
}

// waitReplica waits until the replica has applied every record the primary
// has logged so far.
func (st *stack) waitReplica(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for st.lag() > 0 {
		if time.Now().After(deadline) {
			s := st.follower.Status()
			return fmt.Errorf("replica stuck at LSN %d of %d (%s)", s.AppliedLSN, st.db.Store().Log().LastLSN(), s.LastError)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// dial opens a pool of n dedicated client connections with the pinned
// settings, through the byte-counting relay when one is running.
func (st *stack) dial(n int, viaRelay bool) (*sql.DB, []*sql.Conn, error) {
	addr := st.addr
	if viaRelay {
		if st.relay == nil {
			r, err := startRelay(st.addr)
			if err != nil {
				return nil, nil, err
			}
			st.relay = r
		}
		addr = st.relay.addr
	}
	pool, err := sql.Open("perm", "tcp://"+addr)
	if err != nil {
		return nil, nil, fmt.Errorf("open pool: %w", err)
	}
	pool.SetMaxOpenConns(n)
	pool.SetMaxIdleConns(n)
	conns := make([]*sql.Conn, 0, n)
	fail := func(err error) (*sql.DB, []*sql.Conn, error) {
		closeConns(pool, conns)
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		c, err := pool.Conn(ctx)
		if err == nil {
			conns = append(conns, c)
			for _, set := range sessionSettings {
				if _, err = c.ExecContext(ctx, set); err != nil {
					err = fmt.Errorf("%s: %w", set, err)
					break
				}
			}
		}
		cancel()
		if err != nil {
			return fail(fmt.Errorf("client connection: %w", err))
		}
	}
	return pool, conns, nil
}

// session opens an embedded session on the primary with the pinned
// settings, spilling into the stack's directory.
func (st *stack) session() (*engine.Session, error) {
	sess := st.db.NewSession()
	sess.SetTempDir(filepath.Join(st.dir, "spill"))
	for _, set := range sessionSettings {
		if _, err := sess.Execute(set); err != nil {
			sess.Close()
			return nil, fmt.Errorf("%s: %w", set, err)
		}
	}
	return sess, nil
}

func closeConns(pool *sql.DB, conns []*sql.Conn) {
	for _, c := range conns {
		c.Close()
	}
	if pool != nil {
		pool.Close()
	}
}

// close tears the stack down and removes its directory. It waits for every
// goroutine it started that has a way to be waited for.
func (st *stack) close() error {
	var errs []error
	if st.follower != nil {
		st.follower.Stop()
	}
	if st.relay != nil {
		st.relay.close()
	}
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := st.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
		cancel()
		if err := <-st.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
	}
	for _, stop := range st.stopVac {
		stop()
	}
	if st.mgr != nil {
		if err := st.mgr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close wal: %w", err))
		}
	}
	if err := os.RemoveAll(st.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// timedDurability wraps the WAL's durability gate and times every wait for
// an fsync, so the benchmark sees the wal layer's share of each write without
// instrumenting the program.
type timedDurability struct {
	inner storage.Durability
	mu    sync.Mutex
	waits []float64 // microseconds
	// tr and parent, when set by a quiesced replay, attach each wait as a
	// child span of the storage call that triggered it.
	tr     atomic.Pointer[tracer]
	parent atomic.Uint64
	req    atomic.Uint64
}

func (d *timedDurability) WaitDurable(lsn uint64) error {
	t0 := time.Now()
	err := d.inner.WaitDurable(lsn)
	t1 := time.Now()
	d.mu.Lock()
	d.waits = append(d.waits, us(t1.Sub(t0)))
	d.mu.Unlock()
	if tr := d.tr.Load(); tr != nil {
		tr.record("wal.durable_wait", d.parent.Load(), d.req.Load(), t0, t1)
	}
	return err
}

func (d *timedDurability) Err() error { return d.inner.Err() }

func (d *timedDurability) waitsUS() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.waits...)
}

// relay is a loopback TCP relay between the clients and the server that
// counts the bytes the server sends; only traced runs use it.
type relay struct {
	ln     net.Listener
	addr   string
	target string
	down   atomic.Int64 // server -> client bytes
	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  []net.Conn
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{ln: ln, addr: ln.Addr().String(), target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, s)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(s, c, nil)
		go r.pipe(c, s, &r.down)
	}
}

// pipe copies src to dst until either side closes, then closes both.
func (r *relay) pipe(dst, src net.Conn, count *atomic.Int64) {
	defer r.wg.Done()
	var w io.Writer = dst
	if count != nil {
		w = countingWriter{dst, count}
	}
	_, _ = io.Copy(w, src) // either side closing ends the relay; nothing to report
	dst.Close()
	src.Close()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
