package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/dataspread/dataspread/client"
	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/sheet"
)

// wire-oltp: a tenant table well inside the buffer pool, served by a
// separate dataspreadd process with default flags, driven closed-loop by two
// synchronous client connections (nproc is 2 on the reference machine).
const (
	oltpRows    = 20000
	oltpConns   = 2
	oltpTenant  = "bench"
	oltpToken   = "bench-token"
	oltpSetups  = 3
	oltpRange   = 20 // rows per range read
	oltpNoteLen = 24
)

const (
	sqlAcctCreate = "CREATE TABLE acct (id INT PRIMARY KEY, owner INT, bal INT, note TEXT)"
	sqlAcctInsert = "INSERT INTO acct VALUES (?, ?, ?, ?)"
	sqlAcctPoint  = "SELECT id, owner, bal, note FROM acct WHERE id = ?"
	sqlAcctRange  = "SELECT id, bal FROM acct WHERE id BETWEEN ? AND ? ORDER BY id"
	sqlAcctUpdate = "UPDATE acct SET bal = ? WHERE id = ?"
	sqlAcctCheck  = "SELECT COUNT(*), SUM(bal) FROM acct"
)

// acctRow is one generated row of the tenant table.
type acctRow struct {
	id, owner, bal int64
	note           string
}

func (r acctRow) values() []sheet.Value {
	return []sheet.Value{sheet.Number(float64(r.id)), sheet.Number(float64(r.owner)),
		sheet.Number(float64(r.bal)), sheet.String_(r.note)}
}

// userBytes counts a row's payload: 8 bytes per number plus the text.
func (r acctRow) userBytes() int64 { return 24 + int64(len(r.note)) }

func genAcct(seed int64, n int) []acctRow {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]acctRow, n)
	for i := range rows {
		rows[i] = acctRow{id: int64(i), owner: int64(rng.Intn(1000)), bal: int64(rng.Intn(1_000_000)), note: randText(rng, oltpNoteLen)}
	}
	return rows
}

func randText(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// buildTenant writes the tenant's workbook file the way a bulk loader
// would: one transaction, then Close. Close does not checkpoint, so the
// daemon's first open of the tenant replays the load from the WAL.
func buildTenant(path string, rows []acctRow) error {
	ds, err := core.OpenFile(path, engineOptions())
	if err != nil {
		return err
	}
	err = loadTable(ds.NewConn(), sqlAcctCreate, sqlAcctInsert, acctValues(rows))
	return errors.Join(err, ds.Close())
}

// daemon is a running dataspreadd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startDaemon runs dataspreadd with default flags apart from its required
// deployment settings (listen address, data root, tenants) and waits until
// it reports its listen address.
func startDaemon(bin, dataDir string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no dataspreadd binary given (-daemon)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-tenants", oltpTenant+":"+oltpToken)
	// The daemon must not outlive the benchmark, even if the benchmark dies.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " on "); !sent && strings.Contains(line, "serving") && i >= 0 {
				addrCh <- strings.TrimSpace(line[i+4:])
				sent = true
				continue
			}
			fmt.Fprintf(os.Stderr, "perfbench: daemon: %s\n", line)
		}
		_, _ = io.Copy(io.Discard, stderr)
		d.done <- cmd.Wait()
	}()
	select {
	case d.addr = <-addrCh:
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("dataspreadd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-d.done
		return nil, errors.New("dataspreadd did not report its address within 30s")
	}
}

// stop sends SIGTERM (a graceful drain) and waits for the process to exit,
// killing it if the drain takes longer than 30 s.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("dataspreadd did not drain within 30s")
	}
}

// oltpConn is one client connection with its prepared statements and its
// model of the key stripe it alone writes (ids with id % oltpConns == idx).
type oltpConn struct {
	idx                        int
	c                          *client.Client
	point, rng, update, insert *client.Stmt
	own                        map[int64]int64 // id -> bal for every written id in the stripe
	inserted                   []int64
	read, query, write         samples
	readUS                     samples // read round trips in µs, for the wire gap
	attempted                  int64
	nextInsert                 int64
	mismatch                   error
	failures                   map[string]int64
	firstErr                   map[string]error
}

func (oc *oltpConn) failed(op string, err error) {
	oc.failures[op]++
	if oc.firstErr[op] == nil {
		oc.firstErr[op] = err
	}
}

func (oc *oltpConn) check(ok bool, format string, args ...any) {
	if !ok && oc.mismatch == nil {
		oc.mismatch = fmt.Errorf("conn %d: "+format, append([]any{oc.idx}, args...)...)
	}
}

// oltpSetup is one complete set-up: tenant file, daemon and connections.
type oltpSetup struct {
	dir   string
	d     *daemon
	conns []*oltpConn
}

func (s *oltpSetup) teardown() error {
	var errs []error
	for _, oc := range s.conns {
		errs = append(errs, oc.c.Close())
	}
	if s.d != nil {
		errs = append(errs, s.d.stop())
	}
	return errors.Join(errs...)
}

// setupOLTP builds the tenant, starts the daemon, makes the tenant's first
// dials and then dials the load connections.
//
// The first dials are oltpConns connections dialed at once against the
// unopened tenant, each pinged and closed. The first of them opens the
// tenant, which replays the loader's WAL; the others wait for it within the
// tenant pool's 2 s retry budget and fail when the replay outlasts it (a
// known defect, internal/server/tenants.go). Such a dial is counted as a
// failed "first-dial" operation and not retried. The load connections are
// dialed the same way, every set-up, whatever the first dials did; a load
// dial that fails is counted as "dial" and its connection sits the run out.
func setupOLTP(e *env, o *outcome, rows []acctRow, n int) (*oltpSetup, error) {
	s := &oltpSetup{dir: filepath.Join(e.dir, fmt.Sprintf("oltp-%d", n))}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	if err := buildTenant(filepath.Join(s.dir, oltpTenant+".ds"), rows); err != nil {
		return nil, fmt.Errorf("building tenant: %w", err)
	}
	d, err := startDaemon(e.daemon, s.dir)
	if err != nil {
		return nil, err
	}
	s.d = d
	for _, r := range dialAll(d.addr) {
		o.attempted++
		if r.err == nil {
			r.err = errors.Join(r.c.Ping(), r.c.Close())
		}
		if r.err != nil {
			o.fail("first-dial", r.err)
		}
	}
	for i, r := range dialAll(d.addr) {
		o.attempted++
		if r.err != nil {
			o.fail("dial", r.err)
			continue
		}
		oc := &oltpConn{idx: i, c: r.c, own: map[int64]int64{}, failures: map[string]int64{}, firstErr: map[string]error{}}
		for _, p := range []struct {
			dst **client.Stmt
			sql string
		}{{&oc.point, sqlAcctPoint}, {&oc.rng, sqlAcctRange}, {&oc.update, sqlAcctUpdate}, {&oc.insert, sqlAcctInsert}} {
			if *p.dst, err = r.c.Prepare(p.sql); err != nil {
				_ = r.c.Close()
				return s, fmt.Errorf("prepare %q: %w", p.sql, err)
			}
		}
		s.conns = append(s.conns, oc)
	}
	if len(s.conns) == 0 {
		return s, errors.New("no connection could be dialed")
	}
	return s, nil
}

type dialed struct {
	c   *client.Client
	err error
}

// dialAll dials oltpConns connections to the benchmark tenant at once.
func dialAll(addr string) []dialed {
	res := make([]dialed, oltpConns)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Config{Tenant: oltpTenant, Token: oltpToken})
			res[i] = dialed{c, err}
		}(i)
	}
	wg.Wait()
	return res
}

func runWireOLTP(e *env) (*outcome, error) {
	o := newOutcome()
	rows := genAcct(e.seed, oltpRows)
	var userBytes int64
	for _, r := range rows {
		userBytes += r.userBytes()
	}

	var setupTimes []float64
	var s *oltpSetup
	for i := 0; i < oltpSetups; i++ {
		settle()
		start := time.Now()
		var err error
		s, err = setupOLTP(e, o, rows, i)
		if err != nil {
			if s != nil {
				_ = s.teardown()
			}
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < oltpSetups-1 {
			if err := s.teardown(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(s.dir); err != nil {
				return nil, err
			}
		}
	}
	o.endToEnd["setup_s"] = metric{median(setupTimes), "s"}
	path := filepath.Join(s.dir, oltpTenant+".ds")

	settle()
	walMon := watchWAL(path + ".wal")
	rtBefore := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, oc := range s.conns {
		wg.Add(1)
		go func(oc *oltpConn) {
			defer wg.Done()
			oc.loop(e, rows, deadline)
		}(oc)
	}
	wg.Wait()
	phase := time.Since(start)
	rtAfter := readRuntime()
	walStats := walMon.stop()

	var read, query, write, readUS samples
	var ops int64
	finalBal := make([]int64, len(rows))
	for i, r := range rows {
		finalBal[i] = r.bal
	}
	wantRows := int64(len(rows))
	wantSum := int64(0)
	for _, oc := range s.conns {
		read = append(read, oc.read...)
		query = append(query, oc.query...)
		write = append(write, oc.write...)
		readUS = append(readUS, oc.readUS...)
		ops += oc.attempted
		o.attempted += oc.attempted
		for op, n := range oc.failures {
			o.failed += n
			o.failures[op] += n
			fmt.Fprintf(os.Stderr, "perfbench: %s failed %d times, first: %v\n", op, n, oc.firstErr[op])
		}
		o.check(oc.mismatch == nil, "%v", oc.mismatch)
		for id, bal := range oc.own {
			if id < int64(len(rows)) {
				finalBal[id] = bal
			} else {
				wantRows++
				wantSum += bal
			}
		}
		for _, id := range oc.inserted {
			userBytes += acctRow{id: id, note: insertNote(id)}.userBytes()
		}
	}
	for _, b := range finalBal {
		wantSum += b
	}
	o.info["ops_s"] = rate(len(read)+len(query)+len(write), phase)
	o.reportQuantiles("read", read, true)
	o.reportQuantiles("query", query, false)
	o.reportQuantiles("write", write, false)
	o.info["connections"] = len(s.conns)
	o.info["checkpoints_seen"] = walStats.truncations

	// The server's own per-statement timers, read through the STATS frame
	// before the connections close.
	srvStats, statsErr := s.conns[0].c.ServerStats()
	if err := s.teardown(); err != nil {
		return nil, err
	}
	if statsErr != nil {
		return nil, fmt.Errorf("server stats: %w", statsErr)
	}

	// Open the tenant's workbook in-process, as the daemon does on a cold
	// start, and check it holds exactly what the connections committed.
	want := []float64{float64(wantRows), float64(wantSum)}
	first, err := closeAndRecover(nil, path, o, sqlAcctCheck, want)
	if err != nil {
		return nil, err
	}
	o.endToEnd["space_amp"] = metric{first.spaceAmp(userBytes), "ratio"}
	o.info["table_rows"] = wantRows
	o.info["file_bytes_after_close"] = first.closed
	o.info["file_bytes"] = first.rest
	o.info["table_pages"] = first.pages
	o.info["user_bytes"] = userBytes
	reopen, err := reopenChecks(path, o, sqlAcctCheck, want)
	if err != nil {
		return nil, err
	}
	o.info["reopen_ms"] = reopen

	if e.tr != nil {
		tenant := tenantStats(srvStats)
		o.perLayer["server.read_p50_us"] = metric{tenant["read_p50_micros"], "us"}
		o.perLayer["server.read_p99_us"] = metric{tenant["read_p99_micros"], "us"}
		o.perLayer["server.write_p50_us"] = metric{tenant["write_p50_micros"], "us"}
		o.perLayer["server.write_p99_us"] = metric{tenant["write_p99_micros"], "us"}
		o.perLayer["server.admission_rejected"] = metric{tenant["admission_rejected"], "count"}
		o.perLayer["server.errors"] = metric{tenant["errors"], "count"}
		o.perLayer["wire.gap_p50_us"] = metric{readUS.quantile(0.5) - tenant["read_p50_micros"], "us"}
		o.perLayer["core.checkpoints"] = metric{float64(walStats.truncations), "count"}
		o.perLayer["core.replayed_cmds"] = metric{float64(first.replayed), "count"}
		o.perLayer["txn.wal_bytes_per_row"] = metric{ratio(float64(walStats.appended), float64(len(write))), "bytes"}
		o.reportRuntime(rtBefore, rtAfter, ops)
		p := probeSpec{
			path: path, table: "acct", keys: int64(len(rows)),
			point: sqlAcctPoint, rows: func(n int) [][]sheet.Value { return acctValues(rows[:n]) },
			queries: []probeQuery{{sqlAcctRange, []sheet.Value{sheet.Number(100), sheet.Number(100 + oltpRange - 1)}}},
			update:  "UPDATE acct SET bal = bal + 1 WHERE id = ?",
			texts:   []string{sqlAcctPoint, sqlAcctRange, sqlAcctUpdate, sqlAcctInsert},
			dbsql:   "SELECT bal FROM acct WHERE id = RANGEVALUE(A1)",
			sheet:   true, embeddedCounters: true,
		}
		if err := runProbes(e, o, p); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func acctValues(rows []acctRow) [][]sheet.Value {
	out := make([][]sheet.Value, len(rows))
	for i, r := range rows {
		out[i] = r.values()
	}
	return out
}

func insertNote(id int64) string { return fmt.Sprintf("ins-%012d", id) }

// loop is one connection's closed loop: 70% point reads, 10% range reads,
// 10% UPDATEs and 10% INSERTs, each sent only after the previous reply. Point
// and range reads of the connection's own stripe are checked against its
// model of its last writes; rows of the other stripe are checked for the
// columns nobody writes.
func (oc *oltpConn) loop(e *env, rows []acctRow, deadline time.Time) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(oc.idx) + 1))
	n := int64(len(rows))
	oc.nextInsert = n + int64(oc.idx)
	balOf := func(id int64) int64 {
		if b, ok := oc.own[id]; ok {
			return b
		}
		return rows[id].bal
	}
	for time.Now().Before(deadline) {
		oc.attempted++
		p := rng.Intn(100)
		switch {
		case p < 70:
			id := rng.Int63n(n)
			if len(oc.inserted) > 0 && rng.Intn(10) == 0 {
				id = oc.inserted[rng.Intn(len(oc.inserted))]
			}
			sp := e.tr.begin("client.Query.point", nil)
			t0 := time.Now()
			got, err := queryAll(ctx, oc.point, id)
			d := time.Since(t0)
			sp.end()
			if err != nil {
				oc.failed("point-read", err)
				continue
			}
			oc.read.add(d)
			oc.readUS = append(oc.readUS, float64(d)/1e3)
			oc.check(len(got) == 1, "point read of id %d returned %d rows", id, len(got))
			if len(got) != 1 {
				continue
			}
			r := got[0]
			if id < n {
				oc.check(num(r[1]) == rows[id].owner && r[3].Str == rows[id].note, "point read of id %d: owner/note differ", id)
			} else {
				oc.check(r[3].Str == insertNote(id), "point read of inserted id %d: note %q", id, r[3].Str)
			}
			if id%oltpConns == int64(oc.idx) {
				oc.check(num(r[2]) == balOf(id), "point read of own id %d: bal %v, last written %d", id, num(r[2]), balOf(id))
			}
		case p < 80:
			lo := rng.Int63n(n - oltpRange)
			sp := e.tr.begin("client.Query.range", nil)
			t0 := time.Now()
			got, err := queryAll(ctx, oc.rng, lo, lo+oltpRange-1)
			d := time.Since(t0)
			sp.end()
			if err != nil {
				oc.failed("range-read", err)
				continue
			}
			oc.query.add(d)
			oc.readUS = append(oc.readUS, float64(d)/1e3)
			oc.check(len(got) == oltpRange, "range read from %d returned %d rows", lo, len(got))
			for i, r := range got {
				id := lo + int64(i)
				oc.check(num(r[0]) == id, "range read from %d: row %d has id %v", lo, i, num(r[0]))
				if id%oltpConns == int64(oc.idx) {
					oc.check(num(r[1]) == balOf(id), "range read: own id %d bal %v, last written %d", id, num(r[1]), balOf(id))
				}
			}
		case p < 90:
			id := rng.Int63n(n/oltpConns)*oltpConns + int64(oc.idx)
			bal := int64(rng.Intn(1_000_000))
			sp := e.tr.begin("client.Exec.update", nil)
			t0 := time.Now()
			res, err := oc.update.Exec(ctx, bal, id)
			d := time.Since(t0)
			sp.end()
			if err != nil {
				oc.failed("update", err)
				continue
			}
			oc.write.add(d)
			oc.check(res.RowsAffected == 1, "update of id %d affected %d rows", id, res.RowsAffected)
			oc.own[id] = bal
		default:
			id := oc.nextInsert
			bal := int64(rng.Intn(1_000_000))
			sp := e.tr.begin("client.Exec.insert", nil)
			t0 := time.Now()
			_, err := oc.insert.Exec(ctx, id, int64(oc.idx), bal, insertNote(id))
			d := time.Since(t0)
			sp.end()
			if err != nil {
				oc.failed("insert", err)
				continue
			}
			oc.write.add(d)
			oc.own[id] = bal
			oc.inserted = append(oc.inserted, id)
			oc.nextInsert += oltpConns
		}
	}
}

// queryAll runs a prepared query and materialises its rows.
func queryAll(ctx context.Context, st *client.Stmt, args ...any) ([][]sheet.Value, error) {
	rs, err := st.Query(ctx, args...)
	if err != nil {
		return nil, err
	}
	var out [][]sheet.Value
	for rs.Next() {
		out = append(out, append([]sheet.Value(nil), rs.Values()...))
	}
	if err := rs.Err(); err != nil {
		_ = rs.Close()
		return nil, err
	}
	return out, rs.Close()
}

func num(v sheet.Value) int64 {
	f, _ := v.AsNumber()
	return int64(f)
}

// tenantStats extracts the benchmark tenant's counters from a STATS reply.
func tenantStats(st map[string]any) map[string]float64 {
	out := map[string]float64{}
	tenants, _ := st["tenants"].(map[string]any)
	t, _ := tenants[oltpTenant].(map[string]any)
	for k, v := range t {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// walWatch samples a WAL file's size while a phase runs. A drop in size is
// a checkpoint truncating the log; growth between samples is appended log.
type walWatch struct {
	stopCh chan struct{}
	done   chan walStats
}

type walStats struct {
	truncations int
	appended    int64
}

func watchWAL(path string) *walWatch {
	w := &walWatch{stopCh: make(chan struct{}), done: make(chan walStats, 1)}
	go func() {
		var st walStats
		size := func() int64 {
			fi, err := os.Stat(path)
			if err != nil {
				return 0
			}
			return fi.Size()
		}
		last := size()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopCh:
				if cur := size(); cur >= last {
					st.appended += cur - last
				}
				w.done <- st
				return
			case <-tick.C:
				cur := size()
				if cur < last {
					st.truncations++
					st.appended += cur
				} else {
					st.appended += cur - last
				}
				last = cur
			}
		}
	}()
	return w
}

func (w *walWatch) stop() walStats {
	close(w.stopCh)
	return <-w.done
}
