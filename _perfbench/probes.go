package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/dataspread/dataspread/client"
	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/interfacemgr"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/sqlexec"
	"github.com/dataspread/dataspread/internal/sqlparser"
	"github.com/dataspread/dataspread/internal/storage/pager"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The traced run of every workload ends with layer probes: the benchmark
// calls each layer's public functions directly on a copy of the workload's
// own file and generated rows, and times those calls. A per-layer metric a
// workload already measured on its own run is left as it is; the probes fill
// in the rest, so every workload reports every per-layer metric.

type probeQuery struct {
	sql  string
	args []sheet.Value
}

type probeSpec struct {
	path    string // the workload's closed workbook file
	table   string // its main table, keyed 0..keys-1
	keys    int64
	point   string // prepared PK lookup with one placeholder
	rows    func(n int) [][]sheet.Value
	queries []probeQuery // the workload's non-point reads
	update  string       // single-row UPDATE with one key placeholder
	texts   []string     // statement texts the workload sends
	dbsql   string       // a DBSQL formula body reading RANGEVALUE(A1)
	// sheet and wire select the spreadsheet and network probes, for
	// workloads that do not exercise those layers themselves.
	sheet, wire bool
	// embeddedCounters takes the pager, tablestore and plan-cache counters
	// from the probe, for a workload whose engine runs in another process.
	embeddedCounters bool
}

const (
	probePoints  = 2000
	probeQueryN  = 20
	probeCommits = 200
	probeInserts = 5000
	probeParses  = 200
	probeScrolls = 300
	probeEdits   = 100
)

func setIfAbsent(m map[string]metric, name string, v metric) {
	if _, ok := m[name]; !ok {
		m[name] = v
	}
}

// dbCounters is a snapshot of the embedded engine's own counters.
type dbCounters struct {
	pagesRead, pagesSkipped int64
	pool, store             pager.Stats
	plans                   sqlexec.PlanCacheStats
	walSize                 int64
}

func readCounters(ds *core.DataSpread) dbCounters {
	db := ds.DB()
	var c dbCounters
	c.pagesRead, c.pagesSkipped = db.ScanStats()
	c.pool = db.Pool().Stats()
	c.store = db.PagerStats()
	c.plans = db.PlanCacheStats()
	if w := ds.WAL(); w != nil {
		c.walSize = w.LogSize()
	}
	return c
}

// counterDelta accumulates counter differences over one or more phases.
type counterDelta struct {
	pagesRead, pagesSkipped int64
	hits, misses            uint64
	reads, writes           uint64
	planHits, planMisses    uint64
}

func (d *counterDelta) add(before, after dbCounters) {
	d.pagesRead += after.pagesRead - before.pagesRead
	d.pagesSkipped += after.pagesSkipped - before.pagesSkipped
	d.hits += after.pool.Hits - before.pool.Hits
	d.misses += after.pool.Misses - before.pool.Misses
	d.reads += after.store.Reads - before.store.Reads
	d.writes += after.store.Writes - before.store.Writes
	d.planHits += after.plans.Hits - before.plans.Hits
	d.planMisses += after.plans.Misses - before.plans.Misses
}

// report stores the counter-based per-layer metrics (only those not yet
// set).
func (d counterDelta) report(o *outcome) {
	m := o.perLayer
	setIfAbsent(m, "tablestore.pages_read", metric{float64(d.pagesRead), "count"})
	setIfAbsent(m, "tablestore.pages_skipped", metric{float64(d.pagesSkipped), "count"})
	setIfAbsent(m, "tablestore.skip_ratio", metric{ratio(float64(d.pagesSkipped), float64(d.pagesRead+d.pagesSkipped)), "ratio"})
	setIfAbsent(m, "pager.hit_ratio", metric{ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio"})
	setIfAbsent(m, "pager.reads", metric{float64(d.reads), "count"})
	setIfAbsent(m, "pager.writes", metric{float64(d.writes), "count"})
	setIfAbsent(m, "sqlexec.plan_cache_hit_ratio", metric{ratio(float64(d.planHits), float64(d.planHits+d.planMisses)), "ratio"})
}

func runProbes(e *env, o *outcome, p probeSpec) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(e.seed*31 + 7))
	copyPath := filepath.Join(e.dir, "probe", "probe.ds")
	if err := copyWorkbook(p.path, copyPath); err != nil {
		return fmt.Errorf("probe copy: %w", err)
	}
	sp := e.tr.begin("probe.OpenFile", nil)
	ds, err := core.OpenFile(copyPath, engineOptions())
	sp.end()
	if err != nil {
		return fmt.Errorf("probe open: %w", err)
	}
	defer func() {
		if ds != nil {
			_ = ds.Close()
		}
	}()
	setIfAbsent(o.perLayer, "core.replayed_cmds", metric{float64(ds.ReplayedCommands()), "count"})
	conn := ds.NewConn()

	// sqlexec: prepared point lookups and the workload's other reads.
	before := readCounters(ds)
	pt, err := conn.Prepare(p.point)
	if err != nil {
		return err
	}
	var pointUS samples
	rt0 := readRuntime()
	for i := 0; i < probePoints; i++ {
		key := sheet.Number(float64(rng.Int63n(p.keys)))
		sp := e.tr.begin("sqlexec.ExecutePrepared.point", nil)
		t0 := time.Now()
		res, err := conn.ExecutePrepared(ctx, pt, key)
		pointUS = append(pointUS, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return fmt.Errorf("probe point lookup: %w", err)
		}
		o.check(len(res.Rows) == 1, "probe point lookup of %v returned %d rows", key, len(res.Rows))
	}
	rt1 := readRuntime()
	setIfAbsent(o.perLayer, "sqlexec.point_us", metric{pointUS.quantile(0.5), "us"})
	setIfAbsent(o.perLayer, "sqlexec.point_alloc_bytes", metric{(rt1.alloc - rt0.alloc) / probePoints, "bytes"})

	var queryMS samples
	for _, q := range p.queries {
		for i := 0; i < probeQueryN; i++ {
			sp := e.tr.begin("sqlexec.QueryContext.query", nil)
			t0 := time.Now()
			_, err := conn.QueryContext(ctx, q.sql, q.args...)
			queryMS.add(time.Since(t0))
			sp.end()
			if err != nil {
				return fmt.Errorf("probe query %q: %w", q.sql, err)
			}
		}
	}
	setIfAbsent(o.perLayer, "sqlexec.query_ms", metric{queryMS.quantile(0.5), "ms"})
	if p.embeddedCounters {
		var d counterDelta
		d.add(before, readCounters(ds))
		d.report(o)
	}

	// txn: explicit single-row transactions, timing the COMMIT.
	upd, err := conn.Prepare(p.update)
	if err != nil {
		return err
	}
	before = readCounters(ds)
	var commitUS samples
	for i := 0; i < probeCommits; i++ {
		if _, err := conn.QueryContext(ctx, "BEGIN"); err != nil {
			return err
		}
		if _, err := conn.ExecutePrepared(ctx, upd, sheet.Number(float64(rng.Int63n(p.keys)))); err != nil {
			return err
		}
		sp := e.tr.begin("txn.Commit", nil)
		t0 := time.Now()
		_, err := conn.QueryContext(ctx, "COMMIT")
		commitUS = append(commitUS, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return fmt.Errorf("probe commit: %w", err)
		}
	}
	setIfAbsent(o.perLayer, "txn.commit_us", metric{commitUS.quantile(0.5), "us"})
	walAppended := max(readCounters(ds).walSize-before.walSize, 0)

	// core: an explicit checkpoint of everything above.
	sp = e.tr.begin("core.Checkpoint", nil)
	t0 := time.Now()
	err = ds.Checkpoint()
	ckpt := time.Since(t0)
	sp.end()
	if err != nil {
		return fmt.Errorf("probe checkpoint: %w", err)
	}
	setIfAbsent(o.perLayer, "core.checkpoint_ms", metric{float64(ckpt) / 1e6, "ms"})
	if p.embeddedCounters {
		// Each committed UPDATE changes one 8-byte value.
		after := readCounters(ds)
		written := float64(after.store.Writes-before.store.Writes)*pager.PageSize + float64(walAppended)
		setIfAbsent(o.perLayer, "pager.write_amp", metric{written / (8 * probeCommits), "ratio"})
	}

	if p.sheet {
		if err := sheetProbe(e, o, ds, p, rng); err != nil {
			return err
		}
	}
	err = ds.Close()
	ds = nil
	if err != nil {
		return err
	}

	if err := insertProbe(e, o, p); err != nil {
		return err
	}
	parseProbe(e, o, p.texts)
	if p.wire {
		if err := wireProbe(e, o, p, rng); err != nil {
			return err
		}
	}
	setIfAbsent(o.perLayer, "trace.spans", metric{float64(e.tr.count()), "count"})
	return nil
}

// insertProbe times HybridStore.Insert, the table store's row append, on
// the workload's own rows in a fresh in-memory store of the default pool
// size.
func insertProbe(e *env, o *outcome, p probeSpec) error {
	rows := p.rows(probeInserts)
	st := tablestore.NewHybridStore(pager.NewBufferPool(pager.NewStore(), poolPages), len(rows[0]))
	var us samples
	rt0 := readRuntime()
	for _, r := range rows {
		sp := e.tr.begin("tablestore.Insert", nil)
		t0 := time.Now()
		_, err := st.Insert(r)
		us = append(us, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return fmt.Errorf("tablestore insert: %w", err)
		}
	}
	rt1 := readRuntime()
	setIfAbsent(o.perLayer, "tablestore.insert_us", metric{us.quantile(0.5), "us"})
	setIfAbsent(o.perLayer, "tablestore.insert_alloc_bytes", metric{(rt1.alloc - rt0.alloc) / float64(len(rows)), "bytes"})
	o.check(st.RowCount() == len(rows), "tablestore holds %d rows after %d inserts", st.RowCount(), len(rows))
	return nil
}

// parseProbe times sqlparser.Parse on the statement texts the workload
// sends.
func parseProbe(e *env, o *outcome, texts []string) {
	var us samples
	for i := 0; i < probeParses; i++ {
		for _, t := range texts {
			sp := e.tr.begin("sqlparser.Parse", nil)
			t0 := time.Now()
			_, err := sqlparser.Parse(t)
			us = append(us, float64(time.Since(t0))/1e3)
			sp.end()
			o.check(err == nil, "parse %q: %v", t, err)
		}
	}
	setIfAbsent(o.perLayer, "sqlparser.parse_us", metric{us.quantile(0.5), "us"})
}

// sheetProbe binds the workload's table to a sheet, scrolls it, and edits
// the parameter of a DBSQL formula, timing the window, compute and
// interface-manager calls.
func sheetProbe(e *env, o *outcome, ds *core.DataSpread, p probeSpec, rng *rand.Rand) error {
	if _, err := ds.AddSheet("Probe"); err != nil {
		return err
	}
	if _, err := ds.ImportTable("Probe", "A1", p.table); err != nil {
		return fmt.Errorf("probe import: %w", err)
	}
	var scrollUS, visibleUS samples
	for i := 0; i < probeScrolls; i++ {
		row := rng.Int63n(p.keys - 100)
		target := sheet.Addr(int(row)+1, 0).String()
		sp := e.tr.begin("window.ScrollTo", nil)
		t0 := time.Now()
		err := ds.ScrollTo("Probe", target)
		scrollUS = append(scrollUS, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return err
		}
		sp = e.tr.begin("window.VisibleValues", nil)
		t0 = time.Now()
		_, err = ds.VisibleValues("Probe")
		visibleUS = append(visibleUS, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return err
		}
	}
	setIfAbsent(o.perLayer, "window.scrollto_us", metric{scrollUS.quantile(0.5), "us"})
	setIfAbsent(o.perLayer, "window.visible_us", metric{visibleUS.quantile(0.5), "us"})

	wait, err := ds.SetCell("Sheet1", "A1", "0")
	if err != nil {
		return err
	}
	wait()
	if wait, err = ds.SetCell("Sheet1", "B1", `=DBSQL("`+p.dbsql+`")`); err != nil {
		return err
	}
	wait()
	var setUS, waitMS samples
	before := ds.Interface().Stats()
	for i := 0; i < probeEdits; i++ {
		key := fmt.Sprint(rng.Int63n(p.keys))
		sp := e.tr.begin("compute.SetCell", nil)
		t0 := time.Now()
		wait, err := ds.SetCell("Sheet1", "A1", key)
		setUS = append(setUS, float64(time.Since(t0))/1e3)
		sp.end()
		if err != nil {
			return err
		}
		sp = e.tr.begin("compute.wait", nil)
		t0 = time.Now()
		wait()
		waitMS.add(time.Since(t0))
		sp.end()
	}
	reportIface(o, before, ds.Interface().Stats(), probeEdits)
	setIfAbsent(o.perLayer, "compute.setcell_us", metric{setUS.quantile(0.5), "us"})
	setIfAbsent(o.perLayer, "compute.wait_ms", metric{waitMS.quantile(0.5), "ms"})
	return nil
}

// wireProbe serves a copy of the workload's file from a dataspreadd process
// and sends it prepared point reads and updates over one connection.
func wireProbe(e *env, o *outcome, p probeSpec, rng *rand.Rand) error {
	dir := filepath.Join(e.dir, "probe-wire")
	if err := copyWorkbook(p.path, filepath.Join(dir, oltpTenant+".ds")); err != nil {
		return err
	}
	d, err := startDaemon(e.daemon, dir)
	if err != nil {
		return err
	}
	c, err := client.Dial(d.addr, client.Config{Tenant: oltpTenant, Token: oltpToken})
	if err != nil {
		return errors.Join(fmt.Errorf("probe dial: %w", err), d.stop())
	}
	err = func() error {
		ctx := context.Background()
		pt, err := c.Prepare(p.point)
		if err != nil {
			return err
		}
		upd, err := c.Prepare(p.update)
		if err != nil {
			return err
		}
		var readUS samples
		for i := 0; i < probePoints/2; i++ {
			sp := e.tr.begin("client.Query.point", nil)
			t0 := time.Now()
			got, err := queryAll(ctx, pt, rng.Int63n(p.keys))
			readUS = append(readUS, float64(time.Since(t0))/1e3)
			sp.end()
			if err != nil {
				return err
			}
			o.check(len(got) == 1, "wire probe point read returned %d rows", len(got))
		}
		for i := 0; i < probeCommits/2; i++ {
			sp := e.tr.begin("client.Exec.update", nil)
			_, err := upd.Exec(ctx, rng.Int63n(p.keys))
			sp.end()
			if err != nil {
				return err
			}
		}
		st, err := c.ServerStats()
		if err != nil {
			return err
		}
		t := tenantStats(st)
		setIfAbsent(o.perLayer, "server.read_p50_us", metric{t["read_p50_micros"], "us"})
		setIfAbsent(o.perLayer, "server.read_p99_us", metric{t["read_p99_micros"], "us"})
		setIfAbsent(o.perLayer, "server.write_p50_us", metric{t["write_p50_micros"], "us"})
		setIfAbsent(o.perLayer, "server.write_p99_us", metric{t["write_p99_micros"], "us"})
		setIfAbsent(o.perLayer, "server.admission_rejected", metric{t["admission_rejected"], "count"})
		setIfAbsent(o.perLayer, "server.errors", metric{t["errors"], "count"})
		setIfAbsent(o.perLayer, "wire.gap_p50_us", metric{readUS.quantile(0.5) - t["read_p50_micros"], "us"})
		return nil
	}()
	return errors.Join(err, c.Close(), d.stop())
}

// reportIface stores the interface manager's work per edit between two
// snapshots.
func reportIface(o *outcome, before, after interfacemgr.Stats, edits int) {
	refreshes := float64(after.Refreshes - before.Refreshes + after.IncrementalOps - before.IncrementalOps)
	memo := float64(after.MemoHits - before.MemoHits)
	setIfAbsent(o.perLayer, "interfacemgr.refreshes_per_edit", metric{refreshes / float64(edits), "count"})
	setIfAbsent(o.perLayer, "interfacemgr.memo_hit_ratio", metric{ratio(memo, memo+refreshes), "ratio"})
	setIfAbsent(o.perLayer, "interfacemgr.cells_written_per_edit", metric{float64(after.CellsWritten-before.CellsWritten) / float64(edits), "count"})
}
