package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// ingest-scan: one durable connection loads a fixed, seeded table through a
// prepared INSERT in transactions of ingestTxRows rows, with background
// checkpoints at the default WAL threshold; then an explicit checkpoint and
// Close. For the rest of the run it repeats rounds of reopen, point reads and
// analytic queries, so every round reads its pages cold from the file. The
// row count is fixed, so a faster insert shortens the load and leaves more
// rounds.
const (
	ingestRows     = 120000
	ingestTxRows   = 32
	ingestKinds    = 32
	ingestTSRows   = 50 // rows per ts value; ts grows with id, so zone maps can skip
	ingestPoints   = 20 // point reads per round
	ingestScans    = 5  // selective ts-range scans per round
	ingestScanSpan = 10 // longest scan, in ts values
	ingestMinRuns  = 3  // rounds even when the load used up the run

	ingestSetupEvery = 250 * time.Millisecond
)

const (
	sqlEventsCreate = "CREATE TABLE events (id INT PRIMARY KEY, ts INT, kind INT, val INT)"
	sqlEventsInsert = "INSERT INTO events VALUES (?, ?, ?, ?)"
	sqlKindsCreate  = "CREATE TABLE kinds (kind INT PRIMARY KEY, label TEXT)"
	sqlKindsInsert  = "INSERT INTO kinds VALUES (?, ?)"
	sqlEventsPoint  = "SELECT id, ts, kind, val FROM events WHERE id = ?"
	sqlEventsRange  = "SELECT COUNT(*), SUM(val) FROM events WHERE ts BETWEEN ? AND ?"
	sqlEventsGroup  = "SELECT kind, COUNT(*), SUM(val) FROM events GROUP BY kind ORDER BY kind"
	sqlEventsJoin   = "SELECT label, SUM(val) FROM events NATURAL JOIN kinds GROUP BY label ORDER BY label"
	sqlEventsCheck  = "SELECT COUNT(*), SUM(val) FROM events"
)

// ingestModel holds the generated table and the answers derived from it.
type ingestModel struct {
	kind, val []int64
	prefix    []int64 // prefix[i] = sum of val[0:i]
	perKind   [][2]int64
	sum       int64
}

func genIngest(seed int64) *ingestModel {
	rng := rand.New(rand.NewSource(seed))
	m := &ingestModel{kind: make([]int64, ingestRows), val: make([]int64, ingestRows),
		prefix: make([]int64, ingestRows+1), perKind: make([][2]int64, ingestKinds)}
	for i := range m.kind {
		m.kind[i] = int64(rng.Intn(ingestKinds))
		m.val[i] = int64(rng.Intn(10000))
		m.prefix[i+1] = m.prefix[i] + m.val[i]
		m.perKind[m.kind[i]][0]++
		m.perKind[m.kind[i]][1] += m.val[i]
		m.sum += m.val[i]
	}
	return m
}

func (m *ingestModel) row(i int) []sheet.Value {
	return []sheet.Value{sheet.Number(float64(i)), sheet.Number(float64(i / ingestTSRows)),
		sheet.Number(float64(m.kind[i])), sheet.Number(float64(m.val[i]))}
}

func (m *ingestModel) rows(n int) [][]sheet.Value {
	out := make([][]sheet.Value, n)
	for i := range out {
		out[i] = m.row(i)
	}
	return out
}

// ingestUserBytes: four 8-byte numbers per event plus the kinds table.
func ingestUserBytes() int64 { return ingestRows*32 + ingestKinds*(8+7) }

// ingestSetup creates the empty workbook, the dimension table and the
// prepared INSERT.
func ingestSetup(path string) (*core.DataSpread, *core.Conn, error) {
	ds, err := core.OpenFile(path, engineOptions())
	if err != nil {
		return nil, nil, err
	}
	c := ds.NewConn()
	kinds := make([][]sheet.Value, ingestKinds)
	for k := range kinds {
		kinds[k] = []sheet.Value{sheet.Number(float64(k)), sheet.String_(fmt.Sprintf("kind-%02d", k))}
	}
	err = loadTable(c, sqlKindsCreate, sqlKindsInsert, kinds)
	if err == nil {
		_, err = c.QueryContext(context.Background(), sqlEventsCreate)
	}
	if err != nil {
		return nil, nil, errors.Join(err, ds.Close())
	}
	return ds, c, nil
}

func runIngestScan(e *env) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	o.cpuTimed = true
	m := genIngest(e.seed)
	// A set-up takes about a millisecond, most of it file creation and
	// fsync, so it is timed every ingestSetupEvery through the run, each
	// time on a new file, as well as once for the workbook the run uses.
	setups := &setupSampler{every: ingestSetupEvery}
	path := filepath.Join(e.dir, "ingest.ds")
	var ds *core.DataSpread
	var conn *core.Conn
	settle()
	err := setups.time(func() (err error) {
		ds, conn, err = ingestSetup(path)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ingest set-up: %w", err)
	}
	extraSetup := func() error {
		if !setups.due() {
			return nil
		}
		return setups.sample(e.dir, func(p string) (*core.DataSpread, error) {
			ds, _, err := ingestSetup(p)
			return ds, err
		})
	}

	// The load.
	ins, err := conn.Prepare(sqlEventsInsert)
	if err != nil {
		return nil, errors.Join(err, ds.Close())
	}
	var write timings
	var commitUS samples
	var loaded int
	settle()
	walMon := watchWAL(path + ".wal")
	rtBefore := readRuntime()
	var ctr counterDelta
	before := readCounters(ds)
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	for loaded < ingestRows {
		e.ref.maybe()
		if err := extraSetup(); err != nil {
			return nil, errors.Join(err, ds.Close())
		}
		o.attempted++
		n := min(ingestTxRows, ingestRows-loaded)
		sp := e.tr.begin("op.txn", nil)
		sw := startWatch()
		err := func() error {
			if _, err := conn.QueryContext(ctx, "BEGIN"); err != nil {
				return err
			}
			for i := loaded; i < loaded+n; i++ {
				c := e.tr.begin("sqlexec.ExecutePrepared.insert", sp)
				_, err := conn.ExecutePrepared(ctx, ins, m.row(i)...)
				c.end()
				if err != nil {
					_, rbErr := conn.QueryContext(ctx, "ROLLBACK")
					return errors.Join(err, rbErr)
				}
			}
			c := e.tr.begin("txn.Commit", sp)
			t1 := time.Now()
			_, err := conn.QueryContext(ctx, "COMMIT")
			commitUS = append(commitUS, float64(time.Since(t1))/1e3)
			c.end()
			return err
		}()
		d, cd := sw.elapsed()
		sp.end()
		loaded += n
		if err != nil {
			// A failed transaction is counted, not retried; its rows are
			// missing from the table and the checks below will say so.
			o.fail("ingest-txn", err)
			continue
		}
		write.add(d, cd)
	}
	loadTime := time.Since(start)
	walStats := walMon.stop()
	sp := e.tr.begin("core.Checkpoint", nil)
	t0 := time.Now()
	err = ds.Checkpoint()
	ckpt := time.Since(t0)
	sp.end()
	after := readCounters(ds)
	ctr.add(before, after)
	loadWrites := after.store.Writes - before.store.Writes
	if err = errors.Join(err, ds.Close()); err != nil {
		return nil, err
	}
	o.info["ops_s"] = rate(len(write.cpu)*ingestTxRows, loadTime)
	want := []float64{ingestRows, float64(m.sum)}
	first, err := closeAndRecover(nil, path, o, sqlEventsCheck, want)
	if err != nil {
		return nil, err
	}
	o.endToEnd["space_amp"] = metric{first.spaceAmp(ingestUserBytes()), "ratio"}
	o.info["table_rows"] = ingestRows
	o.info["file_bytes"] = first.rest
	o.info["table_pages"] = first.pages
	o.info["checkpoints_seen"] = walStats.truncations

	// Rounds on the cold file.
	rng := rand.New(rand.NewSource(e.seed*15485863 + 11))
	var read, query timings
	var reopen []float64
	rounds := 0
	for rounds < ingestMinRuns || time.Now().Before(deadline) {
		e.ref.maybe()
		if err := extraSetup(); err != nil {
			return nil, err
		}
		rounds++
		o.attempted++
		settle()
		sp := e.tr.begin("core.OpenFile", nil)
		t0 := time.Now()
		rds, err := core.OpenFile(path, engineOptions())
		d := time.Since(t0)
		sp.end()
		if err != nil {
			o.fail("reopen", err)
			continue
		}
		// The open leaves garbage behind; collect it so the round's cold
		// reads do not run beside a collection the open started.
		settle()
		b := readCounters(rds)
		if err := ingestRound(e, o, rds, m, rng, &read, &query); err != nil {
			return nil, errors.Join(err, rds.Close())
		}
		ctr.add(b, readCounters(rds))
		if err := rds.Close(); err != nil {
			return nil, err
		}
		reopen = append(reopen, float64(d)/1e6)
	}
	rtAfter := readRuntime()
	o.reportLatency("read", read, true)
	o.reportLatency("query", query, false)
	o.reportLatency("write", write, false)
	setups.report(o)
	o.info["reopen_ms"] = median(reopen)
	o.info["rounds"] = rounds

	if e.tr == nil {
		return o, nil
	}
	ctr.report(o)
	o.perLayer["txn.commit_us"] = metric{commitUS.quantile(0.5), "us"}
	o.perLayer["txn.wal_bytes_per_row"] = metric{float64(walStats.appended) / ingestRows, "bytes"}
	o.perLayer["core.checkpoints"] = metric{float64(walStats.truncations), "count"}
	o.perLayer["core.checkpoint_ms"] = metric{float64(ckpt) / 1e6, "ms"}
	o.perLayer["core.replayed_cmds"] = metric{float64(first.replayed), "count"}
	written := float64(loadWrites)*pager.PageSize + float64(walStats.appended)
	o.perLayer["pager.write_amp"] = metric{written / float64(ingestUserBytes()), "ratio"}
	o.reportRuntime(rtBefore, rtAfter.sub(setups.spent), o.attempted)
	mid := int64(ingestRows / ingestTSRows / 2)
	p := probeSpec{
		path: path, table: "events", keys: ingestRows,
		point: sqlEventsPoint, rows: m.rows,
		queries: []probeQuery{
			{sqlEventsRange, []sheet.Value{sheet.Number(float64(mid)), sheet.Number(float64(mid + 4))}},
			{sqlEventsGroup, nil},
			{sqlEventsJoin, nil},
		},
		update: "UPDATE events SET val = val + 1 WHERE id = ?",
		texts:  []string{sqlEventsInsert, sqlEventsPoint, sqlEventsRange, sqlEventsGroup, sqlEventsJoin},
		dbsql:  "SELECT id, ts, kind, val FROM events WHERE id = RANGEVALUE(A1)",
		sheet:  true, wire: true,
	}
	if err := runProbes(e, o, p); err != nil {
		return nil, err
	}
	return o, nil
}

// ingestRound runs one round on a freshly opened file: point reads, then
// the selective ts-range scans, the GROUP BY, the join and the checksum,
// each checked against the generator. Point reads and selective scans are
// the read class (four to one, so its median is a point read and its 90th
// percentile a selective scan). The three full-table queries together are
// one operation of the query class, an analytic refresh: timed one by one,
// the class mixed three kinds of query in equal shares, and its median
// jumped between them from run to run.
func ingestRound(e *env, o *outcome, ds *core.DataSpread, m *ingestModel, rng *rand.Rand, read, query *timings) error {
	ctx := context.Background()
	c := ds.NewConn()
	pt, err := c.Prepare(sqlEventsPoint)
	if err != nil {
		return err
	}
	for i := 0; i < ingestPoints; i++ {
		o.attempted++
		id := rng.Intn(ingestRows)
		sp := e.tr.begin("op.point", nil)
		sw := startWatch()
		res, err := c.ExecutePrepared(ctx, pt, sheet.Number(float64(id)))
		d, cd := sw.elapsed()
		sp.end()
		if err != nil {
			o.fail("point-read", err)
			continue
		}
		read.add(d, cd)
		checkRow(o, res.Rows, fmt.Sprintf("point read of id %d", id),
			[]float64{float64(id), float64(id / ingestTSRows), float64(m.kind[id]), float64(m.val[id])})
	}
	type q struct {
		sql     string
		args    []sheet.Value
		want    [][]float64
		refresh bool // part of the analytic refresh, not a read
	}
	var qs []q
	maxTS := ingestRows / ingestTSRows
	for i := 0; i < ingestScans; i++ {
		// A range of one to ingestScanSpan ts values: with one fixed
		// length, about half the ranges crossed a page boundary, so the scan
		// times split into two groups and their median fell between them,
		// by seed. Varied lengths give a spread of page counts instead.
		span := 1 + rng.Intn(ingestScanSpan)
		lo := rng.Intn(maxTS - span)
		hi := lo + span - 1
		a, b := lo*ingestTSRows, (hi+1)*ingestTSRows
		qs = append(qs, q{sqlEventsRange, []sheet.Value{sheet.Number(float64(lo)), sheet.Number(float64(hi))},
			[][]float64{{float64(b - a), float64(m.prefix[b] - m.prefix[a])}}, false})
	}
	var group, join [][]float64
	for k, pk := range m.perKind {
		group = append(group, []float64{float64(k), float64(pk[0]), float64(pk[1])})
		join = append(join, []float64{float64(pk[1])}) // labels sort in kind order
	}
	qs = append(qs, q{sqlEventsGroup, nil, group, true}, q{sqlEventsJoin, nil, join, true},
		q{sqlEventsCheck, nil, [][]float64{{ingestRows, float64(m.sum)}}, true})
	var refreshWall, refreshCPU time.Duration
	refreshed := true
	for _, qq := range qs {
		o.attempted++
		sp := e.tr.begin("op.query", nil)
		sw := startWatch()
		res, err := c.QueryContext(ctx, qq.sql, qq.args...)
		d, cd := sw.elapsed()
		sp.end()
		if err != nil {
			o.fail("analytic-query", err)
			refreshed = refreshed && !qq.refresh
			continue
		}
		if qq.refresh {
			refreshWall += d
			refreshCPU += cd
		} else {
			read.add(d, cd)
		}
		o.check(len(res.Rows) == len(qq.want), "%s returned %d rows, want %d", qq.sql, len(res.Rows), len(qq.want))
		for i := range qq.want {
			if i >= len(res.Rows) {
				break
			}
			off := 0
			if qq.sql == sqlEventsJoin {
				off = 1 // the label column
			}
			for j, w := range qq.want[i] {
				got, _ := res.Rows[i][j+off].AsNumber()
				o.check(got == w, "%s %v row %d col %d = %v, want %v", qq.sql, qq.args, i, j+off, got, w)
			}
		}
	}
	if refreshed {
		query.add(refreshWall, refreshCPU)
	}
	return nil
}
