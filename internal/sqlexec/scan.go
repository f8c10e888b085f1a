package sqlexec

import (
	"errors"
	"sync/atomic"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The scan/filter layer shared by the materialising, parallel, streaming
// and EXPLAIN paths. A FROM source reaches its rows one of three ways:
//
//   - a named table without an index path reads a pinned snapshot
//     (pinScan): the engine lock is held only while the snapshot pins its
//     epoch, and the partition loop (rowFilter.partition) then runs
//     lock-free, in the calling goroutine for serial and streaming scans
//     and in every morsel worker for parallel ones;
//   - an index path point-reads its candidates under the engine read lock
//     (rowFilter.fetch), dropping those a zone map rules out;
//   - a materialised source (RANGETABLE, sub-select) is filtered in place.
//
// All three poll for cancellation and evaluate the pushed predicates
// through rowFilter.keep, so a row is kept the same way however it was
// reached.

// rowFilter applies a source's pushed predicates on one goroutine: it owns
// the row context the predicates read and a cancellation poller.
type rowFilter struct {
	preds []boundExpr
	ctx   *rowCtx
	poll  parPoll
}

func newRowFilter(preds []boundExpr, env *execEnv) *rowFilter {
	return &rowFilter{preds: preds, ctx: env.newRowCtx(), poll: parPoll{ctx: envCtx(env)}}
}

// keep polls for cancellation and reports whether row passes every pushed
// predicate. The row stays in f.ctx for the caller's projections.
//
// dslint:polls
func (f *rowFilter) keep(row []sheet.Value) (bool, error) {
	if err := f.poll.check(); err != nil {
		return false, err
	}
	f.ctx.row = row
	return allPredicates(f.preds, f.ctx)
}

// partition is the partition loop: it scans one partition of a pinned
// snapshot and hands every kept row to emit, stopping at emit's first
// error. It runs without the engine lock, concurrently with writers. Rows
// may alias a reused scratch buffer (see TableSnap.ScanColsStable), so emit
// must copy what it retains.
//
// dslint:nolock(engine)
func (f *rowFilter) partition(snap tablestore.TableSnap, part tablestore.Partition, cols []int, emit func(row []sheet.Value) error) error {
	var err error
	scanErr := snap.ScanColsRange(part, cols, func(_ tablestore.RowID, row []sheet.Value) bool {
		var ok bool
		if ok, err = f.keep(row); ok {
			err = emit(row)
		}
		return err == nil
	})
	if scanErr != nil {
		return scanErr
	}
	return err
}

// fetch is the index-path loop body: it point-reads candidate id with only
// cols and hands the row, a private copy, to emit if it passes the pushed
// predicates. A candidate whose page a zone bound rules out is dropped
// before decoding, and one deleted since the index read is skipped; neither
// reads a page, so only fetched rows poll.
//
// dslint:requires(engine)
// dslint:polls
func (f *rowFilter) fetch(s *srcState, id tablestore.RowID, cols []int, emit func(row []sheet.Value) error) error {
	row, skipped, err := s.store.GetColsPruned(id, cols, s.zoneBounds)
	if skipped || errors.Is(err, tablestore.ErrRowNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	ok, err := f.keep(row)
	if !ok || err != nil {
		return err
	}
	return emit(row)
}

// scanPin is a named-table source's pinned snapshot, cut into the
// partitions its scan reads.
type scanPin struct {
	snap  tablestore.TableSnap
	parts []tablestore.Partition
	// workers is how many goroutines the scan fans out over (1 = serial).
	workers int
	// pagesRead and pagesSkipped are the physical pages the pruned scan
	// reads and skips.
	pagesRead, pagesSkipped int
}

// pinScan pins s's store under the engine read lock, the only moment a
// snapshot scan holds it, and picks the partitions: workers ×
// morselsPerWorker morsels when workers > 1 and the table reaches
// parMinRows, one serial range otherwise. Zone bounds leave out the page
// ranges they rule out. The caller releases pin.snap.
func (db *Database) pinScan(s *srcState, scanCols []int, workers int) scanPin {
	db.mu.RLock()
	snap := s.store.Snapshot()
	db.mu.RUnlock()
	n := 1
	if workers > 1 && snap.RowCount() >= parMinRows {
		n = workers * morselsPerWorker
	} else {
		workers = 1
	}
	parts, read, skipped := snap.Partitions(n, scanCols, s.zoneBounds)
	return scanPin{snap: snap, parts: parts, workers: workers, pagesRead: read, pagesSkipped: skipped}
}

// countPages adds a scan's page counts to ScanStats. Only scans with zone
// bounds count, so a scan that consulted no zone map (no sargable conjunct,
// or SetForceNoSkip) leaves both counters alone.
func (db *Database) countPages(s *srcState, pin scanPin) {
	if len(s.zoneBounds) > 0 {
		db.pagesRead.Add(int64(pin.pagesRead))
		db.pagesSkipped.Add(int64(pin.pagesSkipped))
	}
}

// scanSource turns one FROM source into a relation: the pushed predicates
// filter rows as they leave the scan, and named tables read only the
// columns projection pruning kept (scanSchema). live=false short-circuits to
// an empty relation (a constant WHERE conjunct was false).
func (db *Database) scanSource(s *srcState, live bool, env *execEnv) (*relation, error) {
	cols, scanCols := s.scanSchema()
	rel := &relation{cols: cols}
	if !live {
		return rel, nil
	}
	if s.store == nil && len(s.pushed) == 0 {
		// RANGETABLE / sub-select with nothing pushed: adopt the rows as-is.
		rel.rows = s.rows
		return rel, nil
	}
	var err error
	if s.store != nil && (s.path == nil || s.path.kind == pathFull) {
		rel.rows, err = db.scanTable(s, cols, scanCols, env)
	} else {
		rel.rows, err = db.filterSource(s, cols, scanCols, env)
	}
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// scanTable runs a named table's full scan over a pinned snapshot. Workers
// pull morsels (partitions) from a shared cursor, so one that finishes early
// steals the remaining work, and the per-morsel outputs concatenate in
// partition order, which is the serial scan order. A serial scan is the
// same loop with one worker, run in the calling goroutine.
func (db *Database) scanTable(s *srcState, cols []colDesc, scanCols []int, env *execEnv) ([][]sheet.Value, error) {
	pin := db.pinScan(s, scanCols, db.parWorkers())
	defer pin.snap.Release()
	db.countPages(s, pin)
	// One predicate compile per worker, sequentially: compilation may fold
	// RANGEVALUE through the shared sheet accessor, and the resulting trees
	// carry per-tree scratch.
	preds := make([][]boundExpr, pin.workers)
	for w := range preds {
		var err error
		if preds[w], err = compilePredicates(s.pushed, cols, env); err != nil {
			return nil, err
		}
	}
	results := make([][][]sheet.Value, len(pin.parts))
	var cursor atomic.Int64
	worker := func(w int) error {
		return scanMorsels(pin, &cursor, scanCols, newRowFilter(preds[w], env), results)
	}
	var err error
	if pin.workers == 1 {
		err = worker(0)
	} else {
		err = parRun(pin.workers, worker)
	}
	if err != nil {
		return nil, err
	}
	if len(results) == 1 {
		return results[0], nil
	}
	total := 0
	for _, rs := range results {
		total += len(rs)
	}
	rows := make([][]sheet.Value, 0, total)
	for _, rs := range results {
		rows = append(rows, rs...)
	}
	return rows, nil
}

// scanMorsels is one scan worker: it pulls morsel indexes from the shared
// cursor until the queue drains, filtering each partition into its slot of
// results. It must never acquire the engine lock: the snapshot serves
// frozen page versions without it.
//
// dslint:nolock(engine)
func scanMorsels(pin scanPin, cursor *atomic.Int64, scanCols []int, f *rowFilter, results [][][]sheet.Value) error {
	stable := pin.snap.ScanColsStable(scanCols)
	var arena valueArena
	for {
		i := int(cursor.Add(1)) - 1
		if i >= len(pin.parts) {
			return nil
		}
		var out [][]sheet.Value
		err := f.partition(pin.snap, pin.parts[i], scanCols, func(row []sheet.Value) error {
			if !stable {
				row = arena.clone(row)
			}
			out = append(out, row)
			return nil
		})
		if err != nil {
			return err
		}
		results[i] = out
	}
}

// filterSource reads a source that has no snapshot scan: a materialised
// source is filtered in place, and an index path fetches its candidates
// under one read-lock hold. Non-ordered paths emit in RowID order (the full
// scan's order); ordered paths emit in index order and stop as soon as the
// early LIMIT is met.
func (db *Database) filterSource(s *srcState, cols []colDesc, scanCols []int, env *execEnv) ([][]sheet.Value, error) {
	preds, err := compilePredicates(s.pushed, cols, env)
	if err != nil {
		return nil, err
	}
	f := newRowFilter(preds, env)
	var rows [][]sheet.Value
	if s.store == nil {
		for _, row := range s.rows {
			ok, err := f.keep(row)
			if err != nil {
				return nil, err
			}
			if ok {
				rows = append(rows, row)
			}
		}
		return rows, nil
	}
	emit := func(row []sheet.Value) error {
		rows = append(rows, row)
		return nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !s.path.ordered {
		for _, id := range db.collectPathIDsLocked(s.tbl.Name, s.path) {
			if err := f.fetch(s, id, scanCols, emit); err != nil {
				return nil, err
			}
		}
		return rows, nil
	}
	db.walkPathOrdered(s.tbl.Name, s.path, func(id tablestore.RowID) bool {
		err = f.fetch(s, id, scanCols, emit)
		return err == nil && (s.path.earlyLimit <= 0 || len(rows) < s.path.earlyLimit)
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
