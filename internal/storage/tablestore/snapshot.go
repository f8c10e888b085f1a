package tablestore

import (
	"fmt"
	"sync"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/pager"
)

// Table snapshots: lock-free point-in-time reads over a pinned pool epoch.
//
// Snapshot() pins a BufferPool epoch and captures the store's structural
// state (page lists, column map, tombstones, row counts) by value. The
// returned TableSnap then serves scans with NO external synchronization:
// page content as of the epoch comes from BufferPool.GetAt, which retains
// superseded versions until the last pinned reader drains, and the captured
// structure is private to the snapshot. Writers mutating the live store —
// inserts, deletes, schema changes, even a DROP TABLE — cannot change what
// the snapshot observes.
//
// Snapshot() itself must be called with writers excluded (the engine lock,
// at least read-held) because it reads the store's mutable fields; every
// method on the returned TableSnap is safe without any lock.
//
// Scans are partitionable for morsel-driven parallelism: Partitions splits
// the row space into about n contiguous ranges such that running
// ScanColsRange over the partitions in order yields exactly the rows, in
// exactly the order, a full ScanCols would — minus the page ranges zone
// bounds prove matchless (prune.go). Partition bounds are in layout-defined
// units (page indexes for the row layout, slots for the column and hybrid
// layouts); callers treat them as opaque.

// Partition is one contiguous range of a snapshot's row space, [Lo, Hi) in
// units the layout defines. Obtain partitions from TableSnap.Partitions and
// pass them back to ScanColsRange unchanged.
type Partition struct {
	Lo, Hi int
}

// TableSnap is an immutable point-in-time view of one table.
type TableSnap interface {
	// RowCount returns the number of live rows at snapshot time.
	RowCount() int
	// ColumnCount returns the table width at snapshot time.
	ColumnCount() int
	// Partitions splits the snapshot into about n non-empty contiguous
	// ranges; concatenating ScanColsRange outputs in partition order
	// reproduces the serial scan order exactly. Nil bounds cover every row;
	// otherwise the ranges the bounds prove empty of matches are left out,
	// so a pruned scan never visits them. cols (nil = all) names the
	// columns the scan will read, for page accounting only: pagesRead and
	// pagesSkipped are the physical pages the scan reads and skips.
	Partitions(n int, cols []int, bounds []ZoneBound) (parts []Partition, pagesRead, pagesSkipped int)
	// ScanColsRange is ScanCols restricted to one partition. cols == nil
	// scans all columns. Distinct partitions may be scanned concurrently
	// from different goroutines.
	// dslint:perrow
	ScanColsRange(p Partition, cols []int, fn func(id RowID, row []sheet.Value) bool) error
	// ScanColsStable reports whether ScanColsRange hands out stable rows
	// (safe to retain) or a reused scratch row, mirroring
	// Store.ScanColsStable.
	ScanColsStable(cols []int) bool
	// Release unpins the snapshot's epoch; superseded page versions it held
	// become collectable. Idempotent. Callers must not use the snapshot
	// after Release.
	Release()
}

// epochPin funnels the release-once discipline shared by all snapshots.
type epochPin struct {
	pool    *pager.BufferPool
	epoch   uint64
	release sync.Once
}

func (p *epochPin) Release() {
	p.release.Do(func() { p.pool.ReleaseEpoch(p.epoch) })
}

// --- row layout ---

type rowSnap struct {
	epochPin
	cache    *decodedCache
	width    int
	pages    []pager.PageID
	zones    []*pageZones
	rowCount int
}

// Snapshot implements Store.
func (s *RowStore) Snapshot() TableSnap {
	snap := &rowSnap{
		epochPin: epochPin{pool: s.pool, epoch: s.pool.OpenEpoch()},
		cache:    &s.cache,
		width:    s.width,
		pages:    append([]pager.PageID(nil), s.pages...),
		zones:    cloneZones(s.zones),
		rowCount: s.rowCount,
	}
	return snap
}

func (s *rowSnap) RowCount() int    { return s.rowCount }
func (s *rowSnap) ColumnCount() int { return s.width }

func (s *rowSnap) ScanColsStable(cols []int) bool { return cols == nil }

func (s *rowSnap) ScanColsRange(p Partition, cols []int, fn func(id RowID, row []sheet.Value) bool) error {
	for _, c := range cols {
		if c < 0 || c >= s.width {
			return fmt.Errorf("%w: %d", ErrColumnRange, c)
		}
	}
	var scratch []sheet.Value
	if cols != nil {
		scratch = make([]sheet.Value, len(cols))
	}
	for pi := p.Lo; pi < p.Hi && pi < len(s.pages); pi++ {
		ids, rows, err := s.cache.getTuplesAt(s.pool, s.epoch, s.pages[pi])
		if err != nil {
			return err
		}
		for i, id := range ids {
			row := rows[i]
			if cols != nil {
				for j, c := range cols {
					if c < len(row) {
						scratch[j] = row[c]
					} else {
						scratch[j] = sheet.Empty()
					}
				}
				row = scratch
			}
			if !fn(id, row) {
				return nil
			}
		}
	}
	return nil
}

// --- column layout ---

type colSnap struct {
	epochPin
	cache     *decodedCache
	cols      []colPages
	deleted   map[RowID]bool
	slotCount int
	rowCount  int
}

// Snapshot implements Store.
func (s *ColStore) Snapshot() TableSnap {
	snap := &colSnap{
		epochPin: epochPin{pool: s.pool, epoch: s.pool.OpenEpoch()},
		cache:    &s.cache,
		// The outer slice is deep-copied: DropColumn splices it in place.
		// The inner page-id slices are append-only, so sharing their
		// backing arrays up to the captured length is safe.
		cols:      append([]colPages(nil), s.cols...),
		deleted:   cloneDeleted(s.deleted),
		slotCount: s.slotCount,
		rowCount:  s.rowCount,
	}
	// Zone slices are NOT append-only — writeColPage replaces entries in
	// place — so each column's zones must be copied, unlike its page ids.
	for c := range snap.cols {
		snap.cols[c].zones = cloneZones(snap.cols[c].zones)
	}
	return snap
}

func (s *colSnap) RowCount() int    { return s.rowCount }
func (s *colSnap) ColumnCount() int { return len(s.cols) }

func (s *colSnap) ScanColsStable([]int) bool { return false }

func (s *colSnap) ScanColsRange(p Partition, cols []int, fn func(id RowID, row []sheet.Value) bool) error {
	want := cols
	if want == nil {
		want = make([]int, len(s.cols))
		for i := range want {
			want[i] = i
		}
	}
	for _, c := range want {
		if c < 0 || c >= len(s.cols) {
			return fmt.Errorf("%w: %d", ErrColumnRange, c)
		}
	}
	lo, hi := p.Lo, p.Hi
	if hi > s.slotCount {
		hi = s.slotCount
	}
	scratch := make([]sheet.Value, len(want))
	chunk := make([][]sheet.Value, len(want))
	hasDeleted := len(s.deleted) > 0
	for base := lo - lo%valuesPerPage; base < hi; base += valuesPerPage {
		pi := base / valuesPerPage
		for j, c := range want {
			vals, err := s.cache.getColumnAt(s.pool, s.epoch, s.cols[c].pages[pi])
			if err != nil {
				return err
			}
			chunk[j] = vals
		}
		start, end := base, base+valuesPerPage
		if start < lo {
			start = lo
		}
		if end > hi {
			end = hi
		}
		for slot := start; slot < end; slot++ {
			id := RowID(slot + 1)
			if hasDeleted && s.deleted[id] {
				continue
			}
			off := slot - base
			for j := range want {
				if off < len(chunk[j]) {
					scratch[j] = chunk[j][off]
				} else {
					scratch[j] = sheet.Empty()
				}
			}
			if !fn(id, scratch) {
				return nil
			}
		}
	}
	return nil
}

// --- hybrid layout ---

type hybridSnap struct {
	epochPin
	cache     *decodedCache
	groups    []attrGroup
	colMap    []colLocation
	deleted   map[RowID]bool
	slotCount int
	rowCount  int
}

// Snapshot implements Store.
func (s *HybridStore) Snapshot() TableSnap {
	snap := &hybridSnap{
		epochPin: epochPin{pool: s.pool, epoch: s.pool.OpenEpoch()},
		cache:    &s.cache,
		// groups entries are mutated in place by DropColumn (width/pages),
		// so the slice of structs is deep-copied; page-id slices within are
		// append-only and share safely.
		groups:    append([]attrGroup(nil), s.groups...),
		colMap:    append([]colLocation(nil), s.colMap...),
		deleted:   cloneDeleted(s.deleted),
		slotCount: s.slotCount,
		rowCount:  s.rowCount,
	}
	// Zone slices are NOT append-only — writeGroupPage replaces entries in
	// place — so each group's zones must be copied, unlike its page ids.
	for gi := range snap.groups {
		snap.groups[gi].zones = cloneZones(snap.groups[gi].zones)
	}
	return snap
}

func (s *hybridSnap) RowCount() int    { return s.rowCount }
func (s *hybridSnap) ColumnCount() int { return len(s.colMap) }

// singleGroupScan mirrors HybridStore.singleGroupScan over the captured
// structure.
func (s *hybridSnap) singleGroupScan(want []int) int {
	if len(want) == 0 {
		return -1
	}
	gi := s.colMap[want[0]].group
	if s.groups[gi].width != len(want) {
		return -1
	}
	for j, c := range want {
		loc := s.colMap[c]
		if loc.group != gi || loc.offset != j {
			return -1
		}
	}
	return gi
}

func (s *hybridSnap) ScanColsStable(cols []int) bool {
	want := cols
	if want == nil {
		want = make([]int, len(s.colMap))
		for i := range want {
			want[i] = i
		}
	}
	for _, c := range want {
		if c < 0 || c >= len(s.colMap) {
			return false
		}
	}
	return s.singleGroupScan(want) >= 0
}

func (s *hybridSnap) ScanColsRange(p Partition, cols []int, fn func(id RowID, row []sheet.Value) bool) error {
	want := cols
	if want == nil {
		want = make([]int, len(s.colMap))
		for i := range want {
			want[i] = i
		}
	}
	for _, c := range want {
		if c < 0 || c >= len(s.colMap) {
			return fmt.Errorf("%w: %d", ErrColumnRange, c)
		}
	}
	lo, hi := p.Lo, p.Hi
	if hi > s.slotCount {
		hi = s.slotCount
	}
	hasDeleted := len(s.deleted) > 0
	// Fast path: one aligned group, rows pass through unchanged.
	if gi := s.singleGroupScan(want); gi >= 0 {
		g := &s.groups[gi]
		var rows [][]sheet.Value
		var empty []sheet.Value
		cur := -1
		for slot := lo; slot < hi; slot++ {
			id := RowID(slot + 1)
			if hasDeleted && s.deleted[id] {
				continue
			}
			pi, off := slot/g.rowsPer, slot%g.rowsPer
			if cur != pi {
				var err error
				if _, rows, err = s.cache.getTuplesAt(s.pool, s.epoch, g.pages[pi]); err != nil {
					return err
				}
				cur = pi
			}
			row := empty
			if off < len(rows) {
				row = rows[off]
			} else if empty == nil {
				empty = make([]sheet.Value, g.width)
				row = empty
			}
			if !fn(id, row) {
				return nil
			}
		}
		return nil
	}
	// General path: one cursor per group that holds a requested column.
	type groupCopy struct {
		slot   int
		offset int
	}
	type groupRead struct {
		gi     int
		copies []groupCopy
		pi     int
		rows   [][]sheet.Value
	}
	var reads []*groupRead
	byGroup := make(map[int]*groupRead)
	for j, c := range want {
		loc := s.colMap[c]
		gr, ok := byGroup[loc.group]
		if !ok {
			gr = &groupRead{gi: loc.group, pi: -1}
			byGroup[loc.group] = gr
			reads = append(reads, gr)
		}
		gr.copies = append(gr.copies, groupCopy{slot: j, offset: loc.offset})
	}
	scratch := make([]sheet.Value, len(want))
	for slot := lo; slot < hi; slot++ {
		id := RowID(slot + 1)
		if hasDeleted && s.deleted[id] {
			continue
		}
		for _, gr := range reads {
			g := &s.groups[gr.gi]
			pi, off := slot/g.rowsPer, slot%g.rowsPer
			if gr.pi != pi {
				_, rows, err := s.cache.getTuplesAt(s.pool, s.epoch, g.pages[pi])
				if err != nil {
					return err
				}
				gr.pi, gr.rows = pi, rows
			}
			if off >= len(gr.rows) {
				for _, cp := range gr.copies {
					scratch[cp.slot] = sheet.Empty()
				}
				continue
			}
			row := gr.rows[off]
			for _, cp := range gr.copies {
				scratch[cp.slot] = row[cp.offset]
			}
		}
		if !fn(id, scratch) {
			return nil
		}
	}
	return nil
}

// cloneZones copies a zone pointer slice; the pointed-to pageZones are
// immutable after construction, so sharing them is safe.
func cloneZones(zs []*pageZones) []*pageZones {
	if len(zs) == 0 {
		return nil
	}
	return append([]*pageZones(nil), zs...)
}

// cloneDeleted copies a tombstone set; nil and empty collapse to nil so the
// scan paths' hasDeleted check stays cheap.
func cloneDeleted(m map[RowID]bool) map[RowID]bool {
	if len(m) == 0 {
		return nil
	}
	out := make(map[RowID]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
