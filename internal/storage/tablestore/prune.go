package tablestore

import (
	"fmt"

	"github.com/dataspread/dataspread/internal/sheet"
)

// Page-level data skipping. Every layout serves two skipping entry points:
// TableSnap.Partitions with zone bounds (snapshot scans never visit the
// page ranges the bounds rule out) and Store.GetColsPruned (index fetches
// drop a candidate whose page is ruled out without decoding it). A skip is
// taken only when a page's zone summary PROVES no stored value can satisfy a
// pushed conjunct, so pruned and unpruned scans are row-for-row identical.

// --- row layout (page-index space) ---

// rowPageSkips reports whether any bound proves page pi matchless.
func rowPageSkips(zones []*pageZones, pi int, bounds []ZoneBound) bool {
	if pi >= len(zones) || zones[pi] == nil {
		return false
	}
	pz := zones[pi]
	for i := range bounds {
		b := &bounds[i]
		if b.Col >= 0 && b.Col < len(pz.cols) && pz.cols[b.Col].Skips(*b) {
			return true
		}
	}
	return false
}

// GetColsPruned implements Store.
func (s *RowStore) GetColsPruned(id RowID, cols []int, bounds []ZoneBound) ([]sheet.Value, bool, error) {
	if pi, ok := s.dir[id]; ok && rowPageSkips(s.zones, pi, bounds) {
		return nil, true, nil
	}
	row, err := s.GetCols(id, cols)
	return row, false, err
}

// Partitions implements TableSnap. Row partitions are page indexes, so kept
// runs translate directly.
func (s *rowSnap) Partitions(n int, _ []int, bounds []ZoneBound) ([]Partition, int, int) {
	total := len(s.pages)
	kept := complementParts(total, skipIntervalsFor(total, 1, total, func(pi int) bool {
		return rowPageSkips(s.zones, pi, bounds)
	}))
	read := overlapCount(kept, 1, total)
	return splitRuns(kept, n), read, total - read
}

// --- column layout (slot space, uniform valuesPerPage granularity) ---

// colChunkSkips reports whether any bound proves slot chunk ci matchless.
func colChunkSkips(cols []colPages, ci int, bounds []ZoneBound) bool {
	for i := range bounds {
		b := &bounds[i]
		if b.Col < 0 || b.Col >= len(cols) {
			continue
		}
		zs := cols[b.Col].zones
		if ci < len(zs) && zs[ci] != nil && len(zs[ci].cols) == 1 && zs[ci].cols[0].Skips(*b) {
			return true
		}
	}
	return false
}

// GetColsPruned implements Store.
func (s *ColStore) GetColsPruned(id RowID, cols []int, bounds []ZoneBound) ([]sheet.Value, bool, error) {
	if id > 0 && id < s.nextID {
		if ci := int(id-1) / valuesPerPage; colChunkSkips(s.cols, ci, bounds) {
			return nil, true, nil
		}
	}
	row, err := s.GetCols(id, cols)
	return row, false, err
}

// Partitions implements TableSnap. Column partitions are slots; every
// wanted column reads one page per kept chunk of valuesPerPage slots.
func (s *colSnap) Partitions(n int, cols []int, bounds []ZoneBound) ([]Partition, int, int) {
	want := len(cols)
	if cols == nil {
		want = len(s.cols)
	}
	nChunks := (s.slotCount + valuesPerPage - 1) / valuesPerPage
	kept := complementParts(s.slotCount, skipIntervalsFor(nChunks, valuesPerPage, s.slotCount, func(ci int) bool {
		return colChunkSkips(s.cols, ci, bounds)
	}))
	read := overlapCount(kept, valuesPerPage, nChunks)
	return splitRuns(kept, n), read * want, (nChunks - read) * want
}

// --- hybrid layout (slot space, per-group granularity) ---

// skipRuns unions each bound's skippable slot intervals; bounds land
// on different groups with different rows-per-page, so intervals are
// computed per bound and merged.
func (s *hybridSnap) skipRuns(bounds []ZoneBound) []Partition {
	var skip []Partition
	for i := range bounds {
		b := &bounds[i]
		if b.Col < 0 || b.Col >= len(s.colMap) {
			continue
		}
		loc := s.colMap[b.Col]
		g := &s.groups[loc.group]
		if g.width == 0 || g.rowsPer <= 0 {
			continue
		}
		cur := skipIntervalsFor(len(g.zones), g.rowsPer, s.slotCount, func(pi int) bool {
			pz := g.zones[pi]
			return pz != nil && loc.offset < len(pz.cols) && pz.cols[loc.offset].Skips(*b)
		})
		skip = unionParts(skip, cur)
	}
	return skip
}

// pageStats accumulates page counts over the distinct groups serving
// the wanted columns.
func (s *hybridSnap) pageStats(kept []Partition, cols []int) (total, read int) {
	wantGroups := make(map[int]bool)
	if cols == nil {
		for _, loc := range s.colMap {
			wantGroups[loc.group] = true
		}
	} else {
		for _, c := range cols {
			if c >= 0 && c < len(s.colMap) {
				wantGroups[s.colMap[c].group] = true
			}
		}
	}
	for gi := range wantGroups {
		g := &s.groups[gi]
		if g.width == 0 || g.rowsPer <= 0 {
			continue
		}
		n := (s.slotCount + g.rowsPer - 1) / g.rowsPer
		if n > len(g.pages) {
			n = len(g.pages)
		}
		total += n
		read += overlapCount(kept, g.rowsPer, n)
	}
	return total, read
}

// GetColsPruned implements Store.
func (s *HybridStore) GetColsPruned(id RowID, cols []int, bounds []ZoneBound) ([]sheet.Value, bool, error) {
	if id > 0 && id < s.nextID {
		slot := int(id - 1)
		for i := range bounds {
			b := &bounds[i]
			if b.Col < 0 || b.Col >= len(s.colMap) {
				continue
			}
			loc := s.colMap[b.Col]
			g := &s.groups[loc.group]
			if g.width == 0 || g.rowsPer <= 0 {
				continue
			}
			pi := slot / g.rowsPer
			if pi < len(g.zones) && g.zones[pi] != nil && loc.offset < len(g.zones[pi].cols) &&
				g.zones[pi].cols[loc.offset].Skips(*b) {
				return nil, true, nil
			}
		}
	}
	row, err := s.GetCols(id, cols)
	return row, false, err
}

// Partitions implements TableSnap. Hybrid partitions are slots.
func (s *hybridSnap) Partitions(n int, cols []int, bounds []ZoneBound) ([]Partition, int, int) {
	kept := complementParts(s.slotCount, s.skipRuns(bounds))
	total, read := s.pageStats(kept, cols)
	return splitRuns(kept, n), read, total - read
}

// --- zone validation (fuzz/test support) ---

// ValidateZones re-decodes every summarised page and checks that its catalog
// zone covers every stored value — the invariant that makes skipping safe.
func (s *RowStore) ValidateZones() error {
	for pi := range s.pages {
		if pi >= len(s.zones) || s.zones[pi] == nil {
			continue
		}
		_, rows, err := s.readPage(pi)
		if err != nil {
			return err
		}
		if err := validateTuplZones(s.zones[pi], rows, s.width, "row", pi); err != nil {
			return err
		}
	}
	return nil
}

// ValidateZones re-decodes every summarised column page (see RowStore).
func (s *ColStore) ValidateZones() error {
	for c := range s.cols {
		for pi := range s.cols[c].pages {
			zs := s.cols[c].zones
			if pi >= len(zs) || zs[pi] == nil {
				continue
			}
			vals, err := s.readColPage(c, pi)
			if err != nil {
				return err
			}
			if len(zs[pi].cols) != 1 {
				return fmt.Errorf("tablestore: column %d page %d zone has %d columns", c, pi, len(zs[pi].cols))
			}
			z := &zs[pi].cols[0]
			for off, v := range vals {
				if !z.covers(v) {
					return fmt.Errorf("tablestore: column %d page %d slot %d: zone does not cover %v", c, pi, off, v)
				}
			}
		}
	}
	return nil
}

// ValidateZones re-decodes every summarised group page (see RowStore).
func (s *HybridStore) ValidateZones() error {
	for gi := range s.groups {
		g := &s.groups[gi]
		for pi := range g.pages {
			if pi >= len(g.zones) || g.zones[pi] == nil {
				continue
			}
			_, rows, err := s.readGroupPage(gi, pi)
			if err != nil {
				return err
			}
			if err := validateTuplZones(g.zones[pi], rows, g.width, fmt.Sprintf("group %d", gi), pi); err != nil {
				return err
			}
		}
	}
	return nil
}

func validateTuplZones(pz *pageZones, rows [][]sheet.Value, width int, what string, pi int) error {
	if len(pz.cols) != width {
		return fmt.Errorf("tablestore: %s page %d zone has %d columns, want %d", what, pi, len(pz.cols), width)
	}
	for i, row := range rows {
		for c := 0; c < width; c++ {
			v := sheet.Empty()
			if c < len(row) {
				v = row[c]
			}
			if !pz.cols[c].covers(v) {
				return fmt.Errorf("tablestore: %s page %d row %d col %d: zone does not cover %v", what, pi, i, c, v)
			}
		}
	}
	return nil
}
