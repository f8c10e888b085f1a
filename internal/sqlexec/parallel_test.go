package sqlexec

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/dataspread/dataspread/internal/sheet"
	"github.com/dataspread/dataspread/internal/storage/tablestore"
)

// The parallel executor must be output-equivalent to the serial one: every
// query here runs once under SetForceSerial(true) (the golden) and once in
// parallel mode, on identical data, and the results must match row for row.
// Integer-valued data keeps SUM/AVG exact, so the reassociation a parallel
// fold introduces cannot perturb float results.

// parTestRows is comfortably above parMinRows so the parallel fragments
// actually engage.
const parTestRows = parMinRows + 1200

func newParDB(t *testing.T, layout Layout) *Database {
	t.Helper()
	db := NewDatabase(Config{Layout: layout, GroupSize: 2, Workers: 4})
	mustExecP(t, db, `CREATE TABLE items (id NUMBER PRIMARY KEY, grp NUMBER, qty NUMBER, label STRING)`)
	mustExecP(t, db, `CREATE TABLE grps (gid NUMBER PRIMARY KEY, name STRING)`)
	for i := 0; i < parTestRows; i++ {
		if _, err := db.Insert("items", []sheet.Value{
			sheet.Number(float64(i)),
			sheet.Number(float64(i % 37)),
			sheet.Number(float64(i%101 - 50)),
			sheet.String_(fmt.Sprintf("item-%d", i%13)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// More groups than fit one morsel, and a few gids with no items so LEFT
	// JOIN padding differs from the inner join.
	for g := 0; g < 45; g++ {
		if _, err := db.Insert("grps", []sheet.Value{
			sheet.Number(float64(g)), sheet.String_(fmt.Sprintf("group-%d", g)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A handful of deletes so snapshots scan around tombstones.
	for _, id := range []int64{3, 500, 4000} {
		if err := db.Delete("items", mustFindPK(t, db, id)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustExecP(t *testing.T, db *Database, sql string) {
	t.Helper()
	if _, err := db.NewSession(nil).Query(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func mustFindPK(t *testing.T, db *Database, id int64) tablestore.RowID {
	t.Helper()
	r, ok, err := db.FindByKey("items", []sheet.Value{sheet.Number(float64(id))})
	if err != nil || !ok {
		t.Fatalf("FindByKey(%d): ok=%v err=%v", id, ok, err)
	}
	return r
}

var parGoldenQueries = []string{
	// Full scan and pushed-predicate scans.
	`SELECT id, grp, qty, label FROM items`,
	`SELECT id, label FROM items WHERE qty > 10`,
	`SELECT id FROM items WHERE label = 'item-7' AND qty <> 0`,
	// Aggregation: implicit single group and explicit GROUP BY with every
	// accumulator kind, HAVING, and expression keys.
	`SELECT COUNT(*), SUM(qty), MIN(qty), MAX(label) FROM items`,
	`SELECT grp, COUNT(*), SUM(qty), AVG(qty), MIN(id), MAX(id) FROM items GROUP BY grp ORDER BY grp`,
	`SELECT grp, COUNT(*) FROM items GROUP BY grp HAVING SUM(qty) > 0 ORDER BY grp`,
	`SELECT grp + 1, COUNT(*) FROM items WHERE id < 5000 GROUP BY grp + 1 ORDER BY 1`,
	// DISTINCT aggregates must fall back to serial and still agree.
	`SELECT COUNT(DISTINCT label) FROM items`,
	// Hash joins: ON equi-key (inner and LEFT, both directions of match
	// skew) and a cross-source residual predicate.
	`SELECT i.id, g.name FROM items i JOIN grps g ON i.grp = g.gid WHERE i.qty > 25 ORDER BY i.id`,
	`SELECT g.gid, i.id FROM grps g LEFT JOIN items i ON g.gid = i.grp AND i.qty > 48 ORDER BY g.gid, i.id`,
	`SELECT COUNT(*) FROM items i JOIN grps g ON i.grp = g.gid AND i.qty <> g.gid`,
	// DISTINCT / ORDER BY / LIMIT downstream of parallel fragments.
	`SELECT DISTINCT label FROM items ORDER BY label`,
	`SELECT id, qty FROM items WHERE qty >= 0 ORDER BY qty, id LIMIT 40 OFFSET 5`,
}

func TestParallelGoldenEquivalence(t *testing.T) {
	for _, layout := range []Layout{LayoutRow, LayoutColumn, LayoutHybrid} {
		t.Run(string(layout), func(t *testing.T) {
			db := newParDB(t, layout)
			sess := db.NewSession(nil)
			for _, q := range parGoldenQueries {
				db.SetForceSerial(true)
				want, err := sess.Query(q)
				if err != nil {
					t.Fatalf("serial %s: %v", q, err)
				}
				db.SetForceSerial(false)
				got, err := sess.Query(q)
				if err != nil {
					t.Fatalf("parallel %s: %v", q, err)
				}
				if !reflect.DeepEqual(want.Columns, got.Columns) {
					t.Fatalf("%s: columns %v != %v", q, got.Columns, want.Columns)
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("%s: parallel result diverged from serial (%d vs %d rows)",
						q, len(got.Rows), len(want.Rows))
				}
			}
		})
	}
}

// TestParallelStreamGoldenEquivalence holds the streaming executor to the
// same standard: for every layout, each query streams under the default
// configuration and under each forced mode (serial, full scan, no zone
// skipping), and every run must match the serial materialising result row
// for row. The queries cover full scans, primary-key point and range paths,
// zone-skippable ranges, a filtered sub-select source and LIMIT/OFFSET.
func TestParallelStreamGoldenEquivalence(t *testing.T) {
	queries := []string{
		`SELECT id, qty FROM items WHERE qty > 30`,
		`SELECT label FROM items WHERE grp = 11 LIMIT 17 OFFSET 3`,
		`SELECT id FROM items`,
		`SELECT id, label FROM items WHERE id = 4321`,
		`SELECT id, qty FROM items WHERE id = 500`,
		`SELECT id, grp FROM items WHERE id BETWEEN 1000 AND 1300 AND qty > 0`,
		`SELECT id FROM items WHERE id IN (7, 3, 4100, 99999)`,
		`SELECT id, qty FROM items WHERE id >= 5000`,
		`SELECT id FROM items WHERE id < 200 AND label = 'item-4'`,
		`SELECT x.id, x.qty FROM (SELECT id, qty FROM items WHERE qty < -40) x WHERE x.id > 2500`,
		`SELECT id, label FROM items WHERE id > 3000 LIMIT 25 OFFSET 10`,
		`SELECT id FROM items LIMIT 5 OFFSET 5190`,
		`SELECT qty FROM items WHERE id < 40 LIMIT 0`,
	}
	modes := []struct {
		name string
		set  func(db *Database, on bool)
	}{
		{"default", func(*Database, bool) {}},
		{"serial", (*Database).SetForceSerial},
		{"fullscan", (*Database).SetForceFullScan},
		{"noskip", (*Database).SetForceNoSkip},
	}
	for _, layout := range []Layout{LayoutRow, LayoutColumn, LayoutHybrid} {
		t.Run(string(layout), func(t *testing.T) {
			db := newParDB(t, layout)
			sess := db.NewSession(nil)
			for _, q := range queries {
				db.SetForceSerial(true)
				want, err := sess.Query(q)
				if err != nil {
					t.Fatalf("serial %s: %v", q, err)
				}
				db.SetForceSerial(false)
				for _, m := range modes {
					m.set(db, true)
					rows, err := sess.QueryStream(context.Background(), q)
					if err != nil {
						t.Fatalf("stream %s (%s): %v", q, m.name, err)
					}
					var got [][]sheet.Value
					for rows.Next() {
						got = append(got, rows.Row())
					}
					err = rows.Err()
					m.set(db, false)
					if err != nil {
						t.Fatalf("stream %s (%s): %v", q, m.name, err)
					}
					if !reflect.DeepEqual(want.Columns, rows.Columns()) {
						t.Fatalf("%s (%s): columns %v, want %v", q, m.name, rows.Columns(), want.Columns)
					}
					if len(got) != len(want.Rows) {
						t.Fatalf("%s (%s): streamed %d rows, want %d", q, m.name, len(got), len(want.Rows))
					}
					if len(got) > 0 && !reflect.DeepEqual(want.Rows, got) {
						t.Fatalf("%s (%s): streamed rows diverged from serial result", q, m.name)
					}
				}
			}
		})
	}
}

// TestParallelWorkersConfig pins the worker-pool sizing rules.
func TestParallelWorkersConfig(t *testing.T) {
	db := NewDatabase(Config{Workers: 3})
	if got := db.parWorkers(); got != 3 {
		t.Fatalf("parWorkers = %d, want 3", got)
	}
	db.SetForceSerial(true)
	if got := db.parWorkers(); got != 1 {
		t.Fatalf("parWorkers under SetForceSerial = %d, want 1", got)
	}
	db.SetForceSerial(false)
	db.SetWorkers(7)
	if got := db.parWorkers(); got != 7 {
		t.Fatalf("parWorkers after SetWorkers(7) = %d, want 7", got)
	}
	db.SetWorkers(0)
	if got := db.parWorkers(); got != 3 {
		t.Fatalf("parWorkers after SetWorkers(0) = %d, want Config value 3", got)
	}
	if got := NewDatabase(Config{}).parWorkers(); got < 1 {
		t.Fatalf("default parWorkers = %d, want >= 1", got)
	}
}
