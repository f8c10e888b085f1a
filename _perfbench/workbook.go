package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/dataspread/dataspread/internal/core"
	"github.com/dataspread/dataspread/internal/sheet"
)

// Helpers shared by the workloads for building, closing, reopening and
// checking a workbook file.

// loadTable creates a workbook table and fills it in one transaction
// through a prepared INSERT.
func loadTable(c *core.Conn, create, insert string, rows [][]sheet.Value) error {
	ctx := context.Background()
	if _, err := c.QueryContext(ctx, create); err != nil {
		return err
	}
	p, err := c.Prepare(insert)
	if err != nil {
		return err
	}
	if _, err := c.QueryContext(ctx, "BEGIN"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := c.ExecutePrepared(ctx, p, r...); err != nil {
			return err
		}
	}
	_, err = c.QueryContext(ctx, "COMMIT")
	return err
}

// setupSampler times a workload's set-up several times in a run: once for
// the workbook the run uses, and then, whenever due, on a file of its own
// that it closes and removes again. Spread over the run, the median set-up
// covers the same stretch of the host's time as the operations do; back to
// back at the start of the run it moved with whatever the host did in those
// few seconds.
type setupSampler struct {
	every     time.Duration
	last      time.Time
	n         int
	cpu, wall []float64   // seconds
	spent     runtimeSnap // Go runtime counters the extra set-ups moved
}

// time runs and times one set-up.
func (s *setupSampler) time(setup func() error) error {
	sw := startWatch()
	err := setup()
	wall, cpu := sw.elapsed()
	s.last = time.Now()
	if err != nil {
		return err
	}
	s.wall = append(s.wall, wall.Seconds())
	s.cpu = append(s.cpu, cpu.Seconds())
	return nil
}

// due reports whether every has passed since the last set-up ended.
func (s *setupSampler) due() bool { return time.Since(s.last) >= s.every }

// sample times build on a new file under dir, then closes the workbook and
// removes its files.
func (s *setupSampler) sample(dir string, build func(path string) (*core.DataSpread, error)) error {
	s.n++
	path := filepath.Join(dir, fmt.Sprintf("setup-%d.ds", s.n))
	rt := readRuntime()
	defer func() { s.spent = s.spent.add(readRuntime().sub(rt)) }()
	var ds *core.DataSpread
	err := s.time(func() (err error) {
		ds, err = build(path)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := ds.Close(); err != nil {
		return err
	}
	files, err := filepath.Glob(path + "*")
	for _, f := range files {
		err = errors.Join(err, os.Remove(f))
	}
	return err
}

// report stores the median set-up CPU time as setup_s, and the median wall
// time and the count in the fingerprint.
func (s *setupSampler) report(o *outcome) {
	o.endToEnd["setup_s"] = metric{median(s.cpu), "s"}
	o.info["setup_wall_s"] = median(s.wall)
	o.info["setups"] = len(s.cpu)
}

// recovered describes the first open of a workbook after the workload
// closed it.
type recovered struct {
	replayed int
	closed   int64 // file and WAL bytes after the workload's Close
	rest     int64 // file and WAL bytes after the recovery's checkpoint and Close
	pages    int   // pages the checkpointed file references
}

// spaceAmp is the workbook's size at rest over the user bytes it holds. At
// rest the WAL has been checkpointed away, so the figure does not grow with
// the number of writes a run happened to make.
func (r recovered) spaceAmp(user int64) float64 { return float64(r.rest) / float64(user) }

// closeAndRecover closes the workload's instance, records the file and WAL
// size, opens the file once (replaying whatever the WAL holds), checks it,
// checkpoints and closes it again, so later reopens start from a checkpoint,
// and records the size at rest.
func closeAndRecover(ds *core.DataSpread, path string, o *outcome, check string, want []float64) (recovered, error) {
	if ds != nil {
		if err := ds.Close(); err != nil {
			return recovered{}, err
		}
	}
	r := recovered{closed: fileBytes(path)}
	ds, err := core.OpenFile(path, engineOptions())
	if err != nil {
		return r, fmt.Errorf("recover: %w", err)
	}
	r.replayed = ds.ReplayedCommands()
	r.pages = len(ds.DB().DurablePageIDs())
	res, err := ds.QueryContext(context.Background(), check)
	if err == nil {
		checkRow(o, res.Rows, "after recovery, "+check, want)
		err = ds.Checkpoint()
	}
	err = errors.Join(err, ds.Close())
	r.rest = fileBytes(path)
	return r, err
}

// copyWorkbook copies a closed workbook file and its WAL to dst.
func copyWorkbook(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	for _, suffix := range []string{"", ".wal"} {
		in, err := os.Open(src + suffix)
		if err != nil {
			if suffix != "" && errors.Is(err, os.ErrNotExist) {
				continue
			}
			return err
		}
		out, err := os.Create(dst + suffix)
		if err != nil {
			_ = in.Close()
			return err
		}
		_, cerr := io.Copy(out, in)
		_ = in.Close()
		if err := errors.Join(cerr, out.Close()); err != nil {
			return err
		}
	}
	return nil
}

// reopenRuns is how many times a workload reopens its closed workbook; the
// reported open time is the median.
const reopenRuns = 25

// reopenChecks opens the closed workbook at path reopenRuns times, timing
// each OpenFile, and checks that check (a one-row aggregate) returns want.
// It returns the median open time in ms.
func reopenChecks(path string, o *outcome, check string, want []float64) (float64, error) {
	var times []float64
	for i := 0; i < reopenRuns; i++ {
		settle()
		t0 := time.Now()
		ds, err := core.OpenFile(path, engineOptions())
		if err != nil {
			return 0, fmt.Errorf("reopen: %w", err)
		}
		times = append(times, float64(time.Since(t0))/1e6)
		res, err := ds.Query(check)
		if err == nil {
			checkRow(o, res.Rows, check, want)
		}
		if err := errors.Join(err, ds.Close()); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// checkRow checks that rows is one row whose leading columns equal want.
func checkRow(o *outcome, rows [][]sheet.Value, what string, want []float64) {
	if len(rows) != 1 || len(rows[0]) < len(want) {
		o.check(false, "%s returned %v, want one row %v", what, rows, want)
		return
	}
	for j, w := range want {
		got, _ := rows[0][j].AsNumber()
		o.check(got == w, "%s column %d = %v, want %v", what, j, got, w)
	}
}

// fileBytes is the size of a workbook file plus its write-ahead log.
func fileBytes(path string) int64 {
	var n int64
	for _, p := range []string{path, path + ".wal"} {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}
