package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// The smoke test runs every workload for a few seconds, untraced and traced,
// those BENCHMARK.json lists and wire-oltp, which it does not (see main.go),
// with all its checks on, and asserts that each run is correct, that every
// failed operation is counted under a name (failures are the program's and
// are logged, not hidden), and that it emits exactly the metrics
// BENCHMARK.json names, with the units it names.

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "dataspreadd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/dataspread/dataspread/cmd/dataspreadd").CombinedOutput(); err != nil {
		t.Fatalf("building dataspreadd: %v\n%s", err, out)
	}
	units := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, x := range list {
			m[x.Name] = x.Unit
		}
		return m
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not have", w.Name)
		}
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		run := workloads[name]
		for _, traced := range []bool{false, true} {
			e := &env{seed: 5, seconds: 2, daemon: bin, dir: t.TempDir()}
			want, got := units(spec.EndToEnd), map[string]metric(nil)
			if traced {
				e.tr = newTracer()
			}
			out, err := run(e)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			got = out.endToEnd
			if traced {
				want, got = units(spec.PerLayer), out.perLayer
			}
			if out.mismatch != nil {
				t.Errorf("%s (traced %v): incorrect: %v", name, traced, out.mismatch)
			}
			var named int64
			for _, n := range out.failures {
				named += n
			}
			if out.attempted < 1 || out.failed != named || out.failed > out.attempted {
				t.Errorf("%s (traced %v): %d of %d operations failed, %d of them named: %v", name, traced, out.failed, out.attempted, named, out.failures)
			} else if out.failed > 0 {
				t.Logf("%s (traced %v): %d of %d operations failed: %v", name, traced, out.failed, out.attempted, out.failures)
			}
			for name, unit := range want {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s not emitted", name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s (traced %v): metric %s in %s, BENCHMARK.json says %s", name, traced, name, m.Unit, unit)
				}
			}
			var extra []string
			for name := range got {
				if _, ok := want[name]; !ok {
					extra = append(extra, name)
				}
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s (traced %v): metrics missing from BENCHMARK.json: %v", name, traced, extra)
			}
			if !traced {
				for name, m := range got {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, name, m.Value)
					}
				}
			}
		}
	}
}
