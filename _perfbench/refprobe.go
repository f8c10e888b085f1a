package main

import (
	"math/rand"
	"sort"
	"time"
)

// refProbe measures how fast the machine runs while a workload runs. It
// times, in CPU time, a fixed piece of work that is the benchmark's own, not
// the program's: sorting a copy of 16384 floats and summing 16384 words
// gathered at random from a 128 KiB table. It allocates nothing, so its time
// does not depend on the program's heap. The workloads call maybe between
// operations; the run's median probe time rescales every gated time to
// what it would be on a machine where the probe takes refProbeMS.
type refProbe struct {
	last         time.Time
	cpu          samples
	data         []uint64
	idx          []int32
	vals, sorted []float64
}

const (
	refProbeMS    = 2.0 // the probe's CPU time on the reference machine, ms
	refProbeEvery = 200 * time.Millisecond
	refProbeFirst = 5 // samples taken before the workload starts
	refProbeSize  = 1 << 14
)

var refProbeSink uint64

func newRefProbe() *refProbe {
	rng := rand.New(rand.NewSource(1))
	p := &refProbe{data: make([]uint64, refProbeSize), idx: make([]int32, refProbeSize),
		vals: make([]float64, refProbeSize), sorted: make([]float64, refProbeSize)}
	for i := range p.data {
		p.data[i] = rng.Uint64()
		p.idx[i] = int32(rng.Intn(refProbeSize))
		p.vals[i] = rng.Float64()
	}
	for i := 0; i < refProbeFirst; i++ {
		p.sample()
	}
	return p
}

// maybe takes a sample if refProbeEvery has passed since the last one. It
// does nothing on a nil probe.
func (p *refProbe) maybe() {
	if p != nil && time.Since(p.last) >= refProbeEvery {
		p.sample()
	}
}

func (p *refProbe) sample() {
	c0 := cpuNow()
	copy(p.sorted, p.vals)
	sort.Float64s(p.sorted)
	var s uint64
	for _, i := range p.idx {
		s += p.data[i]
	}
	refProbeSink += s
	p.cpu.add(cpuNow() - c0)
	p.last = time.Now()
}

// median is the run's median probe time in ms.
func (p *refProbe) median() float64 { return p.cpu.quantile(0.5) }
