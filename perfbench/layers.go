package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"gbpolar/internal/cluster"
	"gbpolar/internal/core"
	"gbpolar/internal/obs"
	"gbpolar/internal/sched"
)

// perLayer lists the traced run's metrics with their units, in the order
// of BENCHMARK.json. README.md maps each to the end-to-end metrics it
// should move.
var perLayer = []struct{ name, unit string }{
	{"molecule.parse_ms", "ms"},
	{"surface.sample_ms", "ms"},
	{"surface.qpoints", "count"},
	{"octree.system_ms", "ms"},
	{"system.bytes", "bytes"},
	{"octree.update_ms", "ms"},
	{"octree.moved_atoms", "count"},
	{"ilist.compile_ms", "ms"},
	{"ilist.bytes", "bytes"},
	{"ilist.alloc_mb", "MB"},
	{"ilist.born.far_entries", "count"},
	{"ilist.born.near_pairs", "count"},
	{"ilist.epol.far_entries", "count"},
	{"ilist.epol.near_pairs", "count"},
	{"ilist.far_ratio", "ratio"},
	{"ilist.reuse_ratio", "ratio"},
	{"born.ms", "ms"},
	{"born.ops", "count"},
	{"push.ms", "ms"},
	{"epol.ms", "ms"},
	{"epol.ops", "count"},
	{"repose.ms", "ms"},
	{"sched.steals", "count"},
	{"cluster.bytes_sent", "bytes"},
	{"cluster.comm_s", "s"},
	{"cluster.wait_ms", "ms"},
	{"cluster.imbalance", "ratio"},
	{"cluster.memory_bytes", "bytes"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"heap.alloc_mb", "MB"},
	{"layers.unattributed_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"host.ref_ms", "ms"},
}

// wallClock are the per-layer metrics measured on the wall clock; like the
// end-to-end times they are scaled to the nominal host speed (host.go).
// cluster.comm_s and cluster.wait_ms are modeled times and are not.
var wallClock = map[string]bool{
	"molecule.parse_ms": true, "surface.sample_ms": true, "octree.system_ms": true,
	"octree.update_ms": true, "ilist.compile_ms": true, "born.ms": true, "push.ms": true,
	"epol.ms": true, "repose.ms": true, "gc.pause_ms": true,
}

// meanMetrics are reported as the mean over traced evaluations; every
// other sampled metric is reported as the median of its samples.
var meanMetrics = map[string]bool{"gc.cycles": true, "gc.pause_ms": true, "heap.alloc_mb": true}

// layers records a traced run. Times are taken around each call into a
// layer's public function from outside the program; the phase and
// collective times inside the runners come from the obs spans the runners
// already emit. Every method is a no-op on a nil *layers, so untraced code
// paths call them unconditionally.
type layers struct {
	// samples holds one value per layer call (times) or per traced
	// evaluation (per-evaluation totals).
	samples map[string][]float64
	// firsts holds counts and sizes from the first call that produced
	// them; they depend only on the inputs, so they repeat exactly for a
	// seed.
	firsts map[string]float64

	// Per-evaluation state: the memory statistics at its start and the
	// wall time its timed layer calls and spans cover.
	inEval  bool
	mem0    runtime.MemStats
	covered float64
	// reused and evals count traced evaluations served by cached
	// interaction lists.
	reused, evals int
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, firsts: map[string]float64{}}
}

func (l *layers) sample(name string, v float64) {
	l.samples[name] = append(l.samples[name], v)
}

func (l *layers) first(name string, v float64) {
	if l == nil {
		return
	}
	if _, ok := l.firsts[name]; !ok {
		l.firsts[name] = v
	}
}

// time runs fn, recording its wall time as a sample of name.
func (l *layers) time(name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	ms := msSince(t0)
	l.sample(name, ms)
	l.covered += ms
}

// compile fetches the system's interaction lists. It times the call as a
// compile when it produced new lists, and counts it as a reuse when it
// returned prev, the lists the previous call saw.
func (l *layers) compile(sys *core.System, pool *sched.Pool, prev *core.CompiledLists) *core.CompiledLists {
	if l == nil {
		return sys.Lists(pool)
	}
	a0 := heapAllocBytes()
	t0 := time.Now()
	cl := sys.Lists(pool)
	ms := msSince(t0)
	l.covered += ms
	reused := prev != nil && cl == prev
	if l.inEval {
		l.evals++
		if reused {
			l.reused++
		}
	}
	if reused {
		return cl
	}
	l.sample("ilist.compile_ms", ms)
	l.sample("ilist.alloc_mb", float64(heapAllocBytes()-a0)/(1<<20))
	bf, bn := float64(cl.Born.NumFar()), float64(cl.Born.NumNear()+len(cl.Born.Sym))
	ef, en := float64(cl.Epol.NumFar()), float64(cl.Epol.NumNear()+len(cl.Epol.Sym))
	l.first("ilist.bytes", float64(cl.MemoryBytes()))
	l.first("ilist.born.far_entries", bf)
	l.first("ilist.born.near_pairs", bn)
	l.first("ilist.epol.far_entries", ef)
	l.first("ilist.epol.near_pairs", en)
	l.first("ilist.far_ratio", (bf+ef)/(bf+ef+bn+en))
	return cl
}

func (l *layers) beginEval() {
	if l == nil {
		return
	}
	l.inEval = true
	l.covered = 0
	runtime.ReadMemStats(&l.mem0)
}

// endEval closes a traced evaluation of wall time d; ok reports whether
// it succeeded (a failed one contributes no samples).
func (l *layers) endEval(d time.Duration, ok bool) {
	if l == nil {
		return
	}
	l.inEval = false
	if !ok {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	l.sample("gc.cycles", float64(m.NumGC-l.mem0.NumGC))
	l.sample("gc.pause_ms", float64(m.PauseTotalNs-l.mem0.PauseTotalNs)/1e6)
	l.sample("heap.alloc_mb", float64(m.TotalAlloc-l.mem0.TotalAlloc)/(1<<20))
	ms := d.Seconds() * 1e3
	l.sample("layers.unattributed_pct", 100*(ms-l.covered)/ms)
}

// absorb folds one traced evaluation's obs spans and counters into the
// samples: per-phase wall time (the slowest rank's, for distributed
// runs), op counts summed over ranks, collective wait, and steals. The
// slowest rank's span total counts as covered wall time.
func (l *layers) absorb(o *obs.Obs) {
	if l == nil || o == nil {
		return
	}
	ranks := map[int]map[string]float64{}
	ops := map[string]float64{}
	var waitUS float64
	for _, ev := range o.Trace.Events() {
		if ev.Ph != "X" || (ev.Cat != "phase" && ev.Cat != "collective") {
			continue
		}
		rt := ranks[ev.Rank]
		if rt == nil {
			rt = map[string]float64{}
			ranks[ev.Rank] = rt
		}
		ms := ev.WallDurUS / 1e3
		rt["all"] += ms
		if ev.Cat == "collective" {
			waitUS += ev.Args["wait_us"]
			continue
		}
		rt[ev.Name] += ms
		ops[ev.Name] += ev.Args["ops"]
	}
	var covered float64
	for _, phase := range []string{"born", "push", "epol"} {
		var slowest float64
		for _, rt := range ranks {
			slowest = math.Max(slowest, rt[phase])
		}
		l.sample(phase+".ms", slowest)
	}
	for _, rt := range ranks {
		covered = math.Max(covered, rt["all"])
	}
	l.covered += covered
	l.first("born.ops", ops["born"])
	l.first("epol.ops", ops["epol"])
	l.sample("sched.steals", float64(o.Counter("sched.steals").Value()))
	if len(ranks) > 1 {
		l.sample("cluster.wait_ms", waitUS/1e3)
	}
}

// clusterReport records a distributed run's modeled accounting.
func (l *layers) clusterReport(rep *cluster.Report) {
	if l == nil || rep == nil {
		return
	}
	var sent int64
	var maxComm, maxCompute, sumCompute float64
	for _, r := range rep.PerRank {
		sent += r.BytesSent
		maxComm = math.Max(maxComm, r.CommSeconds)
		maxCompute = math.Max(maxCompute, r.ComputeSeconds)
		sumCompute += r.ComputeSeconds
	}
	l.first("cluster.bytes_sent", float64(sent))
	l.first("cluster.comm_s", maxComm)
	l.first("cluster.memory_bytes", float64(rep.TotalMemoryBytes))
	if sumCompute > 0 {
		l.first("cluster.imbalance", maxCompute/(sumCompute/float64(len(rep.PerRank))))
	}
}

// report sets every per-layer metric of b's result.
func (l *layers) report(b *bench) {
	values := map[string]float64{}
	for name, xs := range l.samples {
		if meanMetrics[name] {
			values[name] = mean(xs)
		} else {
			values[name] = median(xs)
		}
	}
	for name, v := range l.firsts {
		values[name] = v
	}
	f := b.host.factor()
	for name := range wallClock {
		values[name] *= f
	}
	values["host.ref_ms"] = median(b.host.ms)
	if l.evals > 0 {
		values["ilist.reuse_ratio"] = float64(l.reused) / float64(l.evals)
	}
	if untraced := median(b.evalMS); untraced > 0 && len(b.tracedMS) > 0 {
		values["trace.overhead_pct"] = 100 * (median(b.tracedMS) - untraced) / untraced
	} else {
		b.note("trace.overhead_pct needs a traced and an untraced evaluation; reported as 0")
	}
	for _, m := range perLayer {
		b.res.set(m.name, values[m.name], m.unit)
	}
}

func msSince(t time.Time) float64 { return time.Since(t).Seconds() * 1e3 }

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
