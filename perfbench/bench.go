package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"gbpolar/internal/core"
	"gbpolar/internal/molecule"
	"gbpolar/internal/obs"
)

const (
	// setupReps is how many times a run repeats its set-up; setup_s is
	// the median.
	setupReps = 3
	// pinnedOpsPerSecond fixes the cost model's kernel rate (as the perf
	// gate does), so model_s depends on the op counts and the schedule,
	// not on the host's speed.
	pinnedOpsPerSecond = 1e9
	// minAtoms floors scaled molecule sizes in smoke runs.
	minAtoms = 200
	// maxNotes bounds the notes one run prints.
	maxNotes = 8
)

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"oneshot", runOneshot},
	{"posescan", runPosescan},
	{"mdstep", runMdstep},
	{"cluster", runCluster},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// bench is the state of one run: the result being built, the timing
// samples and, in traced runs, the per-layer recorder.
type bench struct {
	cfg     config
	threads int
	dir     string
	res     *result

	setupS []float64
	// evalMS holds the wall time of every successful untraced
	// evaluation; tracedMS that of every traced one.
	evalMS, tracedMS []float64
	atomsPerEval     int
	modelS           []float64
	relErr           float64

	host hostRef
	lay  *layers // nil in untraced runs
}

// run executes cfg's workload and returns its result. Errors are returned
// only for failures that leave no result to report (unknown workload,
// unwritable inputs, a failed set-up); failed evaluations and checks are
// counted in the result instead.
func run(cfg config) (*result, error) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == cfg.workload })
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, fmt.Errorf("seconds (%g) and scale (%g) must be positive", cfg.seconds, cfg.scale)
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		cfg:     cfg,
		threads: runtime.GOMAXPROCS(0),
		dir:     dir,
		res:     &result{Correct: true, Metrics: map[string]metric{}},
		host:    hostRef{threads: runtime.GOMAXPROCS(0)},
	}
	if cfg.traced {
		b.lay = newLayers()
	}
	b.host.sample()
	if err := workloads[i].run(b); err != nil {
		return nil, err
	}
	b.host.sample()
	if b.res.Attempted == 0 {
		return nil, fmt.Errorf("no evaluation was attempted")
	}
	if cfg.traced {
		b.lay.report(b)
	} else {
		b.reportEndToEnd()
	}
	return b.res, nil
}

// atoms scales a workload's molecule size for smoke runs.
func (b *bench) atoms(n int) int {
	return max(int(float64(n)*b.cfg.scale), minAtoms)
}

// subSeed derives the seed of one generated input from the run's seed.
func (b *bench) subSeed(stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", b.cfg.seed, stream, i)
	return int64(h.Sum64() >> 1)
}

// writeProtein generates a protein-like molecule and writes it as a PQR
// file in the run's directory, returning the path.
func (b *bench) writeProtein(name string, atoms int, seed int64) (string, error) {
	path := filepath.Join(b.dir, name+".pqr")
	if err := molecule.SaveFile(path, molecule.GenProtein(name, atoms, seed)); err != nil {
		return "", fmt.Errorf("write input: %w", err)
	}
	return path, nil
}

// setup runs build setupReps times, timing each repetition, and returns
// the last repetition's engine; build gets the layer recorder so traced
// runs time the set-up's layer calls too. The previous repetition's engine
// is dropped and the heap collected before each repetition, so no
// repetition is charged for another's memory.
func (b *bench) setup(build func(rep int, l *layers) (*engine, error)) (*engine, error) {
	var e *engine
	for rep := 0; rep < setupReps; rep++ {
		e = nil
		runtime.GC()
		b.host.sample()
		t0 := time.Now()
		var err error
		if e, err = build(rep, b.lay); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
	}
	return e, nil
}

// probe is what one evaluation is observed with; both fields are nil in
// an untraced evaluation.
type probe struct {
	lay *layers
	obs *obs.Obs
}

// evaluation is one workload's unit of measured work.
type evaluation struct {
	// prep makes evaluation i's inputs; it is not timed.
	prep func(i int) error
	// timed is the measured call.
	timed func(i int, p probe) error
	// check verifies evaluation i's outputs; it is not timed.
	check func(i int, p probe) error
}

// measure runs ev repeatedly until the measuring window closes, at least
// once. In a traced run every other evaluation is traced and the rest are
// not, so the two can be compared for the tracing overhead. The host
// reference is sampled after each evaluation's untimed preparation, which
// in oneshot ends with a collection, so that little of the previous
// evaluation's GC work runs beside it.
func (b *bench) measure(ev evaluation) {
	start := time.Now()
	var last time.Duration // the previous evaluation's wall time
	for i := 0; i == 0 || time.Since(start).Seconds() < b.cfg.seconds; i++ {
		b.res.Attempted++
		if ev.prep != nil {
			if err := ev.prep(i); err != nil {
				b.fail(i, err)
				continue
			}
		}
		b.host.sampleFor(last)
		var p probe
		if b.lay != nil && i%2 == 0 {
			p = probe{lay: b.lay, obs: obs.New()}
		}
		p.lay.beginEval()
		t0 := time.Now()
		err := ev.timed(i, p)
		d := time.Since(t0)
		last = d
		if err == nil {
			p.lay.absorb(p.obs)
			if ev.check != nil {
				err = ev.check(i, p)
			}
		}
		p.lay.endEval(d, err == nil)
		if err != nil {
			b.fail(i, err)
			continue
		}
		ms := d.Seconds() * 1e3
		if p.lay != nil {
			b.tracedMS = append(b.tracedMS, ms)
		} else {
			b.evalMS = append(b.evalMS, ms)
		}
	}
}

// fail counts a failed evaluation.
func (b *bench) fail(i int, err error) {
	b.res.Failed++
	b.res.Correct = false
	b.note("evaluation %d failed: %v", i, err)
}

// check runs a post-loop output check; a failure marks the run incorrect.
func (b *bench) check(what string, fn func() error) {
	if err := fn(); err != nil {
		b.res.Correct = false
		b.note("check %q failed: %v", what, err)
	}
}

func (b *bench) note(format string, args ...any) {
	if len(b.res.notes) < maxNotes {
		b.res.notes = append(b.res.notes, fmt.Sprintf(format, args...))
	}
}

// recordModel keeps a shared-memory result's modeled time, rescaled from
// the host-calibrated kernel rate the runner used to the pinned one.
func (b *bench) recordModel(res *core.Result) {
	b.modelS = append(b.modelS, res.ModelSeconds*core.CalibratedOpsPerSecond()/pinnedOpsPerSecond)
}

// endToEnd lists the untraced run's metrics with their units, in the
// order of BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"atoms_per_s", "1/s"},
	{"eval_p50_ms", "ms"},
	{"eval_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"epol_rel_err", "ratio"},
	{"model_s", "s"},
	{"success_rate", "ratio"},
	{"setup_s", "s"},
}

func (b *bench) reportEndToEnd() {
	r := b.res
	f := b.host.factor()
	values := map[string]float64{
		"setup_s":      f * median(b.setupS),
		"eval_p50_ms":  f * median(b.evalMS),
		"peak_rss_mb":  peakRSSMB(),
		"epol_rel_err": b.relErr,
		"model_s":      median(b.modelS),
		"success_rate": float64(r.Attempted-r.Failed) / float64(r.Attempted),
	}
	if m := mean(b.evalMS); m > 0 {
		values["atoms_per_s"] = float64(b.atomsPerEval) / (f * m / 1e3)
	}
	tail, label := tail(b.evalMS)
	values["eval_tail_ms"] = f * tail
	b.note("eval_tail_ms is the %s of %d evaluations", label, len(b.evalMS))
	b.note("raw wall clock: eval p50 %.4g ms, tail %.4g ms, set-up %.4g s; host factor %.4f",
		median(b.evalMS), tail, median(b.setupS), f)
	for _, m := range endToEnd {
		r.set(m.name, values[m.name], m.unit)
	}
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, with its label ("p61"). A tail is never below the
// median: with 2×tailBeyond samples or fewer no percentile qualifies,
// and the maximum is returned instead, labelled as such.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= 2*tailBeyond {
		return s[n-1], fmt.Sprintf("maximum (%d samples or fewer)", 2*tailBeyond)
	}
	k := n - tailBeyond // 1-based rank with exactly tailBeyond samples above it
	return s[k-1], fmt.Sprintf("p%d", 100*k/n)
}
