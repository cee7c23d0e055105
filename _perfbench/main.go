// Command perfbench is the repository's benchmark. It drives the
// experiment service only through its public entry points (in-process
// daemons from daemon.StartLocal, their HTTP API, the federation
// coordinator, and the layers' exported functions), generates every
// input from a seed, checks every output against the goldens or the
// recorded expected tables, and prints one JSON result line.
//
//	perfbench --workload serve-mix --seed 1 --seconds 30 --trace 0
//
// It runs from the repository root, where it finds the goldens and
// _perfbench/expected.json.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reruns the workload traced and reports the per-layer ledger. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"imagebench/internal/volume"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists
// the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"makespan_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"cpu_per_op_ms", "ms"},
}

// perLayer are the metrics of a traced run; BENCHMARK.json lists the
// same names and units. They are the ledger's metrics that every listed
// workload measures. The ledger (the detail line) also holds the
// timings that only some workloads exercise: the engine run times (no
// serve-mix experiment runs an engine), the jobpoll, sweep and metrics
// routes, the federation's round trips and the sweep timings.
var perLayer = []metricDef{
	{"imaging.nlmeans3_ms", "ms"},
	{"imaging.nlmeans3_seq_ms", "ms"},
	{"imaging.nlmeans3_par_eff", "ratio"},
	{"imaging.nlmeans3_nominal_gflops", "GFLOP/s-computed"},
	{"dmri.fitfa_ms", "ms"},
	{"neuro.segment_ms", "ms"},
	{"neuro.fitblock_ms", "ms"},
	{"neuro.reference_subject_ms", "ms"},
	{"neuro.reference_subject_failed_ratio", "ratio"},
	{"astro.preprocess_ms", "ms"},
	{"astro.coadd_ms", "ms"},
	{"synth.gen_neuro_ms", "ms"},
	{"synth.gen_astro_ms", "ms"},
	{"volume.scratch_miss_ratio", "ratio"},
	{"core.execute_ms", "ms"},
	{"runner.queued_ms", "ms"},
	{"runner.cache_write_ms", "ms"},
	{"runner.reuse_ratio", "ratio"},
	{"results.hit_ratio", "ratio"},
	{"results.disk_hits", "count"},
	{"daemon.submit_p50_ms", "ms"},
	{"daemon.submit_p99_ms", "ms"},
	{"daemon.result_p50_ms", "ms"},
	{"daemon.result_p99_ms", "ms"},
	{"daemon.response_write_errors", "count"},
	{"obs.spans_retained", "count"},
	{"sweep.artifact_bytes", "bytes"},
	{"fed.requests_per_cell", "count"},
	{"fed.steal_ratio", "ratio"},
	{"jsonl.journal_bytes_per_cell", "bytes"},
	{"cpu_share.imaging", "ratio"},
	{"cpu_share.dmri", "ratio"},
	{"cpu_share.volume", "ratio"},
	{"cpu_share.stage", "ratio"},
	{"cpu_share.synth", "ratio"},
	{"cpu_share.sim", "ratio"},
	{"cpu_share.service", "ratio"},
	{"cpu_share.http", "ratio"},
	{"cpu_share.gc", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace_overhead_ratio", "ratio"},
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: neuro-e2e, neuro-denoise, serve-mix or sweep-fed")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	rec := flag.Bool("record", false, "record _perfbench/expected.json and exit")
	flag.Parse()

	// One process at every available CPU: the workloads are defined at
	// GOMAXPROCS = nproc and never pinned lower.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *rec {
		if err := record("."); err != nil {
			logf("perfbench: %v", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("perfbench: usage: --workload {neuro-e2e|neuro-denoise|serve-mix|sweep-fed} --seed N --seconds S --trace {0|1}")
		return 2
	}
	orc, err := loadOracle(".")
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	dir := filepath.Join(".bench_build", "runs", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	defer os.RemoveAll(dir)

	// A wedged round must not hang the caller: give up well inside the
	// three minutes a run may take. The context stops a federated
	// sweep; the timer ends the process if an HTTP op never returns.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	watchdog := time.AfterFunc(175*time.Second, func() {
		logf("perfbench: %s: no result after 175s, giving up", w.name)
		os.Exit(1)
	})
	defer watchdog.Stop()
	e := newEnv(dir, orc, *seed)
	budget := time.Duration(*seconds) * time.Second

	var res *result
	if *trace == 1 {
		res, err = tracedRun(ctx, w, e, budget)
	} else {
		res, err = untracedRun(ctx, w, e, budget)
	}
	if err != nil {
		logf("perfbench: %s: %v", w.name, err)
		return 1
	}
	detail, _ := json.Marshal(res.detail)
	fmt.Printf("detail %s\n", detail)
	out, err := json.Marshal(res.line())
	if err != nil {
		logf("perfbench: %v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// result is one run's outcome.
type result struct {
	ops    []opRec
	defs   []metricDef
	vals   map[string]float64
	detail map[string]any
}

type metricOut struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// line is the result in the benchmark's output format. A metric with
// no value (every op failed) is null.
func (r *result) line() line {
	a, f := counts(r.ops)
	l := line{Correct: f == 0 && a > 0, Attempted: a, Failed: f, Metrics: map[string]metricOut{}}
	for _, d := range r.defs {
		v := r.vals[d.name]
		mo := metricOut{Unit: d.unit}
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			mo.Value = &v
		}
		l.Metrics[d.name] = mo
	}
	return l
}

// measured is one round with the process-level measures around it,
// and the boot times (s) of the idle deployments booted after it.
type measured struct {
	*roundResult
	cpu      time.Duration
	peakHeap uint64
	setups   []float64
}

// runRounds runs rounds until the next one would end past budget (at
// least one), or exactly n rounds when n > 0. With boots set, each
// round is followed by setupsPerRound measured idle boots.
func runRounds(ctx context.Context, w *workload, e *env, budget time.Duration, n int, boots bool) ([]measured, error) {
	var out []measured
	start := time.Now()
	for r := 0; ; r++ {
		runtime.GC()
		stop := sampleHeap()
		cpu0, t := cpuTime(), time.Now()
		rr, err := w.round(ctx, e, r)
		wall, cpu := time.Since(t), cpuTime()-cpu0
		peak := stop()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		m := measured{roundResult: rr, cpu: cpu, peakHeap: peak}
		if boots {
			// Flush what the round wrote and collect what it left
			// first: a deployment's boot is mostly file-system metadata
			// work, which runs several times slower while the host
			// writes back a round's files.
			syscall.Sync()
			runtime.GC()
			if m.setups, err = setupTimes(w, e, r == 0); err != nil {
				return nil, err
			}
		}
		out = append(out, m)
		if n > 0 {
			if len(out) == n {
				return out, nil
			}
			continue
		}
		if time.Since(start)+wall > budget {
			return out, nil
		}
	}
}

// setupsPerRound is how many idle deployments an untraced run boots
// after each round to measure setup_s, the median of all their boot
// times. Spreading the boots over the whole run, like the rounds,
// keeps a brief change in the host's speed from moving setup_s alone.
const setupsPerRound = 32

// setupTimes boots and tears down setupsPerRound deployments and
// returns their boot times. With warm set it first boots one
// unmeasured deployment, so that the process's one-time start-up costs
// are not counted.
func setupTimes(w *workload, e *env, warm bool) ([]float64, error) {
	if warm {
		if _, err := w.setup(e, -1); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	var out []float64
	for i := 0; i < setupsPerRound; i++ {
		d, err := w.setup(e, i)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// endToEndMetrics computes the end-to-end metrics over rounds, with
// setup_s from the idle boot times that follow them. Every other figure
// is the median over rounds of its per-round value, so a burst of host
// contention in a few rounds moves it little. The latency percentiles
// are per round too: a tail pooled over a few rounds of the same batch
// would be the slowest copy of one job, not a typical one.
func endToEndMetrics(w *workload, rounds []measured) (map[string]float64, []opRec) {
	var ops []opRec
	var spans, tputs, heaps, cpus, setups, p50s, tails []float64
	for _, r := range rounds {
		ops = append(ops, r.ops...)
		setups = append(setups, r.setups...)
		a, f := counts(r.ops)
		if f == 0 {
			spans = append(spans, r.makespan.Seconds())
		}
		ok := float64(a - f)
		tputs = append(tputs, ok/r.makespan.Seconds())
		cpus = append(cpus, ms(r.cpu)/ok)
		heaps = append(heaps, float64(r.peakHeap)/(1<<20))
		p50s = append(p50s, percentileMs(r.ops, 50))
		tails = append(tails, percentileMs(r.ops, w.tail))
	}
	return map[string]float64{
		"setup_s":          median(setups),
		"makespan_s":       median(spans),
		"throughput_ops_s": median(tputs),
		"op_p50_ms":        median(p50s),
		"op_tail_ms":       median(tails),
		"peak_heap_mb":     median(heaps),
		"cpu_per_op_ms":    median(cpus),
		"failed_ratio":     failedRatio(ops),
	}, ops
}

// untracedRun measures the workload's rounds and, between them, its
// set-up time.
func untracedRun(ctx context.Context, w *workload, e *env, budget time.Duration) (*result, error) {
	rounds, err := runRounds(ctx, w, e, budget, 0, true)
	if err != nil {
		return nil, err
	}
	m, ops := endToEndMetrics(w, rounds)
	return &result{ops: ops, defs: endToEnd, vals: m, detail: map[string]any{
		"workload": w.name, "rounds": len(rounds), "ops": len(ops), "setups": len(rounds) * setupsPerRound,
		"tail_percentile": w.tail, "metrics": finite(m), "classes": classCounts(ops),
	}}, nil
}

// tracedRun measures the workload untraced for about 40% of the
// budget, then the same number of rounds traced (client timing
// transports, daemon spans and counters, a CPU profile), then times
// the kernel and stage functions directly.
func tracedRun(ctx context.Context, w *workload, e *env, budget time.Duration) (*result, error) {
	plain, err := runRounds(ctx, w, e, budget*2/5, 0, false)
	if err != nil {
		return nil, err
	}
	e.layers = newLayers()
	scratch0 := volume.Scratch.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := runRounds(ctx, w, e, 0, len(plain), false)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	scratch1 := volume.Scratch.Stats()

	pm, plainOps := endToEndMetrics(w, plain)
	tm, ops := endToEndMetrics(w, traced)
	m := map[string]float64{}
	e.layers.metrics(m)
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, c := range shareClasses {
		m["cpu_share."+c] = shares[c]
	}
	m["volume.scratch_miss_ratio"] = ratio(float64(scratch1.Misses-scratch0.Misses), float64(scratch1.Gets-scratch0.Gets))
	m["runtime.alloc_mb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(len(ops))
	m["trace_overhead_ratio"] = roundsWall(traced) / roundsWall(plain)
	if err := probeKernels(e.seed, m); err != nil {
		return nil, err
	}
	return &result{ops: append(plainOps, ops...), defs: perLayer, vals: m, detail: map[string]any{
		"workload": w.name, "rounds": len(plain), "untraced": finite(pm), "traced": finite(tm), "ledger": finite(m),
		"cpu_share_other": shares["other"], "cpu_share_harness": shares["harness"], "classes": classCounts(ops),
	}}, nil
}

func roundsWall(rs []measured) float64 {
	var s float64
	for _, r := range rs {
		s += r.makespan.Seconds()
	}
	return s
}

func classCounts(ops []opRec) map[string]int {
	c := map[string]int{}
	for _, o := range ops {
		c[o.class]++
	}
	return c
}

// finite drops NaN and Inf values, which JSON cannot carry.
func finite(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap samples the live heap (as marked by the latest GC) every
// 2 ms until the returned stop function is called, which returns the
// peak seen above the live heap at the start. Live bytes, unlike heap
// in use, do not depend on when the collector happens to run. Counting
// from the start leaves out what the harness holds across rounds (the
// oracle, earlier rounds' op records), so the figure does not grow
// with the number of rounds a run fits in.
func sampleHeap() func() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	base := read()
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		p := base
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if v := read(); v > p {
					p = v
				}
			case <-done:
				if v := read(); v > p {
					p = v
				}
				peak <- p - base
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}
