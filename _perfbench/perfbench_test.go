package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"imagebench/internal/core"
)

// The tests run in perfbench/, so the repository root is "..".
const testRoot = ".."

func TestSameSeedSameOps(t *testing.T) {
	gens := map[string]func(int64) any{
		"neuro-e2e":     func(s int64) any { return neuroE2EOps(s) },
		"neuro-denoise": func(s int64) any { return neuroDenoiseOps(s) },
		"serve-mix/0":   func(s int64) any { return serveOps(s, 0, 500) },
		"serve-mix/1":   func(s int64) any { return serveOps(s, 1, 500) },
		"sweep-fed":     func(s int64) any { return fedSpec(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different op sequences", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", name)
		}
	}
	if reflect.DeepEqual(serveOps(7, 0, 500), serveOps(7, 1, 500)) {
		t.Error("serve-mix: both clients got the same sequence")
	}
}

// Every point a generator can draw has an expected output, every
// neuro batch has distinct keys (no cache hits), and every seed asks
// for the same compute: the same subject counts per experiment and
// the same astroVisits points.
func TestGeneratedPointsAreRecordedAndStratified(t *testing.T) {
	space := map[point]bool{}
	for _, p := range allPoints() {
		space[p] = true
	}
	shape := func(ops []op) map[point]int {
		m := map[point]int{}
		for _, o := range ops {
			m[point{exp: o.pt.exp, subjects: o.pt.subjects}]++
		}
		return m
	}
	want := shape(neuroE2EOps(1))
	for seed := int64(1); seed <= 40; seed++ {
		for _, batch := range [][]op{neuroE2EOps(seed), neuroDenoiseOps(seed)} {
			seen := map[point]bool{}
			for _, o := range batch {
				if !space[o.pt] {
					t.Fatalf("seed %d: %s is outside the recorded space", seed, o.pt)
				}
				if seen[o.pt] {
					t.Fatalf("seed %d: %s drawn twice in one batch", seed, o.pt)
				}
				seen[o.pt] = true
			}
		}
		if got := shape(neuroE2EOps(seed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: neuro-e2e mix %v, want %v", seed, got, want)
		}
		for c := 0; c < 2; c++ {
			for _, o := range serveOps(seed, c, 300) {
				if !space[o.pt] {
					t.Fatalf("seed %d: %s is outside the recorded space", seed, o.pt)
				}
				for _, e := range o.sweep.Experiments {
					if p := fedPoint(e, o.sweep.Overrides[0]); !space[p] {
						t.Fatalf("seed %d: sweep cell %s is outside the recorded space", seed, p)
					}
				}
			}
		}
		spec := fedSpec(seed)
		visits := map[int]int{}
		for _, e := range spec.Experiments {
			for _, o := range spec.Overrides {
				if p := fedPoint(e, o); !space[p] {
					t.Fatalf("seed %d: cell %s is outside the recorded space", seed, p)
				}
			}
		}
		for _, o := range spec.Overrides {
			visits[fedPoint("", o).visits]++
		}
		if !reflect.DeepEqual(visits, map[int]int{0: 4, 2: 1, 3: 1}) {
			t.Fatalf("seed %d: astroVisits points %v", seed, visits)
		}
	}
}

func testOracle(t *testing.T) *oracle {
	t.Helper()
	o, err := loadOracle(testRoot)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// alterFirstCell changes one digit of the first cell of a table's JSON.
func alterFirstCell(t *testing.T, table []byte) []byte {
	t.Helper()
	s := string(table)
	i := strings.Index(s, `"cells"`)
	if i < 0 {
		t.Fatal("table has no cells")
	}
	for j := i; j < len(s); j++ {
		if c := s[j]; c >= '1' && c <= '8' {
			return []byte(s[:j] + string(c+1) + s[j+1:])
		}
	}
	t.Fatal("no digit to alter")
	return nil
}

func TestOracleRejectsAlteredCell(t *testing.T) {
	o := testOracle(t)

	golden, err := os.ReadFile(testRoot + "/" + goldenDir + "/abl-myria-pushdown.json")
	if err != nil {
		t.Fatal(err)
	}
	p := point{exp: "abl-myria-pushdown"}
	if err := o.check(p, golden); err != nil {
		t.Fatalf("golden table rejected: %v", err)
	}
	if err := o.check(p, alterFirstCell(t, golden)); err == nil {
		t.Fatal("golden comparison accepted a table with one altered cell")
	}

	p = point{exp: "abl-myria-pushdown", nodes: 5}
	e, err := core.Lookup(p.exp)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(context.Background(), core.Quick().Apply(p.overrides()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(tab, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(p, b); err != nil {
		t.Fatalf("recorded table rejected: %v", err)
	}
	if err := o.check(p, alterFirstCell(t, b)); err == nil {
		t.Fatal("recorded comparison accepted a table with one altered cell")
	}
	if err := o.check(point{exp: "abl-myria-pushdown", nodes: 99}, b); err == nil {
		t.Fatal("a point outside the recorded space was accepted")
	}
}

func opsMs(okMs []int, failed int) []opRec {
	var ops []opRec
	for _, m := range okMs {
		ops = append(ops, opRec{dur: time.Duration(m) * time.Millisecond, ok: true})
	}
	for i := 0; i < failed; i++ {
		ops = append(ops, opRec{dur: time.Millisecond})
	}
	return ops
}

func TestPercentilesAndFailedRatio(t *testing.T) {
	ops := opsMs([]int{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 0)
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentileMs(ops, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if got := failedRatio(ops); got != 0 {
		t.Errorf("failed ratio %v, want 0", got)
	}

	// A failed op misses every latency limit: it ranks above every
	// success, even one that took far longer than the failure did.
	ops = opsMs([]int{10, 1, 9, 2, 8, 3, 7, 4, 6}, 1)
	if got := percentileMs(ops, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := percentileMs(ops, 90); got != 10 {
		t.Errorf("p90 with one failure in ten = %v, want 10", got)
	}
	if got := failedRatio(ops); got != 0.1 {
		t.Errorf("failed ratio %v, want 0.1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestEveryOpFailed(t *testing.T) {
	w := workloads["neuro-denoise"]
	r := measured{roundResult: &roundResult{makespan: time.Second, ops: opsMs(nil, 4)}, cpu: time.Second}
	m, ops := endToEndMetrics(w, []measured{r, r})
	if got := m["failed_ratio"]; got != 1 {
		t.Errorf("failed ratio %v, want 1", got)
	}
	if got := m["throughput_ops_s"]; got != 0 {
		t.Errorf("throughput %v, want 0 successful ops/s", got)
	}
	res := &result{ops: ops, defs: endToEnd, vals: m}
	l := res.line()
	if l.Correct || l.Attempted != 8 || l.Failed != 8 {
		t.Errorf("line correct=%v attempted=%d failed=%d, want false/8/8", l.Correct, l.Attempted, l.Failed)
	}
	for _, name := range []string{"makespan_s", "op_p50_ms", "op_tail_ms", "cpu_per_op_ms"} {
		if v := l.Metrics[name].Value; v != nil {
			t.Errorf("%s = %v with every op failed, want null", name, *v)
		}
	}
	if _, err := json.Marshal(l); err != nil {
		t.Fatal(err)
	}
}

// The load generator never holds more connections than there are
// CPUs. serve-mix, the widest closed loop, and sweep-fed, whose
// coordinator replicates to busy workers, each run a round against
// real daemons and their dialer's peak is read. sweep-fed also runs
// with a limit of one, as on a 1-CPU host, where its two executors
// must share the one connection.
func TestGeneratorConnectionsAtMostNproc(t *testing.T) {
	if testing.Short() {
		t.Skip("runs serve-mix and sweep-fed rounds")
	}
	o := testOracle(t)
	for _, c := range []struct {
		name  string
		limit int64
		round func(context.Context, *env, int) (*roundResult, error)
	}{
		{"serve-mix", 0, serveRound},
		{"sweep-fed", 0, fedRound},
		{"sweep-fed/limit1", 1, fedRound},
	} {
		e := newEnv(t.TempDir(), o, 3)
		if c.limit > 0 {
			e.conns.limit = c.limit
		}
		rr, err := c.round(context.Background(), e, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a, f := counts(rr.ops); f != 0 || a == 0 {
			t.Fatalf("%s round: %d of %d ops failed", c.name, f, a)
		}
		t.Logf("%s: peak %d open connections", c.name, e.conns.peak.Load())
		if peak := e.conns.peak.Load(); peak > e.conns.limit || peak == 0 {
			t.Errorf("%s: peak open connections %d, want 1..%d", c.name, peak, e.conns.limit)
		}
		// A connection returned to the pool just as the round ended
		// closes when the stopped daemon hangs up.
		for i := 0; e.conns.open.Load() != 0 && i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if open := e.conns.open.Load(); open != 0 {
			t.Errorf("%s: %d connections still open after the round", c.name, open)
		}
	}
}

// The metric lists here and in BENCHMARK.json agree.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(testRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), here %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestClassify(t *testing.T) {
	readLoop := []string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "bufio.(*Reader).Peek", "net/http.(*persistConn).readLoop"}
	cases := []struct {
		want    string
		harness bool
		stack   []string
	}{
		{"imaging", false, []string{"math.Exp", "imagebench/internal/imaging.nlmeansSlab", "imagebench/internal/imaging.(*pool).run.func1"}},
		{"service", false, []string{"encoding/json.Marshal", "imagebench/internal/daemon.(*server).writeJSON", "net/http.HandlerFunc.ServeHTTP"}},
		{"http", false, []string{"syscall.Syscall", "internal/poll.(*FD).Write", "net/http.(*conn).serve"}},
		{"gc", false, []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"gc", true, []string{"runtime.scanobject", "runtime.gcAssistAlloc", "main.fetchChecked"}},
		{"dmri", false, []string{"imagebench/internal/linalg.Solve", "imagebench/internal/dmri.FitFA"}},
		{"other", false, []string{"runtime.futex", "runtime.mcall"}},
		// The oracle's digest: benchmark code, even on an unlabelled
		// goroutine.
		{"harness", false, []string{"crypto/sha256.block", "crypto/sha256.(*Digest).Write", "main.(*oracle).check", "main.fedRound"}},
		// A load-generator client's connection loop carries the label
		// it inherited; the coordinator's own does not.
		{"harness", true, readLoop},
		{"http", false, readLoop},
		// The harness computing a result key is harness work.
		{"harness", true, []string{"imagebench/internal/results.Key", "main.(*serveClient).do"}},
	}
	for _, c := range cases {
		if got := classify(c.stack, c.harness); got != c.want {
			t.Errorf("classify(%v, %v) = %s, want %s", c.stack, c.harness, got, c.want)
		}
	}
}

// The profile folder reads goroutine labels: CPU burnt under
// asHarness lands in the harness bucket.
func TestHarnessLabelInProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles half a second of CPU")
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	x := 1.0
	asHarness(func() {
		for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
			for i := 0; i < 1000; i++ {
				x = math.Sqrt(x + float64(i))
			}
		}
	})
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["harness"] < 0.5 {
		t.Errorf("harness share %.2f of a labelled busy loop (x=%v), want most of it; shares %v", shares["harness"], x, shares)
	}
}

// A layer the workload never exercised reads 0, but a layer latency
// percentile that lands on a failed request is not a value at all: it
// must reach the result line as null, never as a perfect 0 ms.
func TestLayerPercentileWithFailures(t *testing.T) {
	l := newLayers()
	tt := l.wrap(nil).(*timingTransport)
	for i := 0; i < 100; i++ {
		tt.add(opRec{class: opSubmit, dur: time.Duration(i+1) * time.Millisecond, ok: i%50 != 49})
	}
	m := map[string]float64{}
	l.metrics(m)
	if got := m["daemon.submit_p99_ms"]; !math.IsInf(got, 1) {
		t.Errorf("submit p99 with 2%% failed = %v, want +Inf", got)
	}
	if got := m["daemon.submit_p50_ms"]; got != 51 {
		t.Errorf("submit p50 = %v, want 51", got)
	}
	if got := m["daemon.result_p99_ms"]; got != 0 {
		t.Errorf("result p99 with no result requests = %v, want 0", got)
	}
	res := &result{ops: opsMs([]int{1}, 0), defs: perLayer, vals: m}
	if v := res.line().Metrics["daemon.submit_p99_ms"].Value; v != nil {
		t.Errorf("result line submit p99 = %v, want null", *v)
	}
}
