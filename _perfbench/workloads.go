package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"imagebench/internal/core"
	"imagebench/internal/daemon"
	"imagebench/internal/fed"
	"imagebench/internal/results"
	"imagebench/internal/sweep"
)

// env is what a round needs: where to put files, how to judge outputs,
// the seed, and (in a traced run) where to put layer observations.
type env struct {
	dir    string
	oracle *oracle
	seed   int64
	nproc  int
	conns  *connGauge // every client connection the run opens
	layers *layers    // nil when tracing is off
}

// newEnv returns a run's environment at GOMAXPROCS = nproc, with at
// most nproc client connections open at once.
func newEnv(dir string, o *oracle, seed int64) *env {
	nproc := runtime.NumCPU()
	return &env{dir: dir, oracle: o, seed: seed, nproc: nproc, conns: newConnGauge(nproc)}
}

// roundResult is one round: a fresh deployment, set up, driven through
// its op batch, checked, and torn down.
type roundResult struct {
	makespan time.Duration
	ops      []opRec
}

// workload is one of the benchmark's load shapes.
type workload struct {
	name  string
	tail  float64 // the percentile op_tail_ms reports
	round func(ctx context.Context, e *env, r int) (*roundResult, error)
	// setup boots and tears down one idle deployment of the round's
	// shape, returning the boot time.
	setup func(e *env, i int) (time.Duration, error)
}

var workloads = map[string]*workload{
	"neuro-e2e":     {name: "neuro-e2e", tail: 90, round: neuroRound(neuroE2EOps), setup: daemonSetup},
	"neuro-denoise": {name: "neuro-denoise", tail: 90, round: neuroRound(neuroDenoiseOps), setup: daemonSetup},
	"serve-mix":     {name: "serve-mix", tail: 99, round: serveRound, setup: daemonSetup},
	"sweep-fed":     {name: "sweep-fed", tail: 90, round: fedRound, setup: fedSetup},
}

func daemonSetup(e *env, i int) (time.Duration, error) {
	l, d, err := startDaemon()
	if err != nil {
		return 0, err
	}
	l.Stop()
	return d, nil
}

func fedSetup(e *env, i int) (time.Duration, error) {
	f, err := startFed(e, filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)), &timingTransport{})
	if err != nil {
		return 0, err
	}
	f.stop()
	return f.setup, nil
}

// serveOpsPerClient sizes a serve-mix round.
const serveOpsPerClient = 4000

// startDaemon boots one in-process daemon with the default
// configuration (GOMAXPROCS workers, memory-only cache) and reports how
// long it took.
func startDaemon() (*daemon.Local, time.Duration, error) {
	t := time.Now()
	l, err := daemon.StartLocal(daemon.Config{})
	return l, time.Since(t), err
}

// stopDaemon stops l and, in a traced run, reads its spans and counters
// (spans only after Stop: a job's span ends after its waiters wake).
func stopDaemon(e *env, l *daemon.Local) {
	l.Stop()
	if e.layers != nil {
		e.layers.daemon(l)
	}
}

// newRoundClient returns the round's HTTP client, wrapped with the
// timing transport in a traced run.
func newRoundClient(e *env, maxConns int) *http.Client {
	c := newClient(maxConns, e.conns)
	if e.layers != nil {
		c.Transport = e.layers.wrap(c.Transport)
	}
	return c
}

// do sends one request with an optional JSON body and returns the
// status and the whole response body.
func do(c *http.Client, method, url string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

type jobInfo struct {
	ID        string `json:"id"`
	ResultKey string `json:"resultKey"`
	Status    string `json:"status"`
	Error     string `json:"error"`
}

type submitBody struct {
	Experiments []string        `json:"experiments"`
	Profile     string          `json:"profile"`
	Overrides   *core.Overrides `json:"overrides,omitempty"`
	Wait        bool            `json:"wait"`
}

func submitOf(p point) submitBody {
	b := submitBody{Experiments: []string{p.exp}, Profile: "quick", Wait: true}
	if o := p.overrides(); !o.IsZero() {
		b.Overrides = &o
	}
	return b
}

// submitWait submits p with wait=true and returns the finished job.
func submitWait(c *http.Client, base string, p point) (jobInfo, error) {
	st, b, err := do(c, http.MethodPost, base+"/v1/jobs", submitOf(p))
	if err != nil {
		return jobInfo{}, err
	}
	if st != http.StatusOK {
		return jobInfo{}, fmt.Errorf("submit %s: status %d: %s", p, st, b)
	}
	var resp struct {
		Jobs []jobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(b, &resp); err != nil || len(resp.Jobs) != 1 {
		return jobInfo{}, fmt.Errorf("submit %s: bad response %q", p, b)
	}
	j := resp.Jobs[0]
	if j.Status != "done" {
		return j, fmt.Errorf("submit %s: job %s: %s", p, j.Status, j.Error)
	}
	return j, nil
}

// fetchChecked reads key's table and checks it against the oracle.
func fetchChecked(c *http.Client, base, key string, p point, o *oracle) error {
	st, b, err := do(c, http.MethodGet, base+"/v1/results/"+key, nil)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("result %s: status %d", p, st)
	}
	var entry struct {
		Table json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(b, &entry); err != nil {
		return fmt.Errorf("result %s: %v", p, err)
	}
	return o.check(p, entry.Table)
}

// neuroRound is a closed loop with one client: every op of the seed's
// batch is submitted with wait=true on a fresh daemon, its table
// fetched and checked. One op is submit plus fetch: the time to a
// figure.
func neuroRound(batch func(int64) []op) func(context.Context, *env, int) (*roundResult, error) {
	return func(ctx context.Context, e *env, r int) (*roundResult, error) {
		ops := batch(e.seed)
		l, _, err := startDaemon()
		if err != nil {
			return nil, err
		}
		defer stopDaemon(e, l)
		c := newRoundClient(e, 1)
		defer e.conns.closeAll()
		rr := &roundResult{}
		start := time.Now()
		asHarness(func() {
			for _, o := range ops {
				t := time.Now()
				j, err := submitWait(c, l.BaseURL, o.pt)
				if err == nil {
					err = fetchChecked(c, l.BaseURL, j.ResultKey, o.pt, e.oracle)
				}
				if err != nil {
					logf("neuro: %v", err)
				}
				rr.ops = append(rr.ops, opRec{class: "job", dur: time.Since(t), ok: err == nil})
			}
		})
		rr.makespan = time.Since(start)
		return rr, nil
	}
}

// serveClient is one closed-loop serve-mix client's private state.
type serveClient struct {
	e      *env
	c      *http.Client
	base   string
	done   *sync.Map // result key -> true once a submit of it returned done
	jobs   []jobInfo // recent finished jobs, for polls
	sweeps []string  // submitted sweep IDs, for polls
}

func serveRound(ctx context.Context, e *env, r int) (*roundResult, error) {
	l, _, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer stopDaemon(e, l)
	// Two clients, or one on a single-CPU host: never more connections
	// than CPUs.
	clients := min(2, e.nproc)
	c := newRoundClient(e, clients)
	defer e.conns.closeAll()
	var done sync.Map
	recs := make([][]opRec, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range recs {
		wg.Add(1)
		go asHarness(func() {
			defer wg.Done()
			sc := &serveClient{e: e, c: c, base: l.BaseURL, done: &done}
			for _, o := range serveOps(e.seed, i, serveOpsPerClient) {
				t := time.Now()
				cls, err := sc.do(o)
				if err != nil {
					logf("serve-mix: %v", err)
				}
				recs[i] = append(recs[i], opRec{class: cls, dur: time.Since(t), ok: err == nil})
			}
		})
	}
	wg.Wait()
	rr := &roundResult{makespan: time.Since(start)}
	for _, rs := range recs {
		rr.ops = append(rr.ops, rs...)
	}
	return rr, nil
}

// do runs one serve-mix op and returns the class it ran as: a poll
// with nothing yet to poll becomes the submit that gives it something.
func (s *serveClient) do(o op) (string, error) {
	switch {
	case o.class == opJobPoll && len(s.jobs) == 0:
		o.class = opSubmit
	case o.class == opSweepPoll && len(s.sweeps) == 0:
		o.class, o.sweep = opSweep, sweep.Spec{
			Experiments: []string{serveExps[0]},
			Overrides:   []core.Overrides{{ClusterNodes: []int{serveNodes[1]}}},
		}
	}
	switch o.class {
	case opSubmit:
		j, err := submitWait(s.c, s.base, o.pt)
		if err != nil {
			return o.class, err
		}
		if want := results.Key(o.pt.exp, core.Quick().Apply(o.pt.overrides())); j.ResultKey != want {
			return o.class, fmt.Errorf("submit %s: result key %.12s, want %.12s", o.pt, j.ResultKey, want)
		}
		s.done.Store(j.ResultKey, true)
		if s.jobs = append(s.jobs, j); len(s.jobs) > 16 {
			s.jobs = s.jobs[1:]
		}
		return o.class, nil
	case opResult:
		key := results.Key(o.pt.exp, core.Quick().Apply(o.pt.overrides()))
		_, known := s.done.Load(key)
		err := fetchChecked(s.c, s.base, key, o.pt, s.e.oracle)
		if err != nil && !known && strings.Contains(err.Error(), "status 404") {
			// Never submitted (as far as this op could know): a 404 is
			// the right answer.
			err = nil
		}
		return o.class, err
	case opJobPoll:
		j := s.jobs[len(s.jobs)-1-len(s.jobs)/2]
		st, b, err := do(s.c, http.MethodGet, s.base+"/v1/jobs/"+j.ID, nil)
		if err != nil {
			return o.class, err
		}
		var got jobInfo
		if st != http.StatusOK || json.Unmarshal(b, &got) != nil || got.Status != "done" || got.ResultKey != j.ResultKey {
			return o.class, fmt.Errorf("poll job %s: status %d: %.200s", j.ID, st, b)
		}
		return o.class, nil
	case opSweep:
		st, b, err := do(s.c, http.MethodPost, s.base+"/v1/sweeps", o.sweep)
		if err != nil {
			return o.class, err
		}
		var got struct {
			ID string `json:"id"`
		}
		if (st != http.StatusAccepted && st != http.StatusOK) || json.Unmarshal(b, &got) != nil || got.ID == "" {
			return o.class, fmt.Errorf("submit sweep: status %d: %.200s", st, b)
		}
		s.sweeps = append(s.sweeps, got.ID)
		return o.class, nil
	case opSweepPoll:
		id := s.sweeps[len(s.sweeps)-1]
		st, b, err := do(s.c, http.MethodGet, s.base+"/v1/sweeps/"+id, nil)
		if err != nil {
			return o.class, err
		}
		var got struct {
			ID string `json:"id"`
		}
		if st != http.StatusOK || json.Unmarshal(b, &got) != nil || got.ID != id {
			return o.class, fmt.Errorf("poll sweep %s: status %d: %.200s", id, st, b)
		}
		return o.class, nil
	case opMetrics:
		st, b, err := do(s.c, http.MethodGet, s.base+"/metrics", nil)
		if err != nil {
			return o.class, err
		}
		if st != http.StatusOK || !bytes.Contains(b, []byte("imagebench_jobs_submitted_total")) {
			return o.class, fmt.Errorf("scrape: status %d", st)
		}
		return o.class, nil
	}
	return o.class, fmt.Errorf("unknown op class %q", o.class)
}

// fedRound runs the seed's grid through a journaled coordinator over
// two fresh daemons (one worker each, disk cache, job journal and
// sweep dir) and writes the canonical artifact. One op is one cell;
// its latency is the coordinator's wait=true submit of it.
func fedRound(ctx context.Context, e *env, r int) (*roundResult, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("fed-%d", r))
	spec := fedSpec(e.seed)
	rr := &roundResult{}
	tt := &timingTransport{}
	f, err := startFed(e, dir, tt)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	coord, fedJournal := f.coord, f.journal

	start := time.Now()
	res, err := coord.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	art := filepath.Join(dir, "artifact.json")
	ta := time.Now()
	if err := writeArtifact(art, res); err != nil {
		return nil, err
	}
	artDur := time.Since(ta)
	rr.makespan = time.Since(start)

	for _, rec := range tt.records() {
		if rec.class == opSubmit {
			rr.ops = append(rr.ops, opRec{class: "cell", dur: rec.dur, ok: rec.ok})
		}
	}
	var bad int
	asHarness(func() { bad = checkFed(e, spec, res, art) })
	for i := range rr.ops {
		if bad == 0 {
			break
		}
		if rr.ops[i].ok {
			rr.ops[i].ok = false
			bad--
		}
	}
	for ; bad > 0; bad-- {
		rr.ops = append(rr.ops, opRec{class: "cell"})
	}
	if e.layers != nil {
		e.layers.fed(spec, res, fedJournal, dir, artDur, art)
	}
	return rr, nil
}

// fedDeployment is sweep-fed's deployment: two daemons and a
// coordinator over them.
type fedDeployment struct {
	e       *env
	dir     string
	locals  []*daemon.Local
	coord   *fed.Coordinator
	journal string
	setup   time.Duration
}

// startFed boots two daemons (one worker each, with disk cache, job
// journal and sweep dir) and a journaled coordinator whose client
// reports every request to tt.
func startFed(e *env, dir string, tt *timingTransport) (*fedDeployment, error) {
	t := time.Now()
	f := &fedDeployment{e: e, dir: dir, journal: filepath.Join(dir, "fed.journal")}
	var urls []string
	for i := 0; i < 2; i++ {
		w := filepath.Join(dir, fmt.Sprintf("w%d", i))
		l, err := daemon.StartLocal(daemon.Config{
			Workers: 1, CacheDir: filepath.Join(w, "cache"),
			Journal: filepath.Join(w, "jobs.journal"), SweepDir: filepath.Join(w, "sweeps"),
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		f.locals = append(f.locals, l)
		urls = append(urls, l.BaseURL)
	}
	// One coordinator executor per worker (PerWorker 1), each with one
	// request in flight: at most two requests at once. A replication
	// may need a second connection to a busy worker; the gauge closes
	// an idle one first, so no more than nproc are ever open.
	c := newClient(2, e.conns)
	tt.next = c.Transport
	c.Transport = tt
	if e.layers != nil {
		c.Transport = e.layers.wrap(c.Transport)
	}
	coord, err := fed.New(fed.Config{Workers: urls, PerWorker: 1, JournalPath: f.journal, Client: c})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.coord = coord
	f.setup = time.Since(t)
	return f, nil
}

func (f *fedDeployment) stop() {
	f.e.conns.closeAll()
	if f.coord != nil {
		f.coord.Close()
	}
	for _, l := range f.locals {
		stopDaemon(f.e, l)
	}
	os.RemoveAll(f.dir)
}

func writeArtifact(path string, res *fed.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteArtifact(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkFed counts the cells whose output is wrong: failed, missing,
// not matching the oracle, or absent from the artifact.
func checkFed(e *env, spec sweep.Spec, res *fed.Result, art string) int {
	bad := len(res.Failed)
	for key, msg := range res.Failed {
		logf("sweep-fed: cell %.12s failed: %s", key, msg)
	}
	for _, cell := range res.Cells {
		entry := res.Entries[cell.Key]
		if entry == nil {
			if _, failed := res.Failed[cell.Key]; !failed {
				bad++
			}
			continue
		}
		b, err := json.Marshal(entry.Table)
		if err == nil {
			err = e.oracle.check(fedPoint(cell.Experiment, cell.Override), b)
		}
		if err != nil {
			logf("sweep-fed: %v", err)
			bad++
		}
	}
	b, err := os.ReadFile(art)
	var doc struct {
		ID    string            `json:"id"`
		Cells []json.RawMessage `json:"cells"`
	}
	if err == nil {
		err = json.Unmarshal(b, &doc)
	}
	if err != nil || doc.ID != res.SweepID || len(doc.Cells) != len(res.Cells) {
		logf("sweep-fed: artifact %s does not hold sweep %s's %d cells (err %v)", art, res.SweepID, len(res.Cells), err)
		bad++
	}
	if want := len(spec.Experiments) * len(spec.Overrides); len(res.Cells) != want {
		logf("sweep-fed: %d cells, want %d", len(res.Cells), want)
		bad++
	}
	return bad
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
