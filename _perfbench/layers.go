package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"imagebench/internal/daemon"
	"imagebench/internal/engine"
	"imagebench/internal/fed"
	"imagebench/internal/sweep"
)

// layers gathers a traced run's layer observations from outside the
// program: the daemons' own job and engine spans (read after Stop),
// their scheduler and cache counters, the client-side timing of every
// HTTP request, and the federation's journals and artifact.
type layers struct {
	mu sync.Mutex

	spans    map[string][]float64 // span kind -> wall ms
	retained []float64            // spans retained per daemon at stop
	jobs     int                  // job spans
	multi    int                  // job spans whose tree ran two or more engines

	submitted, reused     int64
	hits, misses, diskHit int64
	respWriteErrs         float64

	transports []*timingTransport

	cells, steals                       int
	journalBytes                        int64
	expandMs, artifactMs, artifactBytes []float64
}

func newLayers() *layers { return &layers{spans: map[string][]float64{}} }

// wrap puts a timing transport in front of rt.
func (l *layers) wrap(rt http.RoundTripper) http.RoundTripper {
	t := &timingTransport{next: rt}
	l.mu.Lock()
	l.transports = append(l.transports, t)
	l.mu.Unlock()
	return t
}

// daemon folds a stopped daemon's spans and counters in.
func (l *layers) daemon(d *daemon.Local) {
	spans := d.Tracer.Spans()
	st := d.Sched.Stats()
	cs := d.Cache.Stats()
	var prom bytes.Buffer
	_ = d.Metrics.WriteText(&prom) // a bytes.Buffer write cannot fail
	werr := promValue(prom.String(), "imagebench_daemon_response_write_errors_total")

	l.mu.Lock()
	defer l.mu.Unlock()
	perJob := map[uint64]map[string]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "job ") {
			l.jobs++
		}
		if eng, ok := s.Attr("engine"); ok {
			if perJob[s.RootID] == nil {
				perJob[s.RootID] = map[string]bool{}
			}
			perJob[s.RootID][eng] = true
		}
	}
	for _, engs := range perJob {
		if len(engs) >= 2 {
			l.multi++
		}
	}
	for _, s := range spans {
		start, end := s.Wall()
		if start.IsZero() || end.IsZero() {
			continue
		}
		kind := s.Name
		if eng, ok := s.Attr("engine"); ok {
			kind = "engine." + eng
			l.spans["engine"] = append(l.spans["engine"], ms(end.Sub(start)))
		} else if strings.HasPrefix(kind, "job ") {
			kind = "job"
		}
		l.spans[kind] = append(l.spans[kind], ms(end.Sub(start)))
	}
	l.retained = append(l.retained, float64(len(spans)))
	l.submitted += st.Submitted
	l.reused += st.Deduped + st.CacheHits
	l.hits += cs.Hits
	l.misses += cs.Misses
	l.diskHit += cs.DiskHits
	l.respWriteErrs += werr
}

// fed folds one federated sweep's coordinator-side observations in:
// steals from the assignment journal, journal bytes written by the
// coordinator and both workers, and the artifact.
func (l *layers) fed(spec sweep.Spec, res *fed.Result, fedJournal, dir string, artDur time.Duration, art string) {
	recs, _ := fed.ReadJournal(fedJournal) // the round already succeeded; a read error only loses the steal count
	steals := 0
	for _, r := range recs {
		if r.Op == fed.OpSteal {
			steals++
		}
	}
	var jbytes int64
	for _, p := range []string{fedJournal, filepath.Join(dir, "w0", "jobs.journal"), filepath.Join(dir, "w1", "jobs.journal")} {
		if fi, err := os.Stat(p); err == nil {
			jbytes += fi.Size()
		}
	}
	t := time.Now()
	_, err := sweep.Expand(spec)
	expand := time.Since(t)
	var artBytes float64
	if fi, err := os.Stat(art); err == nil {
		artBytes = float64(fi.Size())
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.cells += len(res.Cells)
	l.steals += steals
	l.journalBytes += jbytes
	if err == nil {
		l.expandMs = append(l.expandMs, ms(expand))
	}
	l.artifactMs = append(l.artifactMs, ms(artDur))
	l.artifactBytes = append(l.artifactBytes, artBytes)
}

// promValue reads one unlabeled sample from Prometheus text.
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscan(rest, &v); err == nil {
				return v
			}
		}
	}
	return 0
}

// metrics turns the observations into the per-layer ledger.
func (l *layers) metrics(m map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	med := func(k string) float64 { return zeroNaN(median(append([]float64(nil), l.spans[k]...))) }
	m["core.execute_ms"] = med("execute")
	m["runner.queued_ms"] = med("queued")
	m["runner.cache_write_ms"] = med("cache-write")
	m["engine.run_ms"] = med("engine")
	m["engine.multi_engine_op_share"] = ratio(float64(l.multi), float64(l.jobs))
	for _, e := range engine.All() {
		m["engine.run_ms."+e.Name()] = med("engine." + e.Name())
	}
	m["runner.reuse_ratio"] = ratio(float64(l.reused), float64(l.submitted))
	m["results.hit_ratio"] = ratio(float64(l.hits), float64(l.hits+l.misses))
	m["results.disk_hits"] = float64(l.diskHit)
	m["daemon.response_write_errors"] = l.respWriteErrs
	m["obs.spans_retained"] = zeroNaN(median(append([]float64(nil), l.retained...)))

	var reqs []opRec
	for _, t := range l.transports {
		reqs = append(reqs, t.records()...)
	}
	for _, c := range []string{opSubmit, opResult, opJobPoll, opSweep, opMetrics} {
		rs := byClass(reqs, c)
		if c == opSweep {
			rs = append(rs, byClass(reqs, opSweepPoll)...)
		}
		m["daemon."+c+"_p50_ms"] = zeroNaN(percentileMs(rs, 50))
		m["daemon."+c+"_p99_ms"] = zeroNaN(percentileMs(rs, 99))
	}
	if l.cells > 0 {
		m["fed.cell_rtt_p50_ms"] = zeroNaN(percentileMs(byClass(reqs, opSubmit), 50))
		m["fed.cell_rtt_p90_ms"] = zeroNaN(percentileMs(byClass(reqs, opSubmit), 90))
		m["fed.replicate_rtt_p50_ms"] = zeroNaN(percentileMs(byClass(reqs, "replicate"), 50))
		m["fed.requests_per_cell"] = float64(len(reqs)) / float64(l.cells)
		m["fed.steal_ratio"] = float64(l.steals) / float64(l.cells)
		m["jsonl.journal_bytes_per_cell"] = float64(l.journalBytes) / float64(l.cells)
	}
	m["sweep.expand_ms"] = zeroNaN(median(append([]float64(nil), l.expandMs...)))
	m["sweep.artifact_ms"] = zeroNaN(median(append([]float64(nil), l.artifactMs...)))
	m["sweep.artifact_bytes"] = zeroNaN(median(append([]float64(nil), l.artifactBytes...)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zeroNaN reports a layer the workload never exercised (NaN) as 0. A
// percentile that lands on a failure (+Inf) passes through, so the
// result line reports it as null rather than as a perfect 0.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
