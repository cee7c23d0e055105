package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// connGauge counts the run's open client TCP connections, remembers
// the most that were ever open at once, and never lets more than limit
// be open: a dial that would exceed it first closes the idle
// connections of every transport that dials through the gauge, then
// waits for an open one to close.
type connGauge struct {
	limit      int64 // 0 = no cap
	open, peak atomic.Int64

	mu   sync.Mutex
	free *sync.Cond // on mu; signalled when a connection closes
	trs  []*http.Transport
}

func newConnGauge(limit int) *connGauge {
	g := &connGauge{limit: int64(limit)}
	g.free = sync.NewCond(&g.mu)
	return g
}

// acquire takes one of the limit connection slots.
func (g *connGauge) acquire(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.limit > 0 && g.open.Load() >= g.limit {
		if err := ctx.Err(); err != nil {
			return err
		}
		trs := append([]*http.Transport(nil), g.trs...)
		g.mu.Unlock()
		for _, tr := range trs {
			tr.CloseIdleConnections()
		}
		g.mu.Lock()
		if g.open.Load() < g.limit {
			break
		}
		// An in-use connection becomes idle without telling the gauge,
		// so wake up now and then to close it.
		t := time.AfterFunc(time.Millisecond, func() {
			g.mu.Lock()
			g.free.Broadcast()
			g.mu.Unlock()
		})
		g.free.Wait()
		t.Stop()
	}
	if n := g.open.Add(1); n > g.peak.Load() {
		g.peak.Store(n)
	}
	return nil
}

func (g *connGauge) release() {
	g.mu.Lock()
	g.open.Add(-1)
	g.free.Broadcast()
	g.mu.Unlock()
}

// closeAll closes the idle connections of every client that dials
// through g and forgets the clients. A round calls it as its
// deployment stops.
func (g *connGauge) closeAll() {
	g.mu.Lock()
	trs := g.trs
	g.trs = nil
	g.mu.Unlock()
	for _, tr := range trs {
		tr.CloseIdleConnections()
	}
}

func (g *connGauge) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	if err := g.acquire(ctx); err != nil {
		return nil, err
	}
	c, err := (&net.Dialer{Timeout: 10 * time.Second}).DialContext(ctx, network, addr)
	if err != nil {
		g.release()
		return nil, err
	}
	return &countedConn{Conn: c, g: g}, nil
}

type countedConn struct {
	net.Conn
	g    *connGauge
	once sync.Once
}

func (c *countedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.g.release)
	return err
}

// newClient returns an HTTP client that opens at most maxConns
// connections per host, and no more than g allows in all.
func newClient(maxConns int, g *connGauge) *http.Client {
	tr := &http.Transport{
		DialContext:         g.dial,
		MaxConnsPerHost:     maxConns,
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		IdleConnTimeout:     time.Minute,
	}
	g.mu.Lock()
	g.trs = append(g.trs, tr)
	g.mu.Unlock()
	// The timeout only unwedges a hung run; no healthy op comes close.
	return &http.Client{Transport: tr, Timeout: 150 * time.Second}
}

// routeOf names the daemon route a request hits.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return opSubmit
	case r.Method == http.MethodPost && p == "/v1/results":
		return "replicate"
	case strings.HasPrefix(p, "/v1/results/"):
		return opResult
	case strings.HasPrefix(p, "/v1/jobs/"):
		return opJobPoll
	case r.Method == http.MethodPost && p == "/v1/sweeps":
		return opSweep
	case strings.HasPrefix(p, "/v1/sweeps/"):
		return opSweepPoll
	case p == "/metrics":
		return opMetrics
	}
	return "other"
}

// timingTransport records each request's route and its time from
// sending to the end of the response body: the layer view of the
// HTTP API from the client side.
type timingTransport struct {
	next http.RoundTripper

	mu   sync.Mutex
	recs []opRec
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	route := routeOf(r)
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		t.add(opRec{class: route, dur: time.Since(start)})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.add(opRec{class: route, dur: time.Since(start), ok: resp.StatusCode < 500})
	}}
	return resp, nil
}

func (t *timingTransport) add(r opRec) {
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
}

func (t *timingTransport) records() []opRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]opRec(nil), t.recs...)
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
