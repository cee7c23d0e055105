package main

import (
	"fmt"
	"math/rand"
	"sort"

	"imagebench/internal/core"
	"imagebench/internal/sweep"
)

// Load generation. Every workload's inputs are a pure function of the
// seed: the experiments, their override points, the request mix and
// the order. The cost-relevant dimensions (neuroSubjects, astroVisits,
// the experiment mix) are stratified so that every seed asks for the
// same amount of compute; the seed draws clusterNodes points, which
// change the simulated cluster but not the real work, the order, and
// for serve-mix the Zipf popularity of each key.

// op is one client operation.
type op struct {
	class string // opSubmit, opResult, opJobPoll, opSweep, opSweepPoll, opMetrics
	pt    point  // the experiment point (submit, result)
	sweep sweep.Spec
}

const (
	opSubmit    = "submit"
	opResult    = "result"
	opJobPoll   = "jobpoll"
	opSweep     = "sweep"
	opSweepPoll = "sweeppoll"
	opMetrics   = "metrics"
)

// point is one experiment under the quick profile with an override
// set; a zero value of a field means "the profile's own value".
type point struct {
	exp      string
	nodes    int
	subjects int
	visits   int
}

func (p point) overrides() core.Overrides {
	var o core.Overrides
	if p.nodes > 0 {
		o.ClusterNodes = []int{p.nodes}
	}
	if p.subjects > 0 {
		o.NeuroSubjects = []int{p.subjects}
	}
	if p.visits > 0 {
		o.AstroVisits = []int{p.visits}
	}
	return o
}

// String is the point's key in the expected-output file.
func (p point) String() string {
	return fmt.Sprintf("%s n=%d s=%d v=%d", p.exp, p.nodes, p.subjects, p.visits)
}

var (
	// neuroE2E is the neuro-e2e batch: each experiment with the subject
	// counts it runs at. The cheap single-figure experiments run at one,
	// two and three subjects, so the batch's median op sits among them;
	// fig13 and fig14 (whose cost barely depends on subjects) and
	// ftneuro (every engine under every fault scenario, about half the
	// batch's compute) run once.
	neuroE2E = []struct {
		exp      string
		subjects []int
	}{
		{"fig10c", []int{1, 2, 3}}, {"fig10e", []int{1, 2, 3}}, {"sec533", []int{1, 2, 3}},
		{"fig13", []int{1}}, {"fig14", []int{1}}, {"ftneuro", []int{1}},
	}
	neuroNodes = []int{2, 3, 4, 6, 8, 12, 16, 24}

	// serveExps are simulation-only experiments that finish in about a
	// millisecond, so serve-mix's misses stay a trickle of work beside
	// the HTTP traffic; serveNodes index 0 means no override (the
	// golden).
	serveExps  = []string{"fig10a", "fig10b", "abl-dask-stealing", "abl-myria-pushdown", "abl-spark-pytax"}
	serveNodes = rangeInts(0, 63)

	fedExps   = []string{"fig10d", "fig10h", "fig12d", "ftastro", "fig15", "sec531scidb", "sec531tf", "abl-dask-fusion", "abl-dask-stealing", "abl-myria-pushdown", "abl-spark-pytax"}
	fedNodes  = []int{2, 5, 8, 11, 14, 17}
	fedVisits = []int{2, 3}
)

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// neuroE2EOps is one neuro-e2e batch at seed-drawn clusterNodes, in
// seeded order. Every key in the batch is distinct.
func neuroE2EOps(seed int64) []op {
	r := rand.New(rand.NewSource(seed))
	var ops []op
	for _, e := range neuroE2E {
		nodes := r.Perm(len(neuroNodes))
		for i, s := range e.subjects {
			ops = append(ops, op{class: opSubmit, pt: point{exp: e.exp, subjects: s, nodes: neuroNodes[nodes[i]]}})
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// neuroDenoiseOps is one neuro-denoise batch: fig12c twice at one and
// twice at two subjects, at distinct seed-drawn clusterNodes.
func neuroDenoiseOps(seed int64) []op {
	r := rand.New(rand.NewSource(seed))
	nodes := r.Perm(len(neuroNodes))
	var ops []op
	for i, s := range []int{1, 1, 2, 2} {
		ops = append(ops, op{class: opSubmit, pt: point{exp: "fig12c", subjects: s, nodes: neuroNodes[nodes[i]]}})
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// serveMix is the request-class mix of serve-mix, in per-mille.
var serveMix = []struct {
	class string
	w     int
}{
	{opSubmit, 400}, {opResult, 300}, {opJobPoll, 200},
	{opSweep, 20}, {opSweepPoll, 60}, {opMetrics, 20},
}

// serveKeys orders the serve-mix key space by popularity for a seed:
// Zipf rank i draws serveKeys(seed)[i]. Ranks cycle through the
// experiments, so every seed gives each experiment the same share of
// the traffic at every popularity level; the seed draws which
// clusterNodes point of each experiment sits at each rank.
func serveKeys(seed int64) []point {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	perms := make([][]int, len(serveExps))
	for i := range perms {
		perms[i] = r.Perm(len(serveNodes))
	}
	pts := make([]point, 0, len(serveExps)*len(serveNodes))
	for k := 0; k < len(serveNodes); k++ {
		for i, e := range serveExps {
			pts = append(pts, point{exp: e, nodes: serveNodes[perms[i][k]]})
		}
	}
	return pts
}

// serveOps is client c's request sequence of length n.
func serveOps(seed int64, c, n int) []op {
	keys := serveKeys(seed)
	r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
	z := rand.NewZipf(r, 1.2, 1, uint64(len(keys)-1))
	ops := make([]op, 0, n)
	for len(ops) < n {
		k, cls := r.Intn(1000), ""
		for _, m := range serveMix {
			if k < m.w {
				cls = m.class
				break
			}
			k -= m.w
		}
		// Every op draws a key, so a poll that finds nothing to poll can
		// become a submit of it.
		o := op{class: cls, pt: keys[z.Uint64()]}
		switch cls {
		case opSweep:
			a, b := r.Intn(len(serveExps)), r.Intn(len(serveExps)-1)
			if b >= a {
				b++
			}
			o.sweep = sweep.Spec{
				Experiments: []string{serveExps[a], serveExps[b]},
				Overrides:   []core.Overrides{{ClusterNodes: []int{serveNodes[1+r.Intn(len(serveNodes)-1)]}}},
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// fedSpec is one sweep-fed grid: every fed experiment at six override
// points, one per fedNodes value in ascending order, four of them alone
// and two that also set astroVisits to each of fedVisits. The seed
// draws which node counts get the visits. fig10h's cost grows with the
// node count, so every seed uses the same counts in the same order:
// the coordinator's round-robin partition then splits the work the
// same way for every seed.
func fedSpec(seed int64) sweep.Spec {
	r := rand.New(rand.NewSource(seed))
	visits := map[int]int{}
	for i, n := range r.Perm(len(fedNodes))[:len(fedVisits)] {
		visits[n] = fedVisits[i]
	}
	var ov []core.Overrides
	for i, n := range fedNodes {
		ov = append(ov, point{nodes: n, visits: visits[i]}.overrides())
	}
	return sweep.Spec{Experiments: append([]string(nil), fedExps...), Profiles: []string{"quick"}, Overrides: ov}
}

// fedPoint maps a fed sweep cell back to its point.
func fedPoint(exp string, o core.Overrides) point {
	p := point{exp: exp}
	if len(o.ClusterNodes) == 1 {
		p.nodes = o.ClusterNodes[0]
	}
	if len(o.AstroVisits) == 1 {
		p.visits = o.AstroVisits[0]
	}
	return p
}

// The finite spaces every generator draws from; the expected-output
// file holds one table digest per point of their union.

func neuroSpace() []point {
	var pts []point
	for _, e := range neuroE2E {
		for _, s := range e.subjects {
			for _, n := range neuroNodes {
				pts = append(pts, point{exp: e.exp, subjects: s, nodes: n})
			}
		}
	}
	return pts
}

func denoiseSpace() []point {
	var pts []point
	for _, s := range []int{1, 2} {
		for _, n := range neuroNodes {
			pts = append(pts, point{exp: "fig12c", subjects: s, nodes: n})
		}
	}
	return pts
}

func serveSpace() []point {
	var pts []point
	for _, e := range serveExps {
		for _, n := range serveNodes {
			pts = append(pts, point{exp: e, nodes: n})
		}
	}
	return pts
}

func fedSpace() []point {
	var pts []point
	for _, e := range fedExps {
		for _, n := range fedNodes {
			for _, v := range append([]int{0}, fedVisits...) {
				pts = append(pts, point{exp: e, nodes: n, visits: v})
			}
		}
	}
	return pts
}

// allPoints is the deduplicated, sorted union of every space.
func allPoints() []point {
	seen := map[point]bool{}
	var out []point
	for _, sp := range [][]point{neuroSpace(), denoiseSpace(), serveSpace(), fedSpace()} {
		for _, p := range sp {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
