package main

import (
	"math"
	"sort"
	"time"
)

// opRec is one finished op as the client saw it: its class (a request
// route, or "job"/"cell"), its latency, and whether it succeeded. A
// failed op keeps its measured duration here, but every percentile
// treats it as missing every latency limit.
type opRec struct {
	class string
	dur   time.Duration
	ok    bool
}

// percentileMs returns the p-th percentile (0 < p <= 100, nearest rank)
// of the ops' latencies in milliseconds. Failed ops rank as +Inf, so a
// percentile that lands on a failure is +Inf. No ops give NaN.
func percentileMs(ops []opRec, p float64) float64 {
	if len(ops) == 0 {
		return math.NaN()
	}
	vals := make([]float64, len(ops))
	for i, o := range ops {
		vals[i] = math.Inf(1)
		if o.ok {
			vals[i] = float64(o.dur) / float64(time.Millisecond)
		}
	}
	return nearestRank(vals, p)
}

// nearestRank is the nearest-rank percentile of vals (sorted in place).
func nearestRank(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	k := int(math.Ceil(p/100*float64(len(vals)))) - 1
	if k < 0 {
		k = 0
	}
	return vals[k]
}

// median of vals (the mean of the middle two for an even count); NaN
// when empty. vals is sorted in place.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// counts returns how many ops were attempted and how many failed.
func counts(ops []opRec) (attempted, failed int) {
	for _, o := range ops {
		if !o.ok {
			failed++
		}
	}
	return len(ops), failed
}

// failedRatio is failed/attempted; a run that attempted nothing has
// failed nothing.
func failedRatio(ops []opRec) float64 {
	a, f := counts(ops)
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// byClass returns the ops of one class.
func byClass(ops []opRec, class string) []opRec {
	var out []opRec
	for _, o := range ops {
		if o.class == class {
			out = append(out, o)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
