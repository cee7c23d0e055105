package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// CPU-profile folding. runtime/pprof writes a gzipped profile.proto;
// this reads just enough of it (samples, locations, functions, string
// table) to attribute every sample to one of the program's layers.

// shareClasses are the cpu_share buckets reported, in order.
var shareClasses = []string{"imaging", "dmri", "volume", "stage", "synth", "sim", "service", "http", "gc"}

// moduleClass maps each imagebench/internal package to its bucket.
var moduleClass = map[string]string{
	"imaging": "imaging",
	"dmri":    "dmri", "linalg": "dmri",
	"volume": "volume",
	"neuro":  "stage", "astro": "stage", "skymap": "stage", "fits": "stage", "nifti": "stage", "npy": "stage", "objstore": "stage",
	"synth":   "synth",
	"cluster": "sim", "engine": "sim", "spark": "sim", "myria": "sim", "dask": "sim", "scidb": "sim", "tfgraph": "sim",
	"cost": "sim", "vtime": "sim", "afl": "sim", "myrial": "sim", "tsv": "sim", "core": "sim",
	"runner": "service", "results": "service", "daemon": "service", "sweep": "service", "fed": "service",
	"jsonl": "service", "fsatomic": "service", "obs": "service", "loadgen": "service", "bench": "service",
}

// The benchmark's own work (its clients, their HTTP transports, the
// oracle) runs under this goroutine label, which the goroutines it
// starts inherit. Its CPU samples go to the "harness" bucket, so that
// the cpu_share buckets count only the program.
const harnessKey, harnessVal = "perfbench", "harness"

// asHarness runs f labelled as the benchmark's own work.
func asHarness(f func()) {
	pprof.Do(context.Background(), pprof.Labels(harnessKey, harnessVal), func(context.Context) { f() })
}

// classify attributes one stack (leaf first) to a bucket: "gc" when
// the garbage collector is on it; "harness" when the sample carries
// the harness label; else the bucket of the nearest imagebench
// package; else "harness" for benchmark code on an unlabelled
// goroutine; else "http" for network and encoding work done outside
// any imagebench frame (the HTTP server, the coordinator's client);
// else "other".
func classify(stack []string, harness bool) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") ||
			strings.HasPrefix(fn, "runtime.scanobject") {
			return "gc"
		}
	}
	if harness {
		return "harness"
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(pkgOf(fn), "imagebench/internal/"); ok {
			if c, ok := moduleClass[strings.SplitN(rest, "/", 2)[0]]; ok {
				return c
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "harness"
		}
	}
	for _, fn := range stack {
		for _, p := range []string{"net/", "net.", "crypto/", "bufio.", "encoding/json.", "internal/poll.", "syscall."} {
			if strings.HasPrefix(fn, p) {
				return "http"
			}
		}
	}
	return "other"
}

// pkgOf returns the import path of a symbol like
// "imagebench/internal/imaging.(*pool).run.func1".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares folds a gzipped CPU profile into the share of samples per
// bucket.
func cpuShares(gz []byte) (map[string]float64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		out[classify(s.stack, s.labels[harnessKey] == harnessVal)] += float64(s.weight)
		total += float64(s.weight)
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// profSample is one profile sample: its stack (function names, leaf
// first), its sample count, and its string labels.
type profSample struct {
	stack  []string
	weight int64
	labels map[string]string
}

// parseProfile returns the profile's samples.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		val    int64
		labels [][2]uint64 // key and value string indexes
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function IDs, leaf first
		fnName  = map[uint64]int64{}    // function -> string index
		strs    []string
	)
	err = fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s sample
			first := true
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					s.locs = append(s.locs, varints(v, data)...)
				case 2:
					if vals := varints(v, data); first && len(vals) > 0 {
						s.val, first = int64(vals[0]), false
					}
				case 3: // label
					var kv [2]uint64
					err := fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, len(samples))
	for i, s := range samples {
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if n := fnName[f]; n >= 0 && int(n) < len(strs) {
					out[i].stack = append(out[i].stack, strs[n])
				}
			}
		}
		out[i].weight = s.val
		for _, kv := range s.labels {
			if out[i].labels == nil {
				out[i].labels = map[string]string{}
			}
			out[i].labels[str(kv[0])] = str(kv[1])
		}
	}
	return out, nil
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field: one unpacked value, or a
// packed run of them.
func varints(v uint64, data []byte) []uint64 {
	if data == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}
