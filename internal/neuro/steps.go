package neuro

import (
	"fmt"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/dask"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
	"imagebench/internal/scidb"
	"imagebench/internal/spark"
	"imagebench/internal/synth"
	"imagebench/internal/tfgraph"
	"imagebench/internal/volume"
	"imagebench/internal/vtime"
)

// This file provides the individual-step runners behind the paper's
// Figure 11 (data ingest) and Figures 12a–12c (filter, mean, denoise).
// Each runner receives a fresh cluster, performs any setup (ingest) and
// then the measured step, returning the step's virtual duration as the
// makespan delta.

// delta measures the virtual time consumed by f on cl.
func delta(cl *cluster.Cluster, f func() error) (vtime.Duration, error) {
	t0 := cl.Makespan()
	if err := f(); err != nil {
		return 0, err
	}
	return cl.Makespan().Sub(t0), nil
}

// sparkDecode decodes staged .npy objects into volume records.
func sparkDecode(obj objstore.Object) []spark.Pair {
	s, t, err := npyKeyIDs(obj.Key)
	if err != nil {
		return nil
	}
	v, err := decodeNPY(obj)
	if err != nil {
		return nil
	}
	return []spark.Pair{{Key: VolKey(s, t), Value: v, Size: synth.PaperVolBytes}}
}

func myriaDecode(obj objstore.Object) []myria.Tuple {
	for _, p := range sparkDecode(obj) {
		return []myria.Tuple{{Key: p.Key, Value: p.Value, Size: p.Size}}
	}
	return nil
}

// IngestTime measures each system's data-ingest path (Fig 11). The
// sysVariant strings are "Spark", "Myria", "Dask", "TensorFlow",
// "SciDB-1" (from_array), and "SciDB-2" (aio_input).
func IngestTime(w *Workload, cl *cluster.Cluster, model *cost.Model, sysVariant string) (vtime.Duration, error) {
	if model == nil {
		model = cost.Default()
	}
	// Each case builds a different per-system ingest simulation; the
	// registry's NeuroIngester adapters delegate here.
	//lint:allow enginedispatch per-system simulation models live here; adapters delegate in
	switch sysVariant {
	case "Spark":
		sess := spark.NewSession(cl, w.Store, model)
		return delta(cl, func() error {
			// Loading into in-memory RDDs.
			_, err := sess.Objects("neuro/npy/", cl.Workers(), sparkDecode).Cache().Materialize()
			return err
		})
	case "Myria":
		eng := myria.New(cl, w.Store, model, myria.DefaultConfig())
		return delta(cl, func() error {
			// Reading from S3 into per-node PostgreSQL instances.
			_, err := eng.Ingest("Images", "neuro/npy/", myriaDecode)
			return err
		})
	case "Dask":
		sess := dask.NewSession(cl, w.Store, model)
		return delta(cl, func() error {
			// Loading NIfTI files into in-memory arrays, subjects pinned
			// to nodes (Section 5.2.1).
			var fetches []*dask.Delayed
			for s := 0; s < w.Cfg.Subjects; s++ {
				fetches = append(fetches, sess.Fetch(synth.NeuroKeyNIfTI(s), s%cl.Nodes(),
					func(obj objstore.Object) (any, int64, error) {
						v4, err := decodeNIfTI(obj)
						return v4, w.Cfg.SubjectModelBytes(), err
					}))
			}
			_, err := sess.Compute(fetches...)
			return err
		})
	case "TensorFlow":
		sess := tfgraph.NewSession(cl, w.Store, model)
		return delta(cl, func() error {
			_, _, err := sess.Ingest("neuro/npy/", func(obj objstore.Object) ([]tfgraph.Tensor, error) {
				v, err := decodeNPY(obj)
				if err != nil {
					return nil, err
				}
				return []tfgraph.Tensor{{Value: v, Size: synth.PaperVolBytes}}, nil
			})
			return err
		})
	case "SciDB-1":
		eng := scidb.New(cl, w.Store, model, scidb.DefaultConfig())
		return delta(cl, func() error {
			_, err := SciDBIngest(w, eng, SciDBFromArray)
			return err
		})
	case "SciDB-2":
		eng := scidb.New(cl, w.Store, model, scidb.DefaultConfig())
		return delta(cl, func() error {
			_, err := SciDBIngest(w, eng, SciDBAio)
			return err
		})
	}
	return 0, fmt.Errorf("neuro: unknown ingest variant %q", sysVariant)
}

// StepTime measures one pipeline step (Fig 12a–c) on one system after
// the necessary setup. step is "filter", "mean", or "denoise"; sys is
// "Spark", "Myria", "Dask", "SciDB", or "TensorFlow".
func StepTime(w *Workload, cl *cluster.Cluster, model *cost.Model, sys, step string) (vtime.Duration, error) {
	if model == nil {
		model = cost.Default()
	}
	// Per-system step simulators, reached via the NeuroStepper adapters.
	//lint:allow enginedispatch per-system simulation models live here; adapters delegate in
	switch sys {
	case "Spark":
		return sparkStep(w, cl, model, step)
	case "Myria":
		return myriaStep(w, cl, model, step)
	case "Dask":
		return daskStep(w, cl, model, step)
	case "SciDB":
		return scidbStep(w, cl, model, step)
	case "TensorFlow":
		return tfStep(w, cl, model, step)
	}
	return 0, fmt.Errorf("neuro: unknown system %q", sys)
}

// referenceMasks computes the per-subject masks outside any timing, for
// denoise-step measurements (the mask is an input to Step 2N). It runs
// Step 1N exactly as ReferenceSubject does, so the masks are
// bit-identical to Reference's without denoising or fitting anything.
func referenceMasks(w *Workload) (map[int]*volume.V3, error) {
	b0 := w.Grad.B0Mask(50)
	masks := make(map[int]*volume.V3, w.Cfg.Subjects)
	for s := 0; s < w.Cfg.Subjects; s++ {
		obj, err := w.Store.Get(synth.NeuroKeyNIfTI(s))
		if err != nil {
			return nil, err
		}
		data, err := decodeNIfTI(obj)
		if err != nil {
			return nil, err
		}
		masks[s] = Segment(data.Select(b0).Vols)
	}
	return masks, nil
}

func sparkStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	sess := spark.NewSession(cl, w.Store, model)
	b0 := w.Grad.B0Mask(50)
	img := sess.Objects("neuro/npy/", cl.Workers(), sparkDecode).Cache()
	if _, err := img.Materialize(); err != nil {
		return 0, err
	}
	filterUDF := spark.UDF{Name: "filter-b0", Op: cost.Filter, F: func(p spark.Pair) []spark.Pair {
		s, t, err := ParseVolKey(p.Key)
		if err != nil || t >= len(b0) || !b0[t] {
			return nil
		}
		return []spark.Pair{{Key: SubjKey(s), Value: tsVol{T: t, Vol: p.Value.(*volume.V3)}, Size: p.Size}}
	}}
	switch step {
	case "filter":
		return delta(cl, func() error {
			_, err := img.Map(filterUDF).Materialize()
			return err
		})
	case "mean":
		b0RDD := img.Map(filterUDF)
		if _, err := b0RDD.Materialize(); err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			_, err := b0RDD.GroupByKey("mean", cost.Mean, 0, func(key string, values []spark.Pair) []spark.Pair {
				vols := sortedVols(values, func(p spark.Pair) tsVol { return p.Value.(tsVol) })
				return []spark.Pair{{Key: key, Value: volume.Mean3(vols), Size: synth.PaperVolBytes}}
			}).Materialize()
			return err
		})
	case "denoise":
		masks, err := referenceMasks(w)
		if err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			_, err := img.Map(spark.UDF{Name: "denoise", Op: cost.Denoise, F: func(p spark.Pair) []spark.Pair {
				s, _, err := ParseVolKey(p.Key)
				if err != nil {
					return nil
				}
				return []spark.Pair{{Key: p.Key, Value: w.Denoise(p.Value.(*volume.V3), masks[s]), Size: p.Size}}
			}}).Materialize()
			return err
		})
	}
	return 0, fmt.Errorf("neuro: unknown step %q", step)
}

func myriaStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	eng := myria.New(cl, w.Store, model, myria.DefaultConfig())
	b0 := w.Grad.B0Mask(50)
	images, err := eng.Ingest("Images", "neuro/npy/", myriaDecode)
	if err != nil {
		return 0, err
	}
	pred := func(t myria.Tuple) bool {
		_, vol, err := ParseVolKey(t.Key)
		return err == nil && vol < len(b0) && b0[vol]
	}
	switch step {
	case "filter":
		// Selection pushed down into the node-local store.
		return delta(cl, func() error {
			q := eng.NewQuery()
			q.ScanWhere(images, pred)
			_, err := q.Finish()
			return err
		})
	case "mean":
		q := eng.NewQuery()
		b0Rel := q.ScanWhere(images, pred)
		h, err := q.Finish()
		if err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			q2 := eng.NewQuery(h)
			q2.GroupByApply(b0Rel,
				func(t myria.Tuple) string { s, _, _ := ParseVolKey(t.Key); return SubjKey(s) },
				myria.PyUDA{Name: "mean", Op: cost.Mean, F: func(key string, group []myria.Tuple) []myria.Tuple {
					vols := sortedVols(group, func(t myria.Tuple) tsVol {
						_, vol, _ := ParseVolKey(t.Key)
						return tsVol{T: vol, Vol: t.Value.(*volume.V3)}
					})
					return []myria.Tuple{{Key: key, Value: volume.Mean3(vols), Size: synth.PaperVolBytes}}
				}})
			_, err := q2.Finish()
			return err
		})
	case "denoise":
		masks, err := referenceMasks(w)
		if err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			q := eng.NewQuery()
			scan := q.Scan(images)
			q.Apply(scan, myria.PyUDF{Name: "Denoise", Op: cost.Denoise, F: func(t myria.Tuple) []myria.Tuple {
				s, _, err := ParseVolKey(t.Key)
				if err != nil {
					return nil
				}
				return []myria.Tuple{{Key: t.Key, Value: w.Denoise(t.Value.(*volume.V3), masks[s]), Size: t.Size}}
			}})
			_, err := q.Finish()
			return err
		})
	}
	return 0, fmt.Errorf("neuro: unknown step %q", step)
}

func daskStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	sess := dask.NewSession(cl, w.Store, model)
	b0 := w.Grad.B0Mask(50)
	// Setup: subjects already in memory across the cluster.
	fetch := make([]*dask.Delayed, w.Cfg.Subjects)
	for s := 0; s < w.Cfg.Subjects; s++ {
		fetch[s] = sess.Fetch(synth.NeuroKeyNIfTI(s), s%cl.Nodes(), func(obj objstore.Object) (any, int64, error) {
			v4, err := decodeNIfTI(obj)
			return v4, w.Cfg.SubjectModelBytes(), err
		})
	}
	if _, err := sess.Compute(fetch...); err != nil {
		return 0, err
	}
	switch step {
	case "filter":
		// All data is in memory; filtering is a cheap in-memory select.
		return delta(cl, func() error {
			var roots []*dask.Delayed
			for s := 0; s < w.Cfg.Subjects; s++ {
				roots = append(roots, sess.Delayed(fmt.Sprintf("filter/%s", SubjKey(s)), cost.Filter,
					[]*dask.Delayed{fetch[s]},
					func(args []any) (any, int64, error) {
						v4 := args[0].(*volume.V4).Select(b0)
						return v4, synth.PaperVolBytes * int64(v4.T()), nil
					}))
			}
			_, err := sess.Compute(roots...)
			return err
		})
	case "mean":
		filtered := make([]*dask.Delayed, w.Cfg.Subjects)
		for s := 0; s < w.Cfg.Subjects; s++ {
			filtered[s] = sess.Delayed(fmt.Sprintf("filter/%s", SubjKey(s)), cost.Filter,
				[]*dask.Delayed{fetch[s]},
				func(args []any) (any, int64, error) {
					v4 := args[0].(*volume.V4).Select(b0)
					return v4, synth.PaperVolBytes * int64(v4.T()), nil
				})
		}
		if _, err := sess.Compute(filtered...); err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			var roots []*dask.Delayed
			for s := 0; s < w.Cfg.Subjects; s++ {
				roots = append(roots, sess.Delayed(fmt.Sprintf("mean/%s", SubjKey(s)), cost.Mean,
					[]*dask.Delayed{filtered[s]},
					func(args []any) (any, int64, error) {
						return volume.Mean3(args[0].(*volume.V4).Vols), synth.PaperVolBytes, nil
					}))
			}
			_, err := sess.Compute(roots...)
			return err
		})
	case "denoise":
		masks, err := referenceMasks(w)
		if err != nil {
			return 0, err
		}
		return delta(cl, func() error {
			var roots []*dask.Delayed
			for s := 0; s < w.Cfg.Subjects; s++ {
				s := s
				for t := 0; t < w.Cfg.T; t++ {
					t := t
					roots = append(roots, sess.DelayedCost("denoise/"+VolKey(s, t),
						func(int64) vtime.Duration {
							return model.AlgTime(cost.Denoise, synth.PaperVolBytes)
						},
						[]*dask.Delayed{fetch[s]},
						func(args []any) (any, int64, error) {
							v := args[0].(*volume.V4).Vols[t]
							return w.Denoise(v, masks[s]), synth.PaperVolBytes, nil
						}))
				}
			}
			_, err := sess.Compute(roots...)
			return err
		})
	}
	return 0, fmt.Errorf("neuro: unknown step %q", step)
}

func scidbStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	eng := scidb.New(cl, w.Store, model, scidb.DefaultConfig())
	arr, err := SciDBIngest(w, eng, SciDBAio)
	if err != nil {
		return 0, err
	}
	if h := arr.Done(); h.Err != nil {
		return 0, h.Err
	}
	b0 := w.Grad.B0Mask(50)
	keep := func(c scidb.Chunk) bool {
		_, t, err := ParseVolKey(c.Coords)
		return err == nil && t < len(b0) && b0[t]
	}
	switch step {
	case "filter":
		// The selection cuts across the chunk layout (the volume ID is
		// the fourth dimension): chunks are read, subset, reassembled.
		return delta(cl, func() error {
			f := arr.Filter("filter-b0", false, keep)
			return f.Done().Err
		})
	case "mean":
		filtered := arr.Filter("filter-b0", false, keep)
		if h := filtered.Done(); h.Err != nil {
			return 0, h.Err
		}
		return delta(cl, func() error {
			m := filtered.Aggregate("mean", cost.Mean,
				func(c scidb.Chunk) string { s, _, _ := ParseVolKey(c.Coords); return SubjKey(s) },
				func(key string, group []scidb.Chunk) scidb.Chunk {
					vols := make([]*volume.V3, 0, len(group))
					for _, c := range group {
						vols = append(vols, c.Value.(*volume.V3))
					}
					return scidb.Chunk{Coords: key, Value: volume.Mean3(vols), Size: synth.PaperVolBytes}
				})
			return m.Done().Err
		})
	case "denoise":
		return delta(cl, func() error {
			d := arr.Stream("denoise", cost.Denoise, func(c scidb.Chunk) scidb.Chunk {
				v := c.Value.(*volume.V3)
				return scidb.Chunk{Coords: c.Coords, Value: w.Denoise(v, nil), Size: c.Size}
			})
			return d.Done().Err
		})
	}
	return 0, fmt.Errorf("neuro: unknown step %q", step)
}

// TFFilterTime measures the TensorFlow filter step under an explicit
// volume-to-device assignment (Section 5.3.1's manual-assignment sweep).
func TFFilterTime(w *Workload, cl *cluster.Cluster, model *cost.Model, assign []int) (vtime.Duration, error) {
	if model == nil {
		model = cost.Default()
	}
	sess := tfgraph.NewSession(cl, w.Store, model)
	items, _, err := sess.Ingest("neuro/npy/", func(obj objstore.Object) ([]tfgraph.Tensor, error) {
		v, err := decodeNPY(obj)
		if err != nil {
			return nil, err
		}
		return []tfgraph.Tensor{{Value: v, Size: synth.PaperVolBytes}}, nil
	})
	if err != nil {
		return 0, err
	}
	return delta(cl, func() error {
		_, _, err := sess.RunStep("filter-b0", cost.Filter, items,
			tfgraph.StepOpts{Assign: assign, ConvertPasses: 4},
			func(t tfgraph.Tensor) (tfgraph.Tensor, error) { return t, nil })
		return err
	})
}

func tfStep(w *Workload, cl *cluster.Cluster, model *cost.Model, step string) (vtime.Duration, error) {
	sess := tfgraph.NewSession(cl, w.Store, model)
	b0 := w.Grad.B0Mask(50)
	type volItem struct {
		subj, t int
		vol     *volume.V3
	}
	items, _, err := sess.Ingest("neuro/npy/", func(obj objstore.Object) ([]tfgraph.Tensor, error) {
		s, t, err := npyKeyIDs(obj.Key)
		if err != nil {
			return nil, err
		}
		v, err := decodeNPY(obj)
		if err != nil {
			return nil, err
		}
		return []tfgraph.Tensor{{Value: volItem{s, t, v}, Size: synth.PaperVolBytes}}, nil
	})
	if err != nil {
		return 0, err
	}
	identity := func(t tfgraph.Tensor) (tfgraph.Tensor, error) { return t, nil }
	switch step {
	case "filter":
		// Flatten + select + reshape workaround (Fig 12a).
		return delta(cl, func() error {
			_, _, err := sess.RunStep("filter-b0", cost.Filter, items, tfgraph.StepOpts{ConvertPasses: 4}, identity)
			return err
		})
	case "mean":
		filtered, _, err := sess.RunStep("filter-b0", cost.Filter, items, tfgraph.StepOpts{ConvertPasses: 4}, identity)
		if err != nil {
			return 0, err
		}
		var b0Items []tfgraph.Tensor
		for _, it := range filtered {
			vi := it.Value.(volItem)
			if vi.t < len(b0) && b0[vi.t] {
				b0Items = append(b0Items, it)
			}
		}
		return delta(cl, func() error {
			_, _, err := sess.RunStep("mean", cost.Mean, b0Items, tfgraph.StepOpts{}, identity)
			return err
		})
	case "denoise":
		return delta(cl, func() error {
			_, _, err := sess.RunStep("denoise", cost.Denoise, items, tfgraph.StepOpts{},
				func(t tfgraph.Tensor) (tfgraph.Tensor, error) {
					vi := t.Value.(volItem)
					return tfgraph.Tensor{Value: volItem{vi.subj, vi.t, w.Denoise(vi.vol, nil)}, Size: t.Size}, nil
				})
			return err
		})
	}
	return 0, fmt.Errorf("neuro: unknown step %q", step)
}
