package main

import (
	"context"
	"runtime"
	"time"

	"imagebench/internal/astro"
	"imagebench/internal/dmri"
	"imagebench/internal/imaging"
	"imagebench/internal/neuro"
	"imagebench/internal/skymap"
	"imagebench/internal/synth"
	"imagebench/internal/volume"
)

// probeReps is how many times each kernel and stage call is timed; the
// ledger reports the median.
const probeReps = 9

// timeMedian runs f probeReps times and returns the median wall time in
// milliseconds.
func timeMedian(f func()) float64 {
	ds := make([]float64, probeReps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = ms(time.Since(t))
	}
	return median(ds)
}

// probeKernels times direct calls of the kernel and stage functions on
// inputs generated from the seed with the experiments' own geometry
// (one neuro subject, two astro visits), and adds them to m.
func probeKernels(seed int64, m map[string]float64) error {
	ncfg := synth.DefaultNeuro(1)
	ncfg.Seed = seed
	var data *volume.V4
	var g *dmri.GradTable
	var err error
	m["synth.gen_neuro_ms"] = timeMedian(func() {
		g, err = synth.StreamNeuro(ncfg, func(_ int, v4 *volume.V4) error {
			vols := make([]*volume.V3, len(v4.Vols))
			for i, v := range v4.Vols {
				vols[i] = v.Clone()
			}
			data = volume.New4(vols)
			return nil
		})
	})
	if err != nil {
		return err
	}

	b0 := data.Select(g.B0Mask(50)).Vols
	var mask *volume.V3
	m["neuro.segment_ms"] = timeMedian(func() { mask = neuro.Segment(b0) })

	ctx := context.Background()
	v := data.Vols[len(data.Vols)-1]
	seqOpts, parOpts := neuro.DenoiseOpts, neuro.DenoiseOpts
	seqOpts.Workers = 1
	seq := timeMedian(func() { _, err = imaging.NLMeans3Ctx(ctx, v, mask, seqOpts) })
	if err != nil {
		return err
	}
	par := timeMedian(func() { _, err = imaging.NLMeans3Ctx(ctx, v, mask, parOpts) })
	if err != nil {
		return err
	}
	m["imaging.nlmeans3_seq_ms"] = seq
	m["imaging.nlmeans3_ms"] = par
	m["imaging.nlmeans3_par_eff"] = seq / (par * float64(runtime.GOMAXPROCS(0)))
	m["imaging.nlmeans3_nominal_gflops"] = nlmeansFlops(mask) / (par / 1e3) / 1e9

	m["dmri.fitfa_ms"] = timeMedian(func() { _, err = dmri.FitFA(g, data, mask) })
	if err != nil {
		return err
	}
	_, _, nz := data.Shape()
	b := volume.TileZ(nz, 1)[nz/2]
	slabs := make([]*volume.V3, data.T())
	for t, vol := range data.Vols {
		slabs[t] = vol.Slab(b)
	}
	m["neuro.fitblock_ms"] = timeMedian(func() { _, err = neuro.FitBlock(g, slabs, mask.Slab(b)) })
	if err != nil {
		return err
	}
	failed := 0
	m["neuro.reference_subject_ms"] = timeMedian(func() {
		if _, err := neuro.ReferenceSubject(g, data); err != nil {
			failed++
		}
	})
	m["neuro.reference_subject_failed_ratio"] = float64(failed) / probeReps

	acfg := synth.DefaultAstro(2)
	acfg.Seed = seed
	var exps []*skymap.Exposure
	m["synth.gen_astro_ms"] = timeMedian(func() {
		exps = exps[:0]
		_, err = synth.StreamAstro(acfg, func(_, _ int, e *skymap.Exposure) error {
			exps = append(exps, e)
			return nil
		})
	})
	if err != nil {
		return err
	}
	pre := make([]*skymap.Exposure, len(exps))
	pres := make([]float64, len(exps))
	for i, e := range exps {
		t := time.Now()
		pre[i] = astro.Preprocess(e)
		pres[i] = ms(time.Since(t))
	}
	m["astro.preprocess_ms"] = median(pres)
	patches, err := astro.CreatePatches(acfg.Grid(), pre)
	if err != nil {
		return err
	}
	m["astro.coadd_ms"] = timeMedian(func() { _, err = astro.CoaddAll(patches) })
	return err
}

// nlmeansFlops is the nominal floating-point work of one NLMeans3 call
// with the denoise options: for every masked voxel, every search-window
// offset compares a full patch (a subtract, a multiply and an add per
// patch voxel). It is computed from the options, not counted.
func nlmeansFlops(mask *volume.V3) float64 {
	masked := 0
	for _, x := range mask.Data {
		if x > 0 {
			masked++
		}
	}
	o := neuro.DenoiseOpts
	search := cube(2*o.SearchRadius + 1)
	patch := cube(2*o.PatchRadius + 1)
	return float64(masked) * float64(search) * float64(patch) * 3
}

func cube(n int) int { return n * n * n }
