package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"imagebench/internal/core"
	"imagebench/internal/imaging"
	"imagebench/internal/volume"
)

// The default case set: every registered experiment (the paper
// artifacts, timed end to end under one profile) plus kernel
// microbenchmarks for the real-compute hot paths, in sequential and
// parallel variants so the artifact itself carries the before/after
// numbers for the tiled worker pool.

// ExperimentCase wraps one registered experiment. Beyond the harness's
// wall/allocation metrics it reports the table's total virtual seconds
// and virtual seconds per populated cell — deterministic simulator
// outputs the comparator gates exactly.
func ExperimentCase(e *core.Experiment, p core.Profile) Case {
	return Case{
		Name: "exp/" + e.ID,
		Run: func(ctx context.Context) (map[string]float64, error) {
			tab, err := e.RunContext(ctx, p)
			if err != nil {
				return nil, err
			}
			if err := e.Check(tab); err != nil {
				return nil, fmt.Errorf("shape check: %w", err)
			}
			extra := map[string]float64{MetricVirtualSeconds: tab.VirtualSeconds()}
			if cells := tab.NonNACells(); cells > 0 {
				extra[MetricVSPerCell] = tab.VirtualSeconds() / float64(cells)
			}
			return extra, nil
		},
	}
}

// Kernel microbenchmark geometry: large enough that one repetition is
// dominated by kernel arithmetic, small enough that a 1-rep CI smoke
// stays cheap. The volumes are regenerated deterministically per
// repetition from a fixed seed.
const (
	nlmNX, nlmNY, nlmNZ    = 24, 24, 16
	convNX, convNY, convNZ = 64, 64, 48
	convSigma              = 1.5
)

func kernelVolume(nx, ny, nz int) *volume.V3 {
	rng := rand.New(rand.NewSource(97))
	v := volume.New3(nx, ny, nz)
	for i := range v.Data {
		v.Data[i] = 100 + 10*rng.NormFloat64()
	}
	return v
}

// blobMask marks a centred ellipsoid with semi-axes 0.38 of each
// dimension: the compact foreground blob the neuro pipeline's Otsu
// mask selects, about a fifth of the voxels.
func blobMask(nx, ny, nz int) *volume.V3 {
	m := volume.New3(nx, ny, nz)
	c := func(i, n int) float64 { return (float64(i) - float64(n-1)/2) / (0.38 * float64(n)) }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if cx, cy, cz := c(x, nx), c(y, ny), c(z, nz); cx*cx+cy*cy+cz*cz <= 1 {
					m.Set(x, y, z, 1)
				}
			}
		}
	}
	return m
}

// nlmeansCase benchmarks NLMeans3 with the pipeline's denoise settings
// on a synthetic volume; workers=1 is the sequential baseline, 0 the
// GOMAXPROCS-wide tiled pool. masked denoises only a centred blob, as
// most pipeline calls do.
func nlmeansCase(name string, workers int, masked bool) Case {
	return Case{
		Name: name,
		Run: func(ctx context.Context) (map[string]float64, error) {
			v := kernelVolume(nlmNX, nlmNY, nlmNZ)
			var mask *volume.V3
			if masked {
				mask = blobMask(nlmNX, nlmNY, nlmNZ)
			}
			opts := imaging.NLMeansOpts{PatchRadius: 1, SearchRadius: 2, Workers: workers}
			out, err := imaging.NLMeans3Ctx(ctx, v, mask, opts)
			if err != nil {
				return nil, err
			}
			if out.Len() != v.Len() {
				return nil, fmt.Errorf("nlmeans output shape mismatch")
			}
			return nil, nil
		},
	}
}

// sepconvCase benchmarks the separable Gaussian convolution (the
// TensorFlow-model denoise substitute).
func sepconvCase(name string, workers int) Case {
	return Case{
		Name: name,
		Run: func(ctx context.Context) (map[string]float64, error) {
			v := kernelVolume(convNX, convNY, convNZ)
			k := imaging.GaussianKernel(convSigma)
			out, err := imaging.SeparableConv3Ctx(ctx, v, k, k, k, workers)
			if err != nil {
				return nil, err
			}
			if out.Len() != v.Len() {
				return nil, fmt.Errorf("conv output shape mismatch")
			}
			return nil, nil
		},
	}
}

// KernelCases returns the hot-path microbenchmarks.
func KernelCases() []Case {
	return []Case{
		nlmeansCase("kernel/nlmeans3/seq", 1, false),
		nlmeansCase("kernel/nlmeans3/par", 0, false),
		nlmeansCase("kernel/nlmeans3/mask", 1, true),
		sepconvCase("kernel/sepconv3/seq", 1),
		sepconvCase("kernel/sepconv3/par", 0),
	}
}

// DefaultCases returns every registered experiment under p plus the
// kernel microbenchmarks and the serving-path cases.
func DefaultCases(p core.Profile) []Case {
	var out []Case
	for _, e := range core.All() {
		out = append(out, ExperimentCase(e, p))
	}
	out = append(out, KernelCases()...)
	out = append(out, SweepCases()...)
	return append(out, ServeCases()...)
}

// SelectCases filters the default set by name. Each selector matches a
// case name exactly, or every case when it is "all", or all cases under
// a prefix when it ends in "/..." (e.g. "kernel/...", "exp/fig10...").
func SelectCases(p core.Profile, selectors []string) ([]Case, error) {
	all := DefaultCases(p)
	if len(selectors) == 0 {
		return all, nil
	}
	byName := make(map[string]Case, len(all))
	for _, c := range all {
		byName[c.Name] = c
	}
	seen := make(map[string]bool)
	var out []Case
	for _, sel := range selectors {
		switch {
		case sel == "all":
			for _, c := range all {
				if !seen[c.Name] {
					seen[c.Name] = true
					out = append(out, c)
				}
			}
		case strings.HasSuffix(sel, "..."):
			prefix := strings.TrimSuffix(sel, "...")
			matched := false
			for _, c := range all {
				if strings.HasPrefix(c.Name, prefix) {
					matched = true
					if !seen[c.Name] {
						seen[c.Name] = true
						out = append(out, c)
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("bench: no cases match %q", sel)
			}
		default:
			c, ok := byName[sel]
			if !ok {
				return nil, fmt.Errorf("bench: unknown case %q (try \"all\", \"exp/...\", or \"kernel/...\")", sel)
			}
			if !seen[c.Name] {
				seen[c.Name] = true
				out = append(out, c)
			}
		}
	}
	return out, nil
}
