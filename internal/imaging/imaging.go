// Package imaging implements the image-processing algorithms both use
// cases invoke: Otsu thresholding and median filtering (segmentation),
// 3-D non-local means (denoising), sigma-clipped background estimation,
// cosmic-ray detection and repair (astronomy pre-processing), and
// threshold-based connected-component extraction (source detection).
//
// These replace the Dipy and LSST-stack routines the paper's reference
// implementations call.
package imaging

import (
	"context"
	"math"
	"sort"

	"imagebench/internal/volume"
)

// Otsu computes Otsu's threshold for the given samples: the value that
// maximizes between-class variance of the two-class split (Otsu 1975,
// as used by the paper's segmentation step).
func Otsu(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if hi == lo {
		return lo
	}
	const bins = 256
	hist := make([]int, bins)
	scale := float64(bins-1) / (hi - lo)
	for _, s := range samples {
		hist[int((s-lo)*scale)]++
	}
	total := len(samples)
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var wB, sumB float64
	bestVar, bestT := -1.0, 0
	for t := 0; t < bins; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > bestVar {
			bestVar, bestT = between, t
		}
	}
	return lo + (float64(bestT)+1)/scale
}

// OtsuMask thresholds a volume with Otsu's method, returning a binary mask
// (1 = foreground). This is the final sub-step of the paper's Step 1N.
func OtsuMask(v *volume.V3) *volume.V3 {
	t := Otsu(v.Data)
	out := volume.New3(v.NX, v.NY, v.NZ)
	for i, x := range v.Data {
		if x > t {
			out.Data[i] = 1
		}
	}
	return out
}

// MedianFilter3Into applies MedianFilter3 into dst, which must match
// v's shape and not alias it; existing contents are overwritten, so
// dst may come from an arena. Output is bit-identical to MedianFilter3.
func MedianFilter3Into(dst, v *volume.V3, radius int) {
	if radius <= 0 {
		copy(dst.Data, v.Data)
		return
	}
	medianFilter3(dst, v, radius)
}

// MedianFilter3 applies a 3-D median filter with the given radius
// (window edge = 2r+1), clamping at boundaries. Dipy's median_otsu applies
// this smoothing before thresholding.
func MedianFilter3(v *volume.V3, radius int) *volume.V3 {
	if radius <= 0 {
		return v.Clone()
	}
	out := volume.New3(v.NX, v.NY, v.NZ)
	medianFilter3(out, v, radius)
	return out
}

func medianFilter3(out, v *volume.V3, radius int) {
	win := make([]float64, 0, (2*radius+1)*(2*radius+1)*(2*radius+1))
	for z := 0; z < v.NZ; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				win = win[:0]
				for dz := -radius; dz <= radius; dz++ {
					for dy := -radius; dy <= radius; dy++ {
						for dx := -radius; dx <= radius; dx++ {
							xx, yy, zz := clamp(x+dx, v.NX), clamp(y+dy, v.NY), clamp(z+dz, v.NZ)
							win = append(win, v.At(xx, yy, zz))
						}
					}
				}
				out.Set(x, y, z, median(win))
			}
		}
	}
}

func clamp(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// NLMeansOpts configures non-local means denoising.
type NLMeansOpts struct {
	PatchRadius  int     // radius of the comparison patch (default 1)
	SearchRadius int     // radius of the search window (default 2)
	H            float64 // filtering strength; <=0 means auto from noise std
	// Workers bounds the tile worker pool: 0 means GOMAXPROCS, 1 forces
	// the sequential path. The output is bit-identical for every value.
	Workers int
}

func (o NLMeansOpts) withDefaults() NLMeansOpts {
	if o.PatchRadius <= 0 {
		o.PatchRadius = 1
	}
	if o.SearchRadius <= 0 {
		o.SearchRadius = 2
	}
	return o
}

// NLMeans3 denoises a 3-D volume with the blockwise non-local means
// algorithm (Coupé et al. 2008, the paper's Step 2N). When mask is non-nil,
// only voxels with mask≠0 are denoised (the paper uses the segmentation
// mask to skip background); other voxels pass through unchanged.
//
// A denoised voxel is the weighted mean of its search window, clipped
// to the volume: candidate c weighs exp(-d²/h²), where d² is the mean
// squared difference of the two voxels' patches, edge-clamped at the
// boundary. The kernel (nlmeansSlab) computes each pair's weight once
// and credits it to both voxels in their own window order, so the
// result is bit-identical to evaluating every window directly.
//
// The volume is split into one z-slab per worker (opts.Workers,
// 0 = GOMAXPROCS). Each slab writes a disjoint output range and
// recomputes the pairs it shares with the slab below, so the result is
// bit-identical for any worker count.
func NLMeans3(v *volume.V3, mask *volume.V3, opts NLMeansOpts) *volume.V3 {
	out, err := NLMeans3Ctx(context.Background(), v, mask, opts)
	if err != nil {
		// Background context cannot be canceled and the kernel has no
		// other failure mode.
		panic("imaging: NLMeans3: " + err.Error())
	}
	return out
}

// NLMeans3Ctx is NLMeans3 with cooperative cancellation: workers stop
// at the next slab boundary once ctx is canceled, the partially written
// volume is discarded, and (nil, ctx.Err()) is returned.
func NLMeans3Ctx(ctx context.Context, v *volume.V3, mask *volume.V3, opts NLMeansOpts) (*volume.V3, error) {
	out := volume.New3(v.NX, v.NY, v.NZ)
	if err := NLMeans3IntoCtx(ctx, out, v, mask, opts); err != nil {
		return nil, err
	}
	return out, nil
}

// NLMeans3IntoCtx denoises v into dst, which must match v's shape and
// not alias it. Existing contents of dst are overwritten (pass-through
// voxels copy from v, exactly as NLMeans3's initial clone does), so dst
// may come from an arena; output is bit-identical to NLMeans3 for any
// worker count. On cancellation dst is partially written and must be
// discarded or reused, never read.
func NLMeans3IntoCtx(ctx context.Context, dst, v, mask *volume.V3, opts NLMeansOpts) error {
	if !dst.SameShape(v) {
		panic("imaging: NLMeans3IntoCtx shape mismatch")
	}
	opts = opts.withDefaults()
	h := nlmeansH(v, opts)
	copy(dst.Data, v.Data)
	// One slab per worker: a slab repeats its SearchRadius-plane halo,
	// so fewer, taller slabs repeat less.
	workers := resolveWorkers(opts.Workers, v.NZ)
	rows := (v.NZ + workers - 1) / workers
	return runTiles(ctx, v.NZ, rows, workers, func(z0, z1 int) {
		nlmeansSlab(v, mask, dst, 0, opts, h, z0, z1)
	})
}

// NLMeans3Stream is the stream-producing form of the kernel: it
// returns a stream of denoised z-slab blocks of at most rows planes
// each, computed lazily on opts.Workers goroutines with output buffers
// drawn from arena. Each block is one nlmeansSlab call, the same
// function NLMeans3's slabs run (the input stays materialized; only
// the output is streamed), so a Collect of the stream is bit-identical
// to NLMeans3 — but a consumer that reduces each block and releases it
// never holds the full denoised volume, which is how the reference
// pipelines fuse Step 2N into Step 3N. Blocks arrive in ascending Z0
// order; the consumer owns each block and should Release it when done,
// or Drain the stream on early exit.
func NLMeans3Stream(ctx context.Context, v, mask *volume.V3, opts NLMeansOpts, arena *volume.Arena, rows int) volume.Stream {
	opts = opts.withDefaults()
	h := nlmeansH(v, opts)
	plane := v.NX * v.NY
	return volume.Map(ctx, volume.Slabs(v, rows), arena, opts.Workers, func(in volume.BlockVol, out *volume.V3) {
		// Pass-through voxels copy the input, exactly as NLMeans3's
		// up-front clone does; masked-in voxels are then overwritten.
		copy(out.Data, v.Data[in.B.Z0*plane:in.B.Z1*plane])
		nlmeansSlab(v, mask, out, in.B.Z0, opts, h, in.B.Z0, in.B.Z1)
	})
}

// nlmeansH returns the filtering strength: opts.H, or when that is not
// positive 0.7 times the volume's standard deviation (1 for a constant
// volume).
func nlmeansH(v *volume.V3, opts NLMeansOpts) float64 {
	h := opts.H
	if h <= 0 {
		h = 0.7 * v.Summarize().Std
		if h == 0 {
			h = 1
		}
	}
	return h
}

// nlmeansSlab denoises the z-planes [z0,z1) of v into out, whose plane
// z0 sits at out z-index z0-outZ0 (0 for a full-shape output, z0 for a
// slab-shaped block buffer). Voxels outside the mask are not written.
//
// The result is bit for bit that of the direct loop: for each voxel p,
// for each offset d of the clipped window in (dz,dy,dx) order,
// w := exp(-d²(p, p+d)/h²); wsum += w; vsum += w*v[p+d], where d² is
// the mean squared patch difference. Two exact rewrites make it
// cheaper:
//
//   - Patches are read from a copy of the slab's planes padded by
//     PatchRadius with edge replication, which is what clamping every
//     patch index does, so one loop serves interior and boundary.
//   - Each unordered pair {q, q+d} is weighed once, from q, for d > 0.
//     d² is symmetric bit for bit (IEEE a-b is -(b-a), and the squares
//     are summed in the same order), and a voxel's self-weight
//     is exp(-0) = 1 for finite input. Visiting q in raster order
//     credits each voxel its terms in the original order: first the
//     pairs of earlier voxels (d < 0, pushed into the voxel's
//     accumulator as they are visited), then its own self and d > 0
//     terms. So the sums round exactly as before.
//
// A voxel's sums are final once it is visited, so the accumulators are
// a ring of SearchRadius+1 planes. The scratch is bounded by the slab,
// not the volume: that ring twice (weights and values), the padded
// copy of planes [z0-SearchRadius, z1+SearchRadius), and one voxel's
// pair list. The SearchRadius planes below z0 are the halo: they are
// visited only for pairs whose partner lies in the slab, which is the
// work a slab repeats from its neighbour.
func nlmeansSlab(v, mask, out *volume.V3, outZ0 int, opts NLMeansOpts, h float64, z0, z1 int) {
	pr, sr := opts.PatchRadius, opts.SearchRadius
	h2 := h * h
	var d0 float64 // a finite patch's distance to itself
	wself := math.Exp(-d0 / h2)
	nx, ny, nz := v.NX, v.NY, v.NZ
	plane := nx * ny
	lo, hi := max(z0-sr, 0), min(z1-1+sr, nz-1)
	pad := padPlanes(v, pr, lo, hi)
	defer putScratch(pad)
	px, pxy := pad.NX, pad.NX*pad.NY
	ring := sr + 1
	sums := getScratch(nx, ny, 2*ring)
	defer putScratch(sums)
	clear(sums.Data)
	wacc, vacc := sums.Data[:ring*plane], sums.Data[ring*plane:]
	// The pairs one voxel weighs, in window order, and their distances.
	win := 2*sr + 1
	pairs := make([]nlmPair, 0, win*win*win/2)
	d2 := make([]float64, cap(pairs))
	for z := lo; z < z1; z++ {
		zs := z % ring * plane // plane z's accumulator slot
		for y := 0; y < ny; y++ {
			ylo, yhi := max(-sr, -y), min(sr, ny-1-y)
			for x := 0; x < nx; x++ {
				i := x + nx*y
				own := z >= z0 && (mask == nil || mask.Data[z*plane+i] != 0)
				qc := x + px*y + pxy*(z-lo) // q's patch origin in pad
				xlo, xhi := max(-sr, -x), min(sr, nx-1-x)
				pairs = pairs[:0]
				for dz := 0; dz <= min(sr, nz-1-z); dz++ {
					cz := z + dz
					in := cz >= z0 && cz < z1
					if !own && !in {
						continue
					}
					dy0 := ylo
					if dz == 0 {
						dy0 = 0
					}
					for dy := dy0; dy <= yhi; dy++ {
						dx0 := xlo
						if dz == 0 && dy == 0 {
							dx0 = 1
						}
						for dx := dx0; dx <= xhi; dx++ {
							j := i + dx + nx*dy // candidate's in-plane index
							need := in && (mask == nil || mask.Data[cz*plane+j] != 0)
							if !own && !need {
								continue
							}
							acc := -1
							if need {
								acc = cz%ring*plane + j
							}
							pairs = append(pairs, nlmPair{pad: qc + dx + px*dy + pxy*dz, vox: cz*plane + j, acc: acc})
						}
					}
				}
				// Four sums at a time keep the FPU busy; a short last group
				// repeats its final pair.
				last := len(pairs) - 1
				for k := 0; k <= last; k += 4 {
					b := [4]int{pairs[k].pad, pairs[min(k+1, last)].pad, pairs[min(k+2, last)].pad, pairs[min(k+3, last)].pad}
					d := patchDist2(pad.Data, qc, b, pr, px, pxy)
					copy(d2[k:], d[:])
				}
				vq := v.Data[z*plane+i]
				var wsum, vsum float64
				if own {
					wsum = wacc[zs+i] + wself
					vsum = vacc[zs+i] + wself*vq
				}
				for k, c := range pairs {
					w := math.Exp(-d2[k] / h2)
					if own {
						wsum += w
						vsum += w * v.Data[c.vox]
					}
					if c.acc >= 0 {
						wacc[c.acc] += w
						vacc[c.acc] += w * vq
					}
				}
				if own && wsum > 0 {
					out.Data[(z-outZ0)*plane+i] = vsum / wsum
				}
			}
		}
		// Plane z is final; its slot now serves plane z+ring.
		clear(wacc[zs : zs+plane])
		clear(vacc[zs : zs+plane])
	}
}

// nlmPair is one candidate of a visited voxel: its patch origin in the
// padded planes, its index in the volume, and its accumulator index
// (-1 when the slab does not denoise it).
type nlmPair struct{ pad, vox, acc int }

// padPlanes returns a scratch volume holding planes [lo-r, hi+r] of v
// padded by r voxels on every side with edge replication: its voxel
// (x,y,z) is v's (x-r, y-r, lo-r+z) with each coordinate clamped into
// v. Release it with putScratch.
func padPlanes(v *volume.V3, r, lo, hi int) *volume.V3 {
	p := getScratch(v.NX+2*r, v.NY+2*r, hi-lo+1+2*r)
	for z := 0; z < p.NZ; z++ {
		sz := clamp(lo-r+z, v.NZ)
		for y := 0; y < p.NY; y++ {
			src := v.Data[v.Idx(0, clamp(y-r, v.NY), sz):][:v.NX]
			dst := p.Data[p.Idx(0, y, z):][:p.NX]
			copy(dst[r:], src)
			for x := 0; x < r; x++ {
				dst[x], dst[r+v.NX+x] = src[0], src[v.NX-1]
			}
		}
	}
	return p
}

// patchDist2 returns the mean squared differences between the patch
// of radius r whose first voxel sits at a of a padded volume's data p
// (row stride px, plane stride pxy) and the four patches at b. The four
// sums are independent and each runs in (z,y,x) order.
func patchDist2(p []float64, a int, b [4]int, r, px, pxy int) [4]float64 {
	side := 2*r + 1
	var s0, s1, s2, s3 float64
	for pz := 0; pz < side; pz++ {
		for py := 0; py < side; py++ {
			o := pz*pxy + py*px
			rowA := p[a+o : a+o+side]
			r0 := p[b[0]+o : b[0]+o+side]
			r1 := p[b[1]+o : b[1]+o+side]
			r2 := p[b[2]+o : b[2]+o+side]
			r3 := p[b[3]+o : b[3]+o+side]
			r0, r1, r2, r3 = r0[:len(rowA)], r1[:len(rowA)], r2[:len(rowA)], r3[:len(rowA)]
			for i, av := range rowA {
				e0 := av - r0[i]
				s0 += e0 * e0
				e1 := av - r1[i]
				s1 += e1 * e1
				e2 := av - r2[i]
				s2 += e2 * e2
				e3 := av - r3[i]
				s3 += e3 * e3
			}
		}
	}
	n := float64(side * side * side)
	return [4]float64{s0 / n, s1 / n, s2 / n, s3 / n}
}
