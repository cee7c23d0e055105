package imaging

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"imagebench/internal/volume"
)

// TestNLMeans3WindowClampExact pins the whole denoiser: the padded,
// pair-shared kernel must reproduce the direct clamped loop exactly,
// including at volume boundaries.
func TestNLMeans3WindowClampExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := volume.New3(10, 9, 8)
	for i := range v.Data {
		v.Data[i] = 100 + 10*rng.NormFloat64()
	}
	got := NLMeans3(v, nil, NLMeansOpts{})
	want := naiveNLMeans3(v, nil, NLMeansOpts{})
	if !got.SameShape(want) {
		t.Fatal("shape mismatch")
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("voxel %d: %v != %v (must be bit-identical)", i, got.Data[i], want.Data[i])
		}
	}
}

// TestNLMeans3WorkersExact proves the tiled parallel path is
// byte-identical to the sequential reference across randomized volume
// sizes, mask patterns, and worker counts — including workers=1 and
// workers far beyond the tile count.
func TestNLMeans3WorkersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		nx, ny, nz := 3+rng.Intn(10), 3+rng.Intn(9), 1+rng.Intn(11)
		v := volume.New3(nx, ny, nz)
		for i := range v.Data {
			v.Data[i] = 50 + 20*rng.NormFloat64()
		}
		// Mask pattern: nil (unmasked), random sparse, or all-zero.
		var mask *volume.V3
		switch trial % 3 {
		case 1:
			mask = volume.New3(nx, ny, nz)
			for i := range mask.Data {
				if rng.Intn(3) == 0 {
					mask.Data[i] = 1
				}
			}
		case 2:
			mask = volume.New3(nx, ny, nz) // all background
		}
		opts := NLMeansOpts{PatchRadius: 1 + rng.Intn(2), SearchRadius: 1 + rng.Intn(2)}
		want := naiveNLMeans3(v, mask, opts)
		for _, workers := range []int{0, 1, 2, 3, 7, nz, nz + 13, 64} {
			opts.Workers = workers
			got := NLMeans3(v, mask, opts)
			if !got.SameShape(want) {
				t.Fatalf("trial %d workers=%d: shape mismatch", trial, workers)
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("trial %d (%dx%dx%d) workers=%d: voxel %d = %v, want %v (must be bit-identical)",
						trial, nx, ny, nz, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestNLMeans3EntryPointsMatchOracle pins every entry point of the
// kernel to the direct loop bit for bit: NLMeans3, NLMeans3IntoCtx
// into a dirty buffer, and a Collect of NLMeans3Stream, across random
// shapes (1 to 12 voxels per axis), patch and search radii, nil,
// random and centred-blob masks, worker counts, and stream block
// heights of 1, 2 and the whole volume.
func TestNLMeans3EntryPointsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ctx := context.Background()
	for trial := 0; trial < 60; trial++ {
		nx, ny, nz := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		v := streamTestVolume(rng.Int63(), nx, ny, nz)
		var mask *volume.V3
		switch trial % 3 {
		case 1:
			mask = volume.New3(nx, ny, nz)
			for i := range mask.Data {
				if rng.Intn(3) == 0 {
					mask.Data[i] = 1
				}
			}
		case 2:
			mask = blobMask(nx, ny, nz)
		}
		opts := NLMeansOpts{PatchRadius: 1 + rng.Intn(2), SearchRadius: 1 + rng.Intn(3), Workers: rng.Intn(4)}
		if rng.Intn(2) == 0 {
			opts.H = 5 + 20*rng.Float64()
		}
		want := naiveNLMeans3(v, mask, opts)
		check := func(path string, got *volume.V3) {
			t.Helper()
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("trial %d (%dx%dx%d, %+v, mask %d) %s: voxel %d = %v, want %v (must be bit-identical)",
						trial, nx, ny, nz, opts, trial%3, path, i, got.Data[i], want.Data[i])
				}
			}
		}
		check("NLMeans3", NLMeans3(v, mask, opts))
		dst := volume.New3(nx, ny, nz)
		for i := range dst.Data {
			dst.Data[i] = math.NaN()
		}
		if err := NLMeans3IntoCtx(ctx, dst, v, mask, opts); err != nil {
			t.Fatal(err)
		}
		check("NLMeans3IntoCtx", dst)
		for _, rows := range []int{1, 2, nz} {
			s := NLMeans3Stream(ctx, v, mask, opts, volume.NewArena(), rows)
			check(fmt.Sprintf("NLMeans3Stream rows=%d", rows), volume.Collect(nx, ny, nz, s))
		}
	}
}

// blobMask marks a centred ellipsoid with semi-axes 0.38 of each
// dimension, the shape the neuro pipeline's Otsu mask takes.
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

// naiveSeparableConv3 is the pre-optimization separable convolution:
// one freshly allocated volume per 1-D pass, sequential. The parallel
// scratch-reusing path must reproduce it bit-for-bit.
func naiveSeparableConv3(v *volume.V3, kx, ky, kz []float64) *volume.V3 {
	conv := func(u *volume.V3, kernel []float64, ax axis) *volume.V3 {
		out := volume.New3(u.NX, u.NY, u.NZ)
		convAxisInto(out, u, kernel, ax, 0, 0, u.NZ)
		return out
	}
	out := conv(v, kx, axisX)
	out = conv(out, ky, axisY)
	return conv(out, kz, axisZ)
}

// TestSeparableConv3WorkersExact pins the parallel convolution against
// the sequential reference across randomized sizes, kernels, and worker
// counts, including the workers>tiles edge case.
func TestSeparableConv3WorkersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	randKernel := func() []float64 {
		k := GaussianKernel(0.4 + rng.Float64()*1.2)
		return k
	}
	for trial := 0; trial < 12; trial++ {
		nx, ny, nz := 2+rng.Intn(12), 2+rng.Intn(11), 1+rng.Intn(10)
		v := volume.New3(nx, ny, nz)
		for i := range v.Data {
			v.Data[i] = rng.NormFloat64()
		}
		kx, ky, kz := randKernel(), randKernel(), randKernel()
		want := naiveSeparableConv3(v, kx, ky, kz)
		for _, workers := range []int{0, 1, 2, 5, nz + 17, 64} {
			got, err := SeparableConv3Ctx(context.Background(), v, kx, ky, kz, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("trial %d (%dx%dx%d) workers=%d: voxel %d = %v, want %v (must be bit-identical)",
						trial, nx, ny, nz, workers, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// naiveNLMeans3 is the reference oracle: the direct per-voxel loop
// NLMeans3 must reproduce bit for bit. Every voxel evaluates its own
// clipped search window, candidate by candidate, with boundary patches
// clamped voxel by voxel.
func naiveNLMeans3(v *volume.V3, mask *volume.V3, opts NLMeansOpts) *volume.V3 {
	opts = opts.withDefaults()
	out := v.Clone()
	naiveNLMeansSlab(v, mask, out, 0, opts, nlmeansH(v, opts), 0, v.NZ)
	return out
}

// naiveNLMeansSlab denoises the z-planes [z0,z1) of v into out, whose
// plane z0 sits at out z-index z0-outZ0.
func naiveNLMeansSlab(v, mask, out *volume.V3, outZ0 int, opts NLMeansOpts, h float64, z0, z1 int) {
	h2 := h * h
	pr, sr := opts.PatchRadius, opts.SearchRadius
	for z := z0; z < z1; z++ {
		for y := 0; y < v.NY; y++ {
			for x := 0; x < v.NX; x++ {
				if mask != nil && mask.At(x, y, z) == 0 {
					continue
				}
				zlo, zhi := max(-sr, -z), min(sr, v.NZ-1-z)
				ylo, yhi := max(-sr, -y), min(sr, v.NY-1-y)
				xlo, xhi := max(-sr, -x), min(sr, v.NX-1-x)
				var wsum, vsum float64
				for dz := zlo; dz <= zhi; dz++ {
					for dy := ylo; dy <= yhi; dy++ {
						for dx := xlo; dx <= xhi; dx++ {
							cx, cy, cz := x+dx, y+dy, z+dz
							d2 := naivePatchDist2(v, x, y, z, cx, cy, cz, pr)
							w := math.Exp(-d2 / h2)
							wsum += w
							vsum += w * v.At(cx, cy, cz)
						}
					}
				}
				if wsum > 0 {
					out.Set(x, y, z-outZ0, vsum/wsum)
				}
			}
		}
	}
}

// naivePatchDist2 returns the mean squared difference between patches
// centered at (x,y,z) and (cx,cy,cz), clamped at the boundary.
func naivePatchDist2(v *volume.V3, x, y, z, cx, cy, cz, r int) float64 {
	var sum float64
	var n int
	for pz := -r; pz <= r; pz++ {
		for py := -r; py <= r; py++ {
			for px := -r; px <= r; px++ {
				ax, ay, az := clamp(x+px, v.NX), clamp(y+py, v.NY), clamp(z+pz, v.NZ)
				bx, by, bz := clamp(cx+px, v.NX), clamp(cy+py, v.NY), clamp(cz+pz, v.NZ)
				d := v.At(ax, ay, az) - v.At(bx, by, bz)
				sum += d * d
				n++
			}
		}
	}
	return sum / float64(n)
}
