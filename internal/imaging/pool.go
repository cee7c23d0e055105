package imaging

import (
	"context"

	"imagebench/internal/volume"
)

// The kernels' tiled worker pool is a stage over the volume streaming
// layer: work arrives as a pull-based stream of z-slab blocks
// (volume.Tiles), a bounded worker set consumes it (volume.ForEach),
// and scratch buffers come from the shared volume.Scratch arena. Every
// voxel is computed by exactly the same expression as the sequential
// loop and each tile writes a disjoint output slab, so results are
// bit-identical to the sequential path for any worker count and any
// tile size.

// tileRows is the convolution's tile height in z-planes: one plane
// per tile keeps load balancing fine-grained. NLMeans instead runs one
// slab per worker, because each of its slabs repeats a halo.
const tileRows = 1

// resolveWorkers maps a Workers option to an effective pool size:
// non-positive means GOMAXPROCS, and the pool never exceeds the tile
// count (workers > tiles would idle).
func resolveWorkers(workers, tiles int) int {
	workers = volume.ResolveWorkers(workers)
	if workers > tiles {
		workers = tiles
	}
	return workers
}

// runTiles applies fn to each tile of at most rows z-planes of nz,
// using the given worker count. It returns ctx.Err() if the context is
// canceled; workers stop picking up new tiles at the next tile
// boundary, so a nonzero error means the output may be incomplete and
// must be discarded by the caller.
func runTiles(ctx context.Context, nz, rows, workers int, fn func(z0, z1 int)) error {
	tiles := volume.TileZ(nz, rows)
	workers = resolveWorkers(workers, len(tiles))
	return volume.ForEach(ctx, volume.Tiles(nz, rows), workers, func(bv volume.BlockVol) {
		fn(bv.B.Z0, bv.B.Z1)
	})
}

// getScratch returns an nx×ny×nz volume from the shared arena whose
// contents are arbitrary — callers must write every voxel before
// reading any.
func getScratch(nx, ny, nz int) *volume.V3 {
	return volume.Scratch.Get(nx, ny, nz)
}

// putScratch returns a volume obtained from getScratch to the arena.
func putScratch(v *volume.V3) {
	volume.Scratch.Put(v)
}
