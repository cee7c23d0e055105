package neuro

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"imagebench/internal/imaging"
	"imagebench/internal/volume"
)

// memoLen reports how many distinct Step 2N inputs w has memoized.
func memoLen(w *Workload) int {
	w.denoised.mu.Lock()
	defer w.denoised.mu.Unlock()
	return len(w.denoised.entries)
}

func bitsEqual(a, b *volume.V3) bool {
	if a.NX != b.NX || a.NY != b.NY || a.NZ != b.NZ {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func mustLoadVolume(t *testing.T, w *Workload, subj, vol int) *volume.V3 {
	t.Helper()
	v, err := loadVolume(w, subj, vol)
	if err != nil {
		t.Fatalf("loadVolume(%d, %d): %v", subj, vol, err)
	}
	return v
}

func TestDenoiseMemoSharesDecodedCopies(t *testing.T) {
	w := smallWorkload(t, 1)
	a, b := mustLoadVolume(t, w, 0, 0), mustLoadVolume(t, w, 0, 0)
	if a == b {
		t.Fatal("two decodes returned one volume; the test needs separate copies")
	}
	da, db := w.Denoise(a, nil), w.Denoise(b, nil)
	if da != db {
		t.Error("separately decoded copies of one volume got different results")
	}
	if n := memoLen(w); n != 1 {
		t.Errorf("memo holds %d entries, want 1", n)
	}
}

func TestDenoiseMemoSeparatesMaskedAndUnmasked(t *testing.T) {
	w := smallWorkload(t, 1)
	masks, err := referenceMasks(w)
	if err != nil {
		t.Fatalf("referenceMasks: %v", err)
	}
	v := mustLoadVolume(t, w, 0, 1)
	// An all-zero mask leaves every voxel as it was, unlike no mask at
	// all; the two must not share an entry either.
	empty := volume.New3(v.NX, v.NY, v.NZ)
	masked, unmasked, emptied := w.Denoise(v, masks[0]), w.Denoise(v, nil), w.Denoise(v, empty)
	if masked == unmasked || masked == emptied || unmasked == emptied {
		t.Error("distinct (volume, mask) inputs shared a memo entry")
	}
	if n := memoLen(w); n != 3 {
		t.Errorf("memo holds %d entries, want 3", n)
	}
}

func TestDenoiseMemoComputesOncePerKey(t *testing.T) {
	var m denoiseMemo
	k := keyOf(volume.New3(2, 2, 2), nil)
	var calls atomic.Int32
	out := volume.New3(2, 2, 2)
	const callers = 16
	got := make([]*volume.V3, callers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[i] = m.get(k, func() *volume.V3 {
				calls.Add(1)
				return out
			})
		}()
	}
	start.Done()
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key, want 1", n)
	}
	for i, g := range got {
		if g != out {
			t.Errorf("caller %d got a different result", i)
		}
	}
}

func TestDenoiseMemoConcurrentCallersShareResult(t *testing.T) {
	w := smallWorkload(t, 1)
	const callers = 8
	got := make([]*volume.V3, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each caller decodes its own copy, as engine UDFs do.
			v, err := loadVolume(w, 0, 2)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = w.Denoise(v, nil)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != got[0] {
			t.Errorf("caller %d got a different result", i)
		}
	}
	if n := memoLen(w); n != 1 {
		t.Errorf("memo holds %d entries, want 1", n)
	}
}

func TestDenoiseMemoBitIdenticalToKernel(t *testing.T) {
	w := smallWorkload(t, 2)
	masks, err := referenceMasks(w)
	if err != nil {
		t.Fatalf("referenceMasks: %v", err)
	}
	for s := 0; s < w.Cfg.Subjects; s++ {
		for vol := 0; vol < w.Cfg.T; vol++ {
			v := mustLoadVolume(t, w, s, vol)
			for _, mask := range []*volume.V3{masks[s], nil} {
				want := imaging.NLMeans3(v, mask, DenoiseOpts)
				// Twice: the first call computes, the second is a hit.
				for rep := 0; rep < 2; rep++ {
					if got := w.Denoise(v, mask); !bitsEqual(got, want) {
						t.Fatalf("%s (masked=%v, call %d): memo output differs from NLMeans3", VolKey(s, vol), mask != nil, rep+1)
					}
				}
			}
		}
	}
}

// TestEnginesShareOneDenoisePerInput runs the five engines back to back
// on one workload: each still matches the reference, and between them
// they denoise every volume exactly once masked (Spark, Myria, Dask) and
// once unmasked (SciDB, TensorFlow).
func TestEnginesShareOneDenoisePerInput(t *testing.T) {
	w := smallWorkload(t, 2)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	spark, err := RunSpark(w, testCluster(), nil, SparkOpts{Partitions: 8})
	if err != nil {
		t.Fatalf("RunSpark: %v", err)
	}
	resultsEqual(t, "spark", spark, ref, 1e-9)
	myria, err := RunMyria(w, testCluster(), nil, MyriaOpts{})
	if err != nil {
		t.Fatalf("RunMyria: %v", err)
	}
	resultsEqual(t, "myria", myria, ref, 1e-9)
	dask, err := RunDask(w, testCluster(), nil)
	if err != nil {
		t.Fatalf("RunDask: %v", err)
	}
	resultsEqual(t, "dask", dask, ref, 1e-9)
	perInput := w.Cfg.Subjects * w.Cfg.T
	if n := memoLen(w); n != perInput {
		t.Errorf("after the masked engines the memo holds %d entries, want %d", n, perInput)
	}

	scidb, err := RunSciDB(w, testCluster(), nil, SciDBAio)
	if err != nil {
		t.Fatalf("RunSciDB: %v", err)
	}
	tf, err := RunTF(w, testCluster(), nil, TFOpts{})
	if err != nil {
		t.Fatalf("RunTF: %v", err)
	}
	for s := 0; s < w.Cfg.Subjects; s++ {
		if !bitsEqual(scidb.Masks[s], ref.Subjects[s].Mask) {
			t.Errorf("scidb: subject %d mask differs from the reference", s)
		}
		for vol := 0; vol < w.Cfg.T; vol++ {
			key := VolKey(s, vol)
			want := imaging.NLMeans3(mustLoadVolume(t, w, s, vol), nil, DenoiseOpts)
			if !bitsEqual(tf.Denoised[key], want) {
				t.Errorf("tf: %s differs from unmasked NLMeans3", key)
			}
			// SciDB's output crosses stream() as TSV; TSV keeps float64
			// exactly, so it too matches bit for bit.
			if !bitsEqual(scidb.Denoised[key], want) {
				t.Errorf("scidb: %s differs from unmasked NLMeans3", key)
			}
		}
	}
	if n := memoLen(w); n != 2*perInput {
		t.Errorf("after all five engines the memo holds %d entries, want %d masked + %d unmasked", n, perInput, perInput)
	}
}

func TestReferenceMasksMatchReference(t *testing.T) {
	w := smallWorkload(t, 3)
	ref, err := Reference(w)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	masks, err := referenceMasks(w)
	if err != nil {
		t.Fatalf("referenceMasks: %v", err)
	}
	if len(masks) != len(ref.Subjects) {
		t.Fatalf("got %d masks, want %d", len(masks), len(ref.Subjects))
	}
	for s, sr := range ref.Subjects {
		if !bitsEqual(masks[s], sr.Mask) {
			t.Errorf("subject %d: referenceMasks differs from Reference's mask", s)
		}
	}
	if n := memoLen(w); n != 0 {
		t.Errorf("referenceMasks denoised %d volumes, want none", n)
	}
}

// TestStepRunnersUseMemo checks that repeated denoise-step measurements
// on one workload run the kernel once per distinct input.
func TestStepRunnersUseMemo(t *testing.T) {
	w := smallWorkload(t, 1)
	for _, sys := range []string{"Spark", "Myria", "Dask", "SciDB", "TensorFlow"} {
		if _, err := StepTime(w, testCluster(), nil, sys, "denoise"); err != nil {
			t.Fatalf("StepTime(%s): %v", sys, err)
		}
	}
	if want := 2 * w.Cfg.Subjects * w.Cfg.T; memoLen(w) != want {
		t.Errorf("memo holds %d entries after five denoise steps, want %d", memoLen(w), want)
	}
}
