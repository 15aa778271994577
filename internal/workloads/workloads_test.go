package workloads

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/mjpeg"
	"repro/internal/runtime"
	"repro/internal/sift"
	"repro/internal/video"
)

func TestMulSumGolden(t *testing.T) {
	var out strings.Builder
	rep, err := runtime.Run(MulSum(), runtime.Options{Workers: 1, MaxAge: 1, Output: &out})
	if err != nil {
		t.Fatal(err)
	}
	want := "10 11 12 13 14 \n20 22 24 26 28 \n25 27 29 31 33 \n50 54 58 62 66 \n"
	if out.String() != want {
		t.Errorf("output %q, want %q", out.String(), want)
	}
	if rep.Kernel("print").Instances != 2 {
		t.Error("print instances")
	}
}

func TestMulSumFusable(t *testing.T) {
	if _, err := core.Fuse(MulSum(), "mul2", "plus5"); err != nil {
		t.Fatalf("mul2/plus5 should be fusable: %v", err)
	}
}

func TestMJPEGMatchesStandaloneBaseline(t *testing.T) {
	const frames = 5
	// Standalone single-threaded baseline.
	var baseline bytes.Buffer
	enc := &mjpeg.Encoder{Quality: 80}
	n, err := enc.EncodeStream(video.NewSynthetic(64, 48, frames, 7), &baseline)
	if err != nil || n != frames {
		t.Fatalf("baseline: %d frames, %v", n, err)
	}

	// P2G dataflow version on the identical source.
	var streamed bytes.Buffer
	prog := MJPEG(MJPEGConfig{
		Source:  video.NewSynthetic(64, 48, frames, 7),
		Quality: 80,
		Out:     &streamed,
	})
	node, err := runtime.NewNode(prog, runtime.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}

	// Bit-exact equality: the P2G pipeline runs the same substrate code.
	got, err := MJPEGStream(node, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseline.Bytes()) {
		t.Errorf("P2G bitstream (%d bytes) differs from baseline (%d bytes)", len(got), baseline.Len())
	}
	// The streaming writer received the frames in display order.
	if !bytes.Equal(streamed.Bytes(), baseline.Bytes()) {
		t.Error("streamed output differs from baseline (ordering broken?)")
	}

	// Instance accounting: frames+1 read and vlc instances (the paper's
	// "51 instances for 50 frames"), one DCT instance per macroblock.
	if got := rep.Kernel("read_splityuv").Instances; got != frames+1 {
		t.Errorf("read instances = %d, want %d", got, frames+1)
	}
	if got := rep.Kernel("vlc_write").Instances; got != frames+1 {
		t.Errorf("vlc instances = %d, want %d", got, frames+1)
	}
	if got := rep.Kernel("yDCT").Instances; got != int64(frames*48) { // 64x48 → 8x6 blocks
		t.Errorf("yDCT instances = %d, want %d", got, frames*48)
	}
	if got := rep.Kernel("uDCT").Instances; got != int64(frames*12) { // 32x24 → 4x3 blocks
		t.Errorf("uDCT instances = %d, want %d", got, frames*12)
	}

	// Every frame decodes.
	for i, fr := range mjpeg.SplitFrames(got) {
		if _, err := mjpeg.DecodeFrameJPEG(fr); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

func TestMJPEGPaperGeometry(t *testing.T) {
	if testing.Short() {
		t.Skip("CIF encode in short mode")
	}
	const frames = 2
	prog := MJPEG(MJPEGConfig{Source: video.NewCIFSource(frames, 1), FastDCT: true})
	node, err := runtime.NewNode(prog, runtime.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The counts behind Table II: 1584 luma + 2x396 chroma instances/frame.
	if got := rep.Kernel("yDCT").Instances; got != frames*1584 {
		t.Errorf("yDCT instances = %d, want %d", got, frames*1584)
	}
	if got := rep.Kernel("uDCT").Instances; got != frames*396 {
		t.Errorf("uDCT instances = %d, want %d", got, frames*396)
	}
	if got := rep.Kernel("vDCT").Instances; got != frames*396 {
		t.Errorf("vDCT instances = %d, want %d", got, frames*396)
	}
}

func TestMJPEGDeterministicAcrossWorkers(t *testing.T) {
	const frames = 3
	var ref []byte
	for _, workers := range []int{1, 4} {
		prog := MJPEG(MJPEGConfig{Source: video.NewSynthetic(32, 32, frames, 3)})
		node, err := runtime.NewNode(prog, runtime.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := node.Run(); err != nil {
			t.Fatal(err)
		}
		stream, err := MJPEGStream(node, frames)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = stream
		} else if !bytes.Equal(ref, stream) {
			t.Errorf("workers=%d produced a different bitstream", workers)
		}
	}
}

func TestKMeansMatchesSequential(t *testing.T) {
	cfg := KMeansConfig{N: 300, Dim: 2, K: 10, Iter: 6, Seed: 11}
	prog := KMeans(cfg)
	node, err := runtime.NewNode(prog, KMeansOptions(cfg, 4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}

	// Table III accounting.
	if got := rep.Kernel("init").Instances; got != 1 {
		t.Errorf("init instances = %d", got)
	}
	if got := rep.Kernel("assign").Instances; got != int64(cfg.N*cfg.Iter) {
		t.Errorf("assign instances = %d, want %d", got, cfg.N*cfg.Iter)
	}
	if got := rep.Kernel("refine").Instances; got != int64(cfg.K*cfg.Iter) {
		t.Errorf("refine instances = %d, want %d", got, cfg.K*cfg.Iter)
	}
	if got := rep.Kernel("print").Instances; got != int64(cfg.Iter+1) {
		t.Errorf("print instances = %d, want %d", got, cfg.Iter+1)
	}

	// Bit-exact equivalence with the sequential baseline.
	want := kmeans.Sequential(kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed), cfg.K, cfg.Iter)
	got, err := KMeansCentroids(node, cfg.Iter)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != cfg.K {
		t.Fatalf("%d centroids", len(got))
	}
	for c := range got {
		if kmeans.SqDist(got[c], want.Centroids[c]) != 0 {
			t.Fatalf("centroid %d: P2G %v, sequential %v", c, got[c], want.Centroids[c])
		}
	}
}

func TestKMeansDeterministicAcrossWorkers(t *testing.T) {
	cfg := KMeansConfig{N: 200, Dim: 3, K: 8, Iter: 4, Seed: 2}
	var ref []kmeans.Point
	for _, workers := range []int{1, 2, 8} {
		node, err := runtime.NewNode(KMeans(cfg), KMeansOptions(cfg, workers))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := node.Run(); err != nil {
			t.Fatal(err)
		}
		cents, err := KMeansCentroids(node, cfg.Iter)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = cents
		} else {
			for c := range cents {
				if kmeans.SqDist(ref[c], cents[c]) != 0 {
					t.Fatalf("workers=%d: centroid %d differs", workers, c)
				}
			}
		}
	}
}

func TestKMeansPrintOutput(t *testing.T) {
	cfg := KMeansConfig{N: 50, Dim: 2, K: 5, Iter: 3, Seed: 1}
	var out strings.Builder
	opts := KMeansOptions(cfg, 1)
	opts.Output = &out
	if _, err := runtime.Run(KMeans(cfg), opts); err != nil {
		t.Fatal(err)
	}
	for a := 0; a <= cfg.Iter; a++ {
		if !strings.Contains(out.String(), fmt.Sprintf("iteration %d:", a)) {
			t.Errorf("missing print for iteration %d in %q", a, out.String())
		}
	}
}

func TestKMeansDefaultsArePaperParameters(t *testing.T) {
	c := KMeansConfig{}.withDefaults()
	if c.N != 2000 || c.K != 100 || c.Iter != 10 {
		t.Errorf("defaults %+v do not match §VIII-B", c)
	}
}

func TestMJPEGRequiresSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil source should panic")
		}
	}()
	MJPEG(MJPEGConfig{})
}

func TestMJPEGStreamMissingFrame(t *testing.T) {
	prog := MJPEG(MJPEGConfig{Source: video.NewSynthetic(16, 16, 1, 1)})
	node, err := runtime.NewNode(prog, runtime.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := MJPEGStream(node, 5); err == nil {
		t.Error("requesting more frames than encoded should error")
	}
}

// TestWavefrontMatchesSequential verifies the §III intra-prediction
// workload: the analyzer discovers the diagonal wavefront from the offset
// fetches, and the result matches a raster-order sequential reference.
func TestWavefrontMatchesSequential(t *testing.T) {
	cfg := WavefrontConfig{Blocks: 12, Frames: 3, Seed: 5}
	prog := Wavefront(cfg)
	node, err := runtime.NewNode(prog, runtime.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	if got := rep.Kernel("predict").Instances; got != int64(cfg.Frames*cfg.Blocks*cfg.Blocks) {
		t.Errorf("predict instances = %d, want %d", got, cfg.Frames*cfg.Blocks*cfg.Blocks)
	}
	if got := rep.Kernel("load").Instances; got != int64(cfg.Frames+1) {
		t.Errorf("load instances = %d", got)
	}
	for a := 0; a < cfg.Frames; a++ {
		in, err := node.Snapshot("input", a)
		if err != nil {
			t.Fatal(err)
		}
		frame := make([][]int32, cfg.Blocks)
		for x := range frame {
			frame[x] = make([]int32, cfg.Blocks)
			for y := range frame[x] {
				frame[x][y] = in.At(x, y).Int32()
			}
		}
		want := WavefrontSequential(frame)
		pred, err := node.Snapshot("pred", a)
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < cfg.Blocks; x++ {
			for y := 0; y < cfg.Blocks; y++ {
				if got := pred.At(x+1, y+1).Int32(); got != want[x][y] {
					t.Fatalf("frame %d block (%d,%d): %d, want %d", a, x, y, got, want[x][y])
				}
			}
		}
		// Halo row/col are the DC default.
		if pred.At(0, 3).Int32() != 128 || pred.At(3, 0).Int32() != 128 {
			t.Error("halo not initialized to 128")
		}
	}
}

func TestWavefrontDeterministicAcrossWorkers(t *testing.T) {
	cfg := WavefrontConfig{Blocks: 8, Frames: 2, Seed: 9}
	var ref *field.Array
	for _, w := range []int{1, 8} {
		node, err := runtime.NewNode(Wavefront(cfg), runtime.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := node.Run(); err != nil {
			t.Fatal(err)
		}
		s, _ := node.Snapshot("pred", cfg.Frames-1)
		if ref == nil {
			ref = s
		} else if !s.Equal(ref) {
			t.Fatalf("workers=%d produced different reconstruction", w)
		}
	}
}

// TestSIFTMatchesSequential runs the §III SIFT front-end through P2G and
// compares keypoints exactly with the sequential reference.
func TestSIFTMatchesSequential(t *testing.T) {
	const frames = 2
	prog := SIFT(SIFTConfig{Source: video.NewSynthetic(48, 40, frames, 13)})
	node, err := runtime.NewNode(prog, runtime.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stalled) != 0 {
		t.Fatalf("stalled: %v", rep.Stalled)
	}
	// Stage granularities: rows for hblur, columns for vblur, interior rows
	// for extrema — the multi-dimensional decomposition §III describes.
	if got := rep.Kernel("hblur0").Instances; got != frames*40 {
		t.Errorf("hblur0 instances = %d, want %d (one per row)", got, frames*40)
	}
	if got := rep.Kernel("vblur0").Instances; got != frames*48 {
		t.Errorf("vblur0 instances = %d, want %d (one per column)", got, frames*48)
	}
	if got := rep.Kernel("extrema0").Instances; got != frames*(40-2) {
		t.Errorf("extrema0 instances = %d, want %d (one per interior row)", got, frames*(40-2))
	}
	src := video.NewSynthetic(48, 40, frames, 13)
	for a := 0; a < frames; a++ {
		f, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		want := sift.Sequential(sift.FromLuma(f.Y, f.W, f.H), sift.DefaultThreshold)
		got, err := SIFTKeypoints(node, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Keypoints) {
			t.Fatalf("frame %d: %d keypoints, want %d", a, len(got), len(want.Keypoints))
		}
		for i := range got {
			if got[i] != want.Keypoints[i] {
				t.Fatalf("frame %d keypoint %d: %+v, want %+v", a, i, got[i], want.Keypoints[i])
			}
		}
		// The collect kernel recorded the same count.
		n, _ := node.Snapshot("nkeys", a)
		if int(n.At(0).Int32()) != len(want.Keypoints) {
			t.Errorf("frame %d: collect counted %d, want %d", a, n.At(0).Int32(), len(want.Keypoints))
		}
	}
}

func TestSIFTRequiresSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil source should panic")
		}
	}()
	SIFT(SIFTConfig{})
}

// TestKMeansStoreBoxes: a slice's stores go out as boxes — one OnStore
// notice per store statement and slice, not one per element or row — so
// assign's membership(a) stores publish exactly one notice per assign slice,
// refine's centroid rows one per refine slice, and a K-means age at N=2000,
// K=100 on two workers publishes at most 200 notices, where one notice per
// element store made it about 2 100. Every kernel-age is cut by its tail
// limit, age 0 included, so each age's assign runs in exactly 2000/(2 × 4) =
// 8 slices of 250 and publishes 8 membership notices, and its refine in 8
// slices of 100/(2 × 4) = 12 and one of 4, publishing 9 centroids notices.
// StoreOps still counts one store per instance.
func TestKMeansStoreBoxes(t *testing.T) {
	const ages = 3
	cfg := KMeansConfig{N: 2000, K: 100, Iter: ages, Dim: 2, Seed: 1}
	opts := KMeansOptions(cfg, 2)
	var mu sync.Mutex
	perAge := make([]int, ages+1)
	membership := make([]int, ages+1)
	centroids := make([]int, ages+1)
	cells := 0
	opts.OnStore = func(sn runtime.StoreNotice) {
		mu.Lock()
		defer mu.Unlock()
		perAge[sn.Age]++
		cells += sn.Value.Array().Len()
		switch sn.Field {
		case "membership":
			membership[sn.Age]++
		case "centroids":
			centroids[sn.Age]++
		}
	}
	rep, err := runtime.Run(KMeans(cfg), opts)
	if err != nil {
		t.Fatal(err)
	}
	for age := 0; age < ages; age++ {
		if perAge[age] > 200 {
			t.Errorf("age %d: %d store notices, want at most 200 (all ages: %v)", age, perAge[age], perAge)
		}
		if membership[age] != 8 {
			t.Errorf("age %d: %d membership notices, want 8 (all ages: %v)", age, membership[age], membership)
		}
		// refine(age) stores centroids(age+1).
		if centroids[age+1] != 9 {
			t.Errorf("age %d: %d centroids notices, want 9 (all ages: %v)", age+1, centroids[age+1], centroids)
		}
	}
	for _, c := range []struct {
		kernel  string
		notices []int
	}{{"assign", membership}, {"refine", centroids[1:]}} {
		total := 0
		for _, m := range c.notices {
			total += m
		}
		if k := rep.Kernel(c.kernel); int64(total) != k.Slices {
			t.Errorf("%d notices for %d %s slices, want one each", total, k.Slices, c.kernel)
		}
	}
	// Every stored cell is in some notice: the datapoints and first
	// centroids, then N memberships and K centroid rows of 2 per age.
	if want := cfg.N*2 + cfg.K*2 + ages*(cfg.N+cfg.K*2); cells != want {
		t.Errorf("notices carry %d cells, want %d", cells, want)
	}
	for _, name := range []string{"assign", "refine"} {
		k := rep.Kernel(name)
		if k.Instances == 0 || k.StoreOps != k.Instances {
			t.Errorf("%s: %d store ops for %d instances, want one per instance", name, k.StoreOps, k.Instances)
		}
	}
}

// TestMJPEGStoreBoxes: a DCT slice's row stores go out as one box — one
// OnStore notice per slice of the DCT kernel for each of yResult, uResult and
// vResult, not one per macroblock — that covers the slice's rows. At CIF on
// two workers, yDCT's 1 584 blocks a frame run in 8 slices of 198 and uDCT's
// and vDCT's 396 in 8 of 49 and one of 4. Every row of every age is covered
// by exactly one notice, and the bitstream is the sequential encoder's.
func TestMJPEGStoreBoxes(t *testing.T) {
	const frames = 2
	var baseline bytes.Buffer
	if n, err := (&mjpeg.Encoder{}).EncodeStream(video.NewCIFSource(frames, 1), &baseline); err != nil || n != frames {
		t.Fatalf("baseline: %d frames, %v", n, err)
	}
	results := map[string]string{"yResult": "yDCT", "uResult": "uDCT", "vResult": "vDCT"}
	var mu sync.Mutex
	notices := map[string][]int{}   // per result field, per age
	covered := map[string][][]int{} // per result field, per age, per row
	opts := runtime.Options{Workers: 2, OnStore: func(sn runtime.StoreNotice) {
		if _, ok := results[sn.Field]; !ok {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for len(notices[sn.Field]) <= sn.Age {
			notices[sn.Field] = append(notices[sn.Field], 0)
			covered[sn.Field] = append(covered[sn.Field], nil)
		}
		notices[sn.Field][sn.Age]++
		a := sn.Value.Array()
		if len(sn.Sel) != 2 || sn.Sel[0].Fixed || sn.Sel[1].Fixed || sn.Sel[1].Index != 0 || a.Rank() != 2 || a.Extent(1) != blockLen {
			t.Errorf("%s(%d): notice %v of %v cells, want whole rows", sn.Field, sn.Age, sn.Sel, a.Extents())
			return
		}
		rows := covered[sn.Field][sn.Age]
		for r := sn.Sel[0].Index; r < sn.Sel[0].Index+a.Extent(0); r++ {
			for len(rows) <= r {
				rows = append(rows, 0)
			}
			rows[r]++
		}
		covered[sn.Field][sn.Age] = rows
	}}
	node, err := runtime.NewNode(MJPEG(MJPEGConfig{Source: video.NewCIFSource(frames, 1)}), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := node.Run()
	if err != nil {
		t.Fatal(err)
	}
	for out, kernel := range results {
		want, blocks := 9, 396
		if out == "yResult" {
			want, blocks = 8, 1584
		}
		total := 0
		for age := 0; age < frames; age++ {
			if got := notices[out][age]; got != want {
				t.Errorf("%s(%d): %d notices, want %d (all ages: %v)", out, age, got, want, notices[out])
			}
			total += notices[out][age]
			if rows := covered[out][age]; len(rows) != blocks || slices.ContainsFunc(rows, func(c int) bool { return c != 1 }) {
				t.Errorf("%s(%d): rows covered %v, want each of %d once", out, age, rows, blocks)
			}
		}
		if k := rep.Kernel(kernel); int64(total) != k.Slices {
			t.Errorf("%s: %d notices for %d %s slices, want one each", out, total, k.Slices, kernel)
		}
	}
	got, err := MJPEGStream(node, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, baseline.Bytes()) {
		t.Errorf("P2G bitstream (%d bytes) differs from the sequential encoder's (%d bytes)", len(got), baseline.Len())
	}
}
