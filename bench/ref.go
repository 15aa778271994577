package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/mjpeg"
	"repro/internal/video"
)

// Seeded inputs, the sequential reference and the output oracle.
//
// The reference is the paper's own baseline (§VIII-A): the standalone
// single-threaded encoder for MJPEG and Lloyd's algorithm for K-means, called
// on the same seeded input the P2G program sees. It has two jobs. Its output,
// computed once during input generation, is the oracle every repetition is
// checked against. And a sample of it is timed immediately before and after
// every repetition: dividing the repetition by the mean of its two neighbours
// cancels the swings in machine speed (a frame of the standalone encoder
// takes anything from 14 to 24 ms on the build host, in phases of seconds)
// that made raw wall numbers of identical code disagree between runs.

// K-means shape of the paper's evaluation (§VIII-B).
const (
	kmN    = 2000
	kmK    = 100
	kmIter = 10
	kmDim  = 2
)

// ---- MJPEG inputs ----------------------------------------------------------

// mjpegInput is one seeded CIF clip with the reference encoder's output.
type mjpegInput struct {
	frames []*video.Frame
	oracle [][]byte // Encoder.EncodeFrame per frame, naive DCT, default quality
}

func newMJPEGInput(frames int, seed uint64) (*mjpegInput, error) {
	in := &mjpegInput{}
	src := video.NewCIFSource(frames, seed)
	enc := &mjpeg.Encoder{}
	for i := 0; i < frames; i++ {
		f, err := src.Next()
		if err != nil {
			return nil, fmt.Errorf("generating frame %d: %w", i, err)
		}
		in.frames = append(in.frames, f)
		in.oracle = append(in.oracle, enc.EncodeFrame(f))
	}
	return in, nil
}

// refAges runs the reference on the clip's next frame: one age of sequential
// work. call counts the calls its goroutine has made, so that every
// reference goroutine walks the whole clip.
func (in *mjpegInput) refAges(call int) (ages, sink int) {
	return 1, len((&mjpeg.Encoder{}).EncodeFrame(in.frames[call%len(in.frames)]))
}

// check compares what the program wrote, one Write per frame in age order,
// with the reference encoder's bytes.
func (in *mjpegInput) check(out [][]byte) error {
	if len(out) != len(in.oracle) {
		return fmt.Errorf("%d frames written, want %d", len(out), len(in.oracle))
	}
	for i := range out {
		if !bytes.Equal(out[i], in.oracle[i]) {
			return fmt.Errorf("frame %d differs from the reference encoder", i)
		}
	}
	return nil
}

func (in *mjpegInput) hash() uint64 {
	h := fnv.New64a()
	for _, f := range in.frames {
		h.Write(f.Y)
		h.Write(f.U)
		h.Write(f.V)
	}
	return h.Sum64()
}

// planes is one frame as read_splityuv would have stored it: the input the
// open-loop generator injects.
type planes struct {
	y, u, v, dims *field.Array
}

func extractPlanes(f *video.Frame) planes {
	blocks := func(p []byte, w, h int) *field.Array {
		a := field.NewArray(field.Uint8, mjpeg.NumBlocks(w, h), mjpeg.BlockSize*mjpeg.BlockSize)
		mjpeg.ExtractBlocksU8(p, w, h, a.Uint8s())
		return a
	}
	return planes{
		y:    blocks(f.Y, f.W, f.H),
		u:    blocks(f.U, f.W/2, f.H/2),
		v:    blocks(f.V, f.W/2, f.H/2),
		dims: field.ArrayFromInt32([]int32{int32(f.W), int32(f.H)}),
	}
}

// ---- K-means inputs --------------------------------------------------------

// kmeansInput is one seeded dataset with the sequential result.
type kmeansInput struct {
	points []kmeans.Point
	oracle []kmeans.Point // kmeans.Sequential centroids after kmIter iterations
}

func newKMeansInput(points []kmeans.Point) *kmeansInput {
	return &kmeansInput{points: points, oracle: kmeans.Sequential(points, kmK, kmIter).Centroids}
}

// refAges runs the reference once: kmIter ages of sequential work.
func (in *kmeansInput) refAges(int) (ages, sink int) {
	return kmIter, len(kmeans.Sequential(in.points, kmK, kmIter).Centroids)
}

// check compares final centroids bit for bit (the P2G bodies use the same
// arithmetic in the same order as Sequential).
func (in *kmeansInput) check(got []kmeans.Point) error {
	if len(got) != len(in.oracle) {
		return fmt.Errorf("%d centroids, want %d", len(got), len(in.oracle))
	}
	for c := range got {
		for d := range got[c] {
			if math.Float64bits(got[c][d]) != math.Float64bits(in.oracle[c][d]) {
				return fmt.Errorf("centroid %d differs from kmeans.Sequential: %v vs %v", c, got[c], in.oracle[c])
			}
		}
	}
	return nil
}

func (in *kmeansInput) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range in.points {
		for _, x := range p {
			bits := math.Float64bits(x)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

//go:embed kmeans.p2g.tmpl
var kmeansTemplate string

// lcgSeed folds the benchmark seed into the template's 31-bit LCG state.
func lcgSeed(seed uint64) int64 { return int64(seed*2654435761%2147483647) + 1 }

// kmeansSource instantiates the .p2g template for one seed.
func kmeansSource(seed uint64) string {
	return strings.NewReplacer(
		"@N@", strconv.Itoa(kmN),
		"@K@", strconv.Itoa(kmK),
		"@SEED@", strconv.FormatInt(lcgSeed(seed), 10),
	).Replace(kmeansTemplate)
}

// lcgPoints mirrors the template's init block in Go, so kmeans.Sequential on
// the result is the oracle for the compiled program.
func lcgPoints(seed uint64) []kmeans.Point {
	s := lcgSeed(seed)
	next := func() float64 {
		s = (s*1103515245 + 12345) % 2147483648
		return float64(s % 100)
	}
	pts := make([]kmeans.Point, kmN)
	for i := range pts {
		x := next()
		pts[i] = kmeans.Point{x, next()}
	}
	return pts
}

// ---- interleaved reference sampler ----------------------------------------

// refFunc is one call of a workload's sequential reference. It returns the
// ages of work it covered and a value derived from its result, which the
// sampler keeps so the call cannot be elided.
type refFunc func(call int) (ages, sink int)

// refSink keeps the references' results alive.
var refSink atomic.Int64

// Reference sample length. A sample lasts refShare of the repetition it
// follows and at least minRefSample, which keeps timer and scheduling
// granularity below 1 % of it. Each repetition is divided by the two samples
// around it, so the reference gets about a quarter of the measured time.
const (
	minRefSample = 10 * time.Millisecond
	refShare     = 1.0 / 3
)

// refSample is one timing of the sequential reference, in seconds per age.
type refSample struct {
	wall, cpu float64
}

// sampleRef times the sequential reference for at least length. The
// reference runs on benchProcs goroutines at once, each working through the
// input on its own, and wall is elapsed time x benchProcs / ages done: the
// sequential time per age at the speed both cores have right now. A P2G run
// keeps both cores busy, and on a shared host the two cores slow down and
// recover independently; a reference on one core reads whichever core it
// landed on, which made identical runs disagree by twice as much.
func sampleRef(ref refFunc, length time.Duration) refSample {
	var wg sync.WaitGroup
	var ages [benchProcs]int
	c0, t0 := processCPU(), time.Now()
	for g := range ages {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := 0
			for call := 0; time.Since(t0) < length; call++ {
				a, s := ref(call)
				ages[g] += a
				sink += s
			}
			refSink.Add(int64(sink))
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), processCPU()-c0
	total := 0
	for _, a := range ages {
		total += a
	}
	return refSample{wall: wall.Seconds() * benchProcs / float64(total), cpu: cpu.Seconds() / float64(total)}
}

// refLength is how long the reference sample after a repetition lasts. An
// open loop idles between frames, so its busy time is its CPU time.
func refLength(w *workload, r rep) time.Duration {
	busy := r.wall
	if w.period > 0 {
		busy = r.cpu / benchProcs
	}
	return max(minRefSample, time.Duration(float64(busy)*refShare))
}

// processCPU returns the user+system CPU time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
