// Motion JPEG example: encode raw YUV 4:2:0 video — a synthetic sequence (the
// reproduction's stand-in for the paper's Foreman clip) or an I420 file —
// with the P2G dataflow encoder, verify the result against the
// single-threaded baseline encoder, decode a frame and report fidelity. It
// exits 1 when the two bitstreams differ.
//
// Run with:
//
//	go run ./examples/mjpeg -frames 10 -workers 4 -o /tmp/out.mjpeg
//	go run ./examples/mjpeg -i clip.yuv -w 352 -h 288 -o /tmp/out.avi
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/mjpeg"
	"repro/internal/video"
)

func main() {
	frames := flag.Int("frames", 10, "frames to encode from the synthetic source")
	input := flag.String("i", "", "raw I420 input file (default: synthetic source)")
	width := flag.Int("w", video.CIFWidth, "frame width")
	height := flag.Int("h", video.CIFHeight, "frame height")
	workers := flag.Int("workers", 4, "P2G worker threads")
	quality := flag.Int("quality", 75, "JPEG quality factor")
	fast := flag.Bool("fast", false, "use the AAN fast DCT instead of the naive one")
	out := flag.String("o", "", "write the MJPEG stream to this file (an .avi name muxes it into AVI)")
	flag.Parse()

	var raw []byte
	if *input != "" {
		var err error
		if raw, err = os.ReadFile(*input); err != nil {
			fail(err)
		}
	}
	// source starts a fresh pass over the input: the dataflow encoder, the
	// baseline and the fidelity check each read it from the first frame.
	source := func() video.Source {
		if *input == "" {
			return video.NewSynthetic(*width, *height, *frames, 42)
		}
		return video.NewReader(bytes.NewReader(raw), *width, *height)
	}

	prog := p2g.MJPEG(p2g.MJPEGConfig{
		Source:  source(),
		Quality: *quality,
		FastDCT: *fast,
	})
	node, err := p2g.NewNode(prog, p2g.Options{Workers: *workers})
	if err != nil {
		fail(err)
	}
	report, err := node.Run()
	if err != nil {
		fail(err)
	}

	// The dataflow encoder must be bit-identical to the sequential one.
	var baseline bytes.Buffer
	enc := &mjpeg.Encoder{Quality: *quality, FastDCT: *fast}
	n, err := enc.EncodeStream(source(), &baseline)
	if err == nil && n == 0 {
		err = fmt.Errorf("no frames in the input")
	}
	if err != nil {
		fail(err)
	}
	stream, err := p2g.MJPEGStream(node, n)
	if err != nil {
		fail(err)
	}
	fmt.Printf("encoded %d %dx%d frames to %d bytes with %d workers in %v\n",
		n, *width, *height, len(stream), *workers, report.Wall)
	fmt.Print(report.Table())
	if !bytes.Equal(stream, baseline.Bytes()) {
		fail(fmt.Errorf("bitstream differs from the baseline encoder"))
	}
	fmt.Println("bitstream matches the single-threaded baseline encoder exactly")

	// Decode the first frame and measure reconstruction quality.
	jpegs := mjpeg.SplitFrames(stream)
	dec, err := mjpeg.DecodeFrameJPEG(jpegs[0])
	if err != nil {
		fail(err)
	}
	src, err := source().Next()
	if err != nil {
		fail(err)
	}
	fmt.Printf("frame 0: %dx%d, PSNR %.2f dB\n", dec.W, dec.H, video.PSNR(src, dec.Reconstruct()))

	if *out == "" {
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	if strings.HasSuffix(strings.ToLower(*out), ".avi") {
		err = mjpeg.WriteAVI(f, jpegs, *width, *height, 25)
	} else {
		_, err = f.Write(stream)
	}
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		fail(err)
	}
	fmt.Println("wrote", *out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mjpeg example:", err)
	os.Exit(1)
}
