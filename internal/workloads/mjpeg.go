package workloads

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/mjpeg"
	"repro/internal/video"
)

// MJPEGConfig parameterizes the Motion JPEG workload (paper figure 8).
type MJPEGConfig struct {
	// Source provides raw frames; the read/splitYUV kernel pulls one per
	// age until the source returns io.EOF.
	Source video.Source
	// Quality is the IJG quality factor (0 selects the default).
	Quality int
	// FastDCT selects the AAN transform for the *DCT kernels.
	FastDCT bool
	// Out, when non-nil, receives the concatenated JPEG frames in display
	// order (the "write" half of the VLC+write kernel). The encoded frames
	// are additionally stored in the `bitstream` field, one generation of
	// bytes per age.
	Out io.Writer
}

// blockLen is the flat row length of one macroblock (8x8 samples).
const blockLen = mjpeg.BlockSize * mjpeg.BlockSize

// MJPEG builds the figure 8 program:
//
//	read/splityuv ──▶ yInput ──▶ yDCT ──▶ yResult ─┐
//	              ├─▶ uInput ──▶ uDCT ──▶ uResult ─┼─▶ vlc/write ─▶ bitstream
//	              └─▶ vInput ──▶ vDCT ──▶ vResult ─┘
//
// One yDCT instance runs per 8x8 luma macroblock per frame (1584 for CIF),
// one uDCT/vDCT per chroma macroblock (396 each). vlc/write serializes
// itself through an aging token field so frames hit the output stream in
// order, and writes one extra, empty instance at end of stream — the paper's
// 51st VLC instance for 50 frames.
//
// The pixel and coefficient fields are rank-2 typed slabs ([block][64]):
// inputs are uint8 samples, results int32 coefficients. Each DCT instance
// slab-fetches its 64-byte row and slab-stores its coefficient row, and
// vlc/write encodes straight out of the flat int32 backing — no per-block
// boxing anywhere on the frame path.
func MJPEG(cfg MJPEGConfig) *core.Program {
	if cfg.Source == nil {
		panic("workloads: MJPEG requires a video source")
	}
	enc := &mjpeg.Encoder{Quality: cfg.Quality, FastDCT: cfg.FastDCT}
	qLuma, qChroma := enc.Tables()

	b := core.NewBuilder("mjpeg")
	for _, f := range []string{"yInput", "uInput", "vInput"} {
		b.Field(f, field.Uint8, 2, true)
	}
	for _, f := range []string{"yResult", "uResult", "vResult"} {
		b.Field(f, field.Int32, 2, true)
	}
	b.Field("bitstream", field.Uint8, 1, true)
	b.Field("dims", field.Int32, 1, true) // frame [width, height], per age
	b.Field("token", field.Int32, 1, true)

	b.Kernel("init").
		Local("t", field.Int32, 0).
		Store("token", core.AgeAt(0), []core.IndexSpec{core.Lit(0)}, "t").
		Body(func(c *core.Ctx) error {
			c.SetInt32("t", 1)
			return nil
		})

	// Frame dimensions flow from the read kernel to vlc_write through the
	// dims field — ordinary dataflow, so the kernels may run on different
	// nodes of a distributed deployment.
	b.Kernel("read_splityuv").Age("a").
		Local("y", field.Uint8, 2).
		Local("u", field.Uint8, 2).
		Local("v", field.Uint8, 2).
		Local("d", field.Int32, 1).
		StoreAll("yInput", core.AgeVar(0), "y").
		StoreAll("uInput", core.AgeVar(0), "u").
		StoreAll("vInput", core.AgeVar(0), "v").
		StoreAll("dims", core.AgeVar(0), "d").
		Body(func(c *core.Ctx) error {
			f, err := cfg.Source.Next()
			if err == io.EOF {
				c.Stop()
				return nil
			}
			if err != nil {
				return fmt.Errorf("reading frame %d: %w", c.Age(), err)
			}
			d := c.Array("d")
			d.Put(field.Int32Val(int32(f.W)), 0)
			d.Put(field.Int32Val(int32(f.H)), 1)
			for _, pl := range [3]struct {
				name string
				data []byte
				w, h int
			}{
				{"y", f.Y, f.W, f.H},
				{"u", f.U, f.W / 2, f.H / 2},
				{"v", f.V, f.W / 2, f.H / 2},
			} {
				arr := c.Array(pl.name)
				arr.Grow(mjpeg.NumBlocks(pl.w, pl.h), blockLen)
				mjpeg.ExtractBlocksU8(pl.data, pl.w, pl.h, arr.Uint8s())
			}
			return nil
		})

	dct := func(kernel, in, out string, qt *mjpeg.QuantTable) {
		b.Kernel(kernel).Age("a").Index("x").
			Local("blk", field.Uint8, 1).
			Local("res", field.Int32, 1).
			Fetch("blk", in, core.AgeVar(0), core.Idx("x"), core.All()).
			Store(out, core.AgeVar(0), []core.IndexSpec{core.Idx("x"), core.All()}, "res").
			Body(func(c *core.Ctx) error {
				px := c.Array("blk").Uint8s()
				var blk mjpeg.Block
				for i, v := range px {
					blk[i] = int32(v)
				}
				res := c.Array("res")
				res.Grow(blockLen)
				mjpeg.DCTQuantBlock(&blk, qt, cfg.FastDCT, (*mjpeg.Block)(res.Int32s()))
				return nil
			})
	}
	dct("yDCT", "yInput", "yResult", qLuma)
	dct("uDCT", "uInput", "uResult", qChroma)
	dct("vDCT", "vInput", "vResult", qChroma)

	b.Kernel("vlc_write").Age("a").
		Local("y", field.Int32, 2).
		Local("u", field.Int32, 2).
		Local("v", field.Int32, 2).
		Local("tok", field.Int32, 0).
		Local("tokOut", field.Int32, 0).
		Local("jpeg", field.Uint8, 1).
		Local("d", field.Int32, 1).
		FetchAll("y", "yResult", core.AgeVar(0)).
		FetchAll("u", "uResult", core.AgeVar(0)).
		FetchAll("v", "vResult", core.AgeVar(0)).
		FetchAll("d", "dims", core.AgeVar(0)).
		Fetch("tok", "token", core.AgeVar(0), core.Lit(0)).
		StoreAll("bitstream", core.AgeVar(0), "jpeg").
		Store("token", core.AgeVar(1), []core.IndexSpec{core.Lit(0)}, "tokOut").
		Body(func(c *core.Ctx) error {
			ya := c.Array("y")
			if ya.Extent(0) == 0 {
				// End of stream: the extra instance that encodes nothing.
				// Leaving jpeg and tokOut unbound suppresses both stores,
				// which ends the token chain cleanly.
				return nil
			}
			coeffs := [3][]int32{ya.Int32s(), c.Array("u").Int32s(), c.Array("v").Int32s()}
			d := c.Array("d")
			data := mjpeg.EncodeFrameJPEGFlat(&coeffs, int(d.At(0).Int32()), int(d.At(1).Int32()), qLuma, qChroma)
			if cfg.Out != nil {
				if _, err := cfg.Out.Write(data); err != nil {
					return fmt.Errorf("writing frame %d: %w", c.Age(), err)
				}
			}
			jpeg := c.Array("jpeg")
			jpeg.Grow(len(data))
			copy(jpeg.Uint8s(), data)
			c.SetInt32("tokOut", 1)
			return nil
		})

	p, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("workloads: mjpeg program invalid: %v", err))
	}
	return p
}

// Snapshotter is the final state of a finished run: a *runtime.Node, or the
// store log a distributed run's master returns (dist.StoreLog).
type Snapshotter interface {
	Snapshot(fieldName string, age int) (*field.Array, error)
}

// MJPEGStream collects the encoded frames from a finished run's bitstream
// field into one contiguous MJPEG stream in age order.
func MJPEGStream(n Snapshotter, frames int) ([]byte, error) {
	var out []byte
	for a := 0; a < frames; a++ {
		s, err := n.Snapshot("bitstream", a)
		if err != nil {
			return nil, err
		}
		if s.Extent(0) == 0 {
			return nil, fmt.Errorf("workloads: no bitstream stored for frame %d", a)
		}
		out = append(out, s.Uint8s()...)
	}
	return out, nil
}
