//go:build !race

package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/video"
	"repro/internal/workloads"
)

// TestValidateAllocs: validating a program formats none of its statements —
// a statement's text is built only for the error that names it — and the
// lookup maps stay on the stack while they fit one bucket, which MJPEG's
// fields do not.
func TestValidateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *core.Program
		want float64
	}{
		{"mulsum", workloads.MulSum(), 0},
		{"kmeans", workloads.KMeans(workloads.KMeansConfig{N: 100, Dim: 2, K: 5, Iter: 2, Seed: 1}), 0},
		{"mjpeg", workloads.MJPEG(workloads.MJPEGConfig{Source: video.NewSynthetic(32, 32, 1, 4), Quality: 70}), 3},
	} {
		avg := testing.AllocsPerRun(20, func() {
			if err := tc.prog.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.want {
			t.Errorf("%s: Validate made %.0f allocations, want at most %.0f", tc.name, avg, tc.want)
		}
	}
}
