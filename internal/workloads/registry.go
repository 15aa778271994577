package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/video"
)

// RegisterPayloads does nothing: no built-in workload sends a Go object
// between nodes, and none can (field.ErrGoObject). It stays only because the
// benchmark ledger calls it.
func RegisterPayloads() {}

// FromSpec builds a workload program from a textual spec, the format the
// distributed tools exchange:
//
//	mulsum
//	kmeans:n=2000,k=100,iter=10,seed=7
//	mjpeg:frames=50,w=352,h=288,quality=75,seed=42,fast=0
//
// Every participating node must use the same spec so program structures
// agree.
func FromSpec(spec string) (*core.Program, error) {
	name, argstr, _ := strings.Cut(spec, ":")
	args := map[string]string{}
	if argstr != "" {
		for _, part := range strings.Split(argstr, ",") {
			k, v, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("workloads: bad spec argument %q", part)
			}
			args[k] = v
		}
	}
	num := func(key string, def int) (int, error) {
		s, ok := args[key]
		if !ok {
			return def, nil
		}
		return strconv.Atoi(s)
	}
	switch name {
	case "mulsum":
		return MulSum(), nil
	case "kmeans":
		cfg := KMeansConfig{}
		var err error
		if cfg.N, err = num("n", 0); err != nil {
			return nil, err
		}
		if cfg.K, err = num("k", 0); err != nil {
			return nil, err
		}
		if cfg.Dim, err = num("dim", 0); err != nil {
			return nil, err
		}
		if cfg.Iter, err = num("iter", 0); err != nil {
			return nil, err
		}
		seed, err := num("seed", 7)
		if err != nil {
			return nil, err
		}
		cfg.Seed = uint64(seed)
		return KMeans(cfg), nil
	case "mjpeg":
		frames, err := num("frames", 50)
		if err != nil {
			return nil, err
		}
		w, err := num("w", video.CIFWidth)
		if err != nil {
			return nil, err
		}
		h, err := num("h", video.CIFHeight)
		if err != nil {
			return nil, err
		}
		quality, err := num("quality", 0)
		if err != nil {
			return nil, err
		}
		seed, err := num("seed", 42)
		if err != nil {
			return nil, err
		}
		fast, err := num("fast", 0)
		if err != nil {
			return nil, err
		}
		return MJPEG(MJPEGConfig{
			Source:  video.NewSynthetic(w, h, frames, uint64(seed)),
			Quality: quality,
			FastDCT: fast != 0,
		}), nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (want mulsum, kmeans or mjpeg)", name)
}

// SpecBounds returns the per-kernel age bounds a spec needs to terminate
// (K-means' iteration break-point); nil when the workload terminates on its
// own.
func SpecBounds(spec string) map[string]int {
	name, argstr, _ := strings.Cut(spec, ":")
	if name != "kmeans" {
		return nil
	}
	iter := 10
	for _, part := range strings.Split(argstr, ",") {
		if k, v, ok := strings.Cut(part, "="); ok && k == "iter" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				iter = n
			}
		}
	}
	return map[string]int{"assign": iter - 1, "refine": iter - 1, "print": iter}
}
