package workloads

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/runtime"
)

// KMeansConfig parameterizes the K-means workload. The paper's evaluation
// uses N=2000 points, K=100 clusters and 10 iterations (§VIII-B).
type KMeansConfig struct {
	N    int // number of datapoints
	Dim  int // point dimensionality
	K    int // number of clusters
	Iter int // fixed iteration count (the paper's break-point)
	Seed uint64
}

// withDefaults fills the paper's parameters for zero fields.
func (c KMeansConfig) withDefaults() KMeansConfig {
	if c.N == 0 {
		c.N = 2000
	}
	if c.Dim == 0 {
		c.Dim = 2
	}
	if c.K == 0 {
		c.K = 100
	}
	if c.Iter == 0 {
		c.Iter = 10
	}
	return c
}

// KMeans builds the figure 7 program:
//
//	init ─▶ datapoints(0) ──▶ assign ─▶ membership(a) ─▶ refine ─▶ centroids(a+1)
//	     └─▶ centroids(0) ──▶ assign                      ▲
//	                          (loop: refine feeds the next age's assign)
//
// One assign instance runs per datapoint per iteration; one refine instance
// per cluster per iteration; print runs once per iteration plus once for the
// final centroids. Iterations are bounded by the runtime options from
// KMeansOptions — the scheduler-level break-point the paper describes.
//
// Datapoints and centroids are rank-2 float64 fields ([point][coordinate]):
// assign slab-fetches its point row, refine slab-stores its new centroid row,
// and the kernel bodies run over the flat typed backing — the memory path
// never boxes a coordinate.
func KMeans(cfg KMeansConfig) *core.Program {
	cfg = cfg.withDefaults()
	b := core.NewBuilder("kmeans")
	b.Field("datapoints", field.Float64, 2, true)
	b.Field("centroids", field.Float64, 2, true)
	b.Field("membership", field.Int32, 1, true)

	b.Kernel("init").
		Local("pts", field.Float64, 2).
		Local("cents", field.Float64, 2).
		StoreAll("datapoints", core.AgeAt(0), "pts").
		StoreAll("centroids", core.AgeAt(0), "cents").
		Body(func(c *core.Ctx) error {
			points := kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed)
			pa := c.Array("pts")
			pa.Grow(cfg.N, cfg.Dim)
			flat := pa.Float64s()
			for i, p := range points {
				copy(flat[i*cfg.Dim:(i+1)*cfg.Dim], p)
			}
			ca := c.Array("cents")
			ca.Grow(cfg.K, cfg.Dim)
			cf := ca.Float64s()
			for i, p := range kmeans.InitialCentroids(points, cfg.K) {
				copy(cf[i*cfg.Dim:(i+1)*cfg.Dim], p)
			}
			return nil
		})

	b.Kernel("assign").Age("a").Index("x").
		Local("p", field.Float64, 1).
		Local("cents", field.Float64, 2).
		Local("m", field.Int32, 0).
		Fetch("p", "datapoints", core.AgeAt(0), core.Idx("x"), core.All()).
		FetchAll("cents", "centroids", core.AgeVar(0)).
		Store("membership", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "m").
		Body(func(c *core.Ctx) error {
			ca := c.Array("cents")
			m := kmeans.AssignFlat(c.Array("p").Float64s(), ca.Float64s(), ca.Extent(1))
			c.SetInt32("m", int32(m))
			return nil
		})

	b.Kernel("refine").Age("a").Index("c").
		Local("cent", field.Float64, 1).
		Local("ms", field.Int32, 1).
		Local("pts", field.Float64, 2).
		Local("next", field.Float64, 1).
		Fetch("cent", "centroids", core.AgeVar(0), core.Idx("c"), core.All()).
		FetchAll("ms", "membership", core.AgeVar(0)).
		FetchAll("pts", "datapoints", core.AgeAt(0)).
		Store("centroids", core.AgeVar(1), []core.IndexSpec{core.Idx("c"), core.All()}, "next").
		Body(func(c *core.Ctx) error {
			pa := c.Array("pts")
			dim := pa.Extent(1)
			next := c.Array("next")
			next.Grow(dim)
			kmeans.RefineFlat(c.Index("c"), pa.Float64s(), dim,
				c.Array("ms").Int32s(), c.Array("cent").Float64s(), next.Float64s())
			return nil
		})

	b.Kernel("print").Age("a").
		Local("cents", field.Float64, 2).
		FetchAll("cents", "centroids", core.AgeVar(0)).
		Body(func(c *core.Ctx) error {
			ca := c.Array("cents")
			var sum float64
			for _, v := range ca.Float64s() {
				sum += v
			}
			c.Printf("iteration %d: %d centroids, coordinate sum %.4f\n", c.Age(), ca.Extent(0), sum)
			return nil
		})

	p, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("workloads: kmeans program invalid: %v", err))
	}
	return p
}

// KMeansOptions returns runtime options that bound the loop to cfg.Iter
// iterations: assign and refine run for ages 0..Iter-1, print additionally
// sees the final centroids at age Iter. These per-kernel bounds are the
// break-point §VIII-B introduces to make running times comparable.
func KMeansOptions(cfg KMeansConfig, workers int) runtime.Options {
	cfg = cfg.withDefaults()
	return runtime.Options{
		Workers: workers,
		KernelMaxAge: map[string]int{
			"assign": cfg.Iter - 1,
			"refine": cfg.Iter - 1,
			"print":  cfg.Iter,
		},
	}
}

// CentroidPoints converts a rank-2 centroids snapshot ([cluster][coordinate]
// float64) into per-cluster points (copied out of the snapshot).
func CentroidPoints(s *field.Array) []kmeans.Point {
	k, dim := s.Extent(0), s.Extent(1)
	flat := s.Float64s()
	out := make([]kmeans.Point, k)
	for c := range out {
		out[c] = append(kmeans.Point(nil), flat[c*dim:(c+1)*dim]...)
	}
	return out
}

// KMeansCentroids extracts the centroids at the given age from a finished
// run.
func KMeansCentroids(n Snapshotter, age int) ([]kmeans.Point, error) {
	s, err := n.Snapshot("centroids", age)
	if err != nil {
		return nil, err
	}
	return CentroidPoints(s), nil
}
