// K-means example: run the paper's iterative clustering workload (figure 7)
// on the P2G runtime and verify the result against the sequential baseline,
// whose wall time it prints beside the runtime's. It exits 1 when the
// centroids differ.
//
// Run with:
//
//	go run ./examples/kmeans -n 2000 -k 100 -iters 10 -workers 4
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/kmeans"
	"repro/internal/workloads"
)

func main() {
	n := flag.Int("n", 2000, "number of datapoints (paper: 2000)")
	k := flag.Int("k", 100, "number of clusters (paper: 100)")
	iters := flag.Int("iters", 10, "iterations (paper: 10)")
	workers := flag.Int("workers", 4, "P2G worker threads")
	verbose := flag.Bool("v", false, "print per-iteration centroid summaries")
	flag.Parse()

	cfg := p2g.KMeansConfig{N: *n, K: *k, Iter: *iters, Dim: 2, Seed: 7}
	opts := p2g.KMeansOptions(cfg, *workers)
	if *verbose {
		opts.Output = os.Stdout
	}
	node, err := p2g.NewNode(p2g.KMeans(cfg), opts)
	if err != nil {
		fail(err)
	}
	report, err := node.Run()
	if err != nil {
		fail(err)
	}

	fmt.Printf("clustered %d points into %d clusters, %d iterations, %d workers: %v\n",
		*n, *k, *iters, *workers, report.Wall)
	fmt.Print(report.Table())

	// Verify against Lloyd's algorithm run sequentially.
	got, err := workloads.KMeansCentroids(node, *iters)
	if err != nil {
		fail(err)
	}
	pts := kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed)
	start := time.Now()
	want := kmeans.Sequential(pts, cfg.K, cfg.Iter)
	fmt.Printf("sequential: %v, final shift %.4f\n", time.Since(start), want.Shifts[len(want.Shifts)-1])
	for c := range got {
		if kmeans.SqDist(got[c], want.Centroids[c]) != 0 {
			fail(fmt.Errorf("centroid %d is %v, the sequential baseline has %v", c, got[c], want.Centroids[c]))
		}
	}
	fmt.Println("centroids match the sequential baseline bit for bit")
	membership := make([]int, len(pts))
	for i, p := range pts {
		membership[i] = kmeans.Assign(p, got)
	}
	fmt.Printf("final inertia: %.2f\n", kmeans.Inertia(pts, got, membership))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kmeans example:", err)
	os.Exit(1)
}
