// Distributed example: the full figure 1 architecture on one machine. A
// master node collects the topology from three in-process execution nodes,
// partitions the K-means workload with the high-level scheduler — splitting
// its indexed kernels, assign and refine, into one index share per node —
// brokers store/completion events between the nodes, detects global
// quiescence and gathers per-node instrumentation.
//
// Run with:
//
//	go run ./examples/distributed -nodes 3
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/field"
	"repro/internal/kmeans"
	"repro/internal/workloads"
)

func main() {
	nodes := flag.Int("nodes", 3, "number of execution nodes")
	coresPer := flag.Int("cores", 2, "worker threads per node")
	flag.Parse()

	field.RegisterPayload(kmeans.Point{})
	cfg := workloads.KMeansConfig{N: 600, Dim: 2, K: 20, Iter: 8, Seed: 3}

	masterConns := make([]dist.Conn, *nodes)
	var wg sync.WaitGroup
	for i := 0; i < *nodes; i++ {
		var workerConn dist.Conn
		masterConns[i], workerConn = dist.InprocPipe()
		wg.Add(1)
		go func(i int, conn dist.Conn) {
			defer wg.Done()
			_, err := dist.RunWorker(dist.WorkerConfig{
				NodeID:       fmt.Sprintf("exec-node-%d", i),
				Cores:        *coresPer,
				Prog:         workloads.KMeans(cfg),
				KernelMaxAge: workloads.KMeansOptions(cfg, 1).KernelMaxAge,
			}, conn)
			if err != nil {
				fmt.Fprintf(os.Stderr, "node %d: %v\n", i, err)
			}
		}(i, workerConn)
	}

	res, err := dist.RunMaster(dist.MasterConfig{Prog: workloads.KMeans(cfg)}, masterConns)
	wg.Wait()
	if err != nil {
		fmt.Fprintln(os.Stderr, "master:", err)
		os.Exit(1)
	}

	fmt.Printf("partitioned K-means across %d nodes (cut %.1f, imbalance %.2f):\n",
		*nodes, res.Cost.Cut, res.Cost.Imbalance)
	var kernels []string
	for k := range res.Assignment {
		kernels = append(kernels, k)
	}
	for k := range res.Shares {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	for _, k := range kernels {
		if ids, ok := res.Shares[k]; ok {
			fmt.Printf("  %-8s -> shares %s\n", k, dist.ShareString(ids))
		} else {
			fmt.Printf("  %-8s -> exec-node-%d\n", k, res.Assignment[k])
		}
	}

	fmt.Println("\nper-node instrumentation:")
	var ids []string
	for id := range res.Reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("-- %s --\n%s", id, res.Reports[id].Table())
	}

	// The master's log of brokered store frames holds the complete final state.
	cents, err := res.Shadow.Snapshot("centroids", cfg.Iter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snapshot:", err)
		os.Exit(1)
	}
	want := kmeans.Sequential(kmeans.Generate(cfg.N, cfg.Dim, cfg.K, cfg.Seed), cfg.K, cfg.Iter)
	pts := workloads.CentroidPoints(cents)
	for c := 0; c < cfg.K; c++ {
		if kmeans.SqDist(pts[c], want.Centroids[c]) != 0 {
			fmt.Fprintf(os.Stderr, "centroid %d is %v, the sequential baseline has %v\n", c, pts[c], want.Centroids[c])
			os.Exit(1)
		}
	}
	fmt.Println("\nfinal centroids match the sequential baseline")
}
