// p2g-master runs a P2G master node (paper figure 1): it waits for a fixed
// number of execution nodes to register over TCP, partitions the chosen
// workload with the high-level scheduler, brokers events between nodes,
// detects global quiescence and prints the collected instrumentation.
//
// Usage:
//
//	p2g-master -listen :7420 -nodes 2 -workload kmeans:n=2000,k=100,iter=10
//	p2g-worker -master host:7420 -id a -cores 4 &
//	p2g-worker -master host:7420 -id b -cores 4 &
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	listen := flag.String("listen", ":7420", "TCP listen address")
	nodes := flag.Int("nodes", 2, "execution nodes to wait for")
	workload := flag.String("workload", "mulsum", "workload spec (mulsum | kmeans:... | mjpeg:...)")
	tracePath := flag.String("trace", "", "write a merged Chrome trace_event JSON of the whole cluster (master + every worker, clock-aligned)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metricz and the merged cluster /statusz on this address, e.g. :9090")
	failover := flag.Bool("failover", false, "recover from worker deaths: reassign the lost kernels and replay the logged store frames instead of failing the run")
	standbys := flag.Int("standbys", 0, "additional hot-spare workers to wait for (started with p2g-worker -standby); the first standby takes over when a worker dies")
	liveness := flag.Duration("liveness", 0, "failure-detection window, both directions: a node silent this long at registration or mid-run is dead, and every worker gives up on a master silent this long (0 = 300ms)")
	flag.Parse()

	prog, err := workloads.FromSpec(*workload)
	if err != nil {
		fail(err)
	}
	view := dist.NewClusterView(*workload)
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		srv := obs.NewServer(*metricsAddr, reg, tracer, view.Status)
		if err := srv.Start(); err != nil {
			fail(err)
		}
		defer srv.Stop()
		fmt.Fprintf(os.Stderr, "p2g-master: serving introspection on http://%s\n", srv.Addr())
	}

	l, err := dist.ListenTCP(*listen)
	if err != nil {
		fail(err)
	}
	defer l.Close()
	fmt.Fprintf(os.Stderr, "p2g-master: listening on %s, waiting for %d nodes + %d standbys\n", l.Addr(), *nodes, *standbys)
	// Workers and standbys may connect in any order: RunMaster files each
	// connection by its first message (MRegister or MJoin).
	conns := make([]dist.Conn, *nodes+*standbys)
	for i := range conns {
		if conns[i], err = l.Accept(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "p2g-master: connection %d/%d accepted\n", i+1, len(conns))
	}

	res, err := dist.RunMaster(dist.MasterConfig{
		Prog: prog, Spec: *workload, View: view,
		Metrics: reg, Tracer: tracer,
		Failover: *failover, Liveness: *liveness,
	}, conns)
	if err != nil {
		fail(err)
	}
	for _, id := range res.DeadWorkers {
		fmt.Fprintf(os.Stderr, "p2g-master: worker %s died during the run; its kernels were reassigned (%d logged store frames replayed)\n", id, res.Replayed)
	}

	if tracer != nil {
		// One clock-aligned timeline: the master's own spans as pid 1,
		// each worker's pulled span buffer under its node id.
		bundles := append([]obs.NodeTrace{tracer.NodeTrace("master", 1)}, res.Traces...)
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := obs.WriteMergedChromeTrace(f, bundles); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "p2g-master: merged cluster trace (%d nodes) written to %s\n", len(bundles), *tracePath)
	}

	fmt.Printf("workload %q partitioned (cut %.1f, imbalance %.2f)\n",
		*workload, res.Cost.Cut, res.Cost.Imbalance)
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
			fmt.Printf("  %-16s -> shares %s\n", k, dist.ShareString(ids))
		} else {
			fmt.Printf("  %-16s -> node %d\n", k, res.Assignment[k])
		}
	}
	var ids []string
	for id := range res.Reports {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("-- %s --\n%s", id, res.Reports[id].Table())
	}

	// Transport summary: wire traffic per worker link plus the frame
	// counters the broker accumulated while forwarding batched stores.
	var totalIn, totalOut int64
	for i, c := range conns {
		st := c.Stats()
		totalIn += st.RecvBytes
		totalOut += st.SentBytes
		fmt.Printf("link %d: sent %d msgs / %d bytes, received %d msgs / %d bytes\n",
			i, st.SentMsgs, st.SentBytes, st.RecvMsgs, st.RecvBytes)
	}
	fmt.Printf("transport: %d bytes in, %d bytes out; %d store frames (%d frame bytes)\n",
		totalIn, totalOut,
		reg.Counter(obs.MDistFramesTotal).Load(),
		reg.Counter(obs.MDistFrameBytesTotal).Load())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "p2g-master:", err)
	os.Exit(1)
}
