// p2g-worker runs a P2G execution node: it registers with a master over TCP,
// receives its kernel partition and executes it, exchanging store and
// completion events with the rest of the cluster through the master's
// publish-subscribe broker.
//
// Usage:
//
//	p2g-worker -master host:7420 -id node-a -cores 4
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/workloads"
)

func main() {
	master := flag.String("master", "127.0.0.1:7420", "master address")
	id := flag.String("id", "", "node identifier (default: host PID based)")
	cores := flag.Int("cores", 2, "worker threads on this node")
	speed := flag.Float64("speed", 1, "relative speed factor reported to the master")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of this node's kernel instances")
	metricsAddr := flag.String("metrics-addr", "", "serve /metricz, /statusz and /tracez on this address, e.g. :9091")
	standby := flag.Bool("standby", false, "register as a hot spare: wait without a partition until the master promotes this node after a peer dies (requires the master to run with -failover and -standbys)")
	flag.Parse()

	if *id == "" {
		host, _ := os.Hostname()
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		srv := obs.NewServer(*metricsAddr, reg, tracer, func() any {
			return map[string]any{"node": *id, "cores": *cores, "master": *master}
		})
		if err := srv.Start(); err != nil {
			fail(err)
		}
		defer srv.Stop()
		fmt.Fprintf(os.Stderr, "p2g-worker: serving introspection on http://%s\n", srv.Addr())
	}

	conn, err := dist.DialTCP(*master)
	if err != nil {
		fail(err)
	}
	rep, err := dist.RunWorker(dist.WorkerConfig{
		NodeID:        *id,
		Cores:         *cores,
		Speed:         *speed,
		Factory:       workloads.FromSpec,
		BoundsFactory: workloads.SpecBounds,
		Output:        os.Stdout,
		Standby:       *standby,
		Metrics:       reg,
		Tracer:        tracer,
	}, conn)
	if err != nil {
		fail(err)
	}
	if rep == nil {
		// A standby the master never needed: released cleanly at shutdown.
		fmt.Fprintf(os.Stderr, "p2g-worker %s: standby released without promotion\n", *id)
		return
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "p2g-worker %s: done\n%s", *id, rep.Table())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "p2g-worker:", err)
	os.Exit(1)
}
