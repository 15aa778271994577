// p2grun compiles and executes a P2G kernel-language program on a local
// execution node.
//
// Usage:
//
//	p2grun [-workers N] [-maxage N] [-bound kernel=age,...] program.p2g
//
// It exits 1 when compiling or running the program fails, or when the run
// ends with kernel-ages stalled on dependencies nothing satisfied.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/runtime"
)

func main() {
	workers := flag.Int("workers", 1, "worker threads")
	maxAge := flag.Int("maxage", 0, "global age bound (0 = unbounded)")
	bounds := flag.String("bound", "", "per-kernel age bounds, e.g. assign=9,refine=9,print=10")
	stats := flag.Bool("stats", false, "print the instrumentation table after the run")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of kernel instances (open in chrome://tracing or ui.perfetto.dev)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metricz, /statusz and /tracez on this address during the run, e.g. :9090")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: p2grun [-workers N] [-maxage N] [-bound k=a,...] [-stats] [-trace out.json] [-metrics-addr :9090] program.p2g")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	prog, err := lang.Compile(strings.TrimSuffix(path, ".p2g"), string(src))
	if err != nil {
		fail("%s:%v", path, err)
	}

	opts := runtime.Options{Workers: *workers, MaxAge: *maxAge, Output: os.Stdout}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer(obs.DefaultTraceCapacity)
		opts.Tracer = tracer
	}
	var reg *obs.Registry
	var report *runtime.Report
	if *metricsAddr != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		srv := obs.NewServer(*metricsAddr, reg, tracer, func() any {
			return map[string]any{"program": path, "workers": *workers, "report": report}
		})
		if err := srv.Start(); err != nil {
			fail("%v", err)
		}
		defer srv.Stop()
		fmt.Fprintf(os.Stderr, "p2grun: serving introspection on http://%s\n", srv.Addr())
	}
	if *bounds != "" {
		opts.KernelMaxAge = map[string]int{}
		for _, part := range strings.Split(*bounds, ",") {
			kv := strings.SplitN(part, "=", 2)
			if len(kv) != 2 {
				fail("bad -bound entry %q", part)
			}
			age, err := strconv.Atoi(kv[1])
			if err != nil {
				fail("bad -bound age in %q", part)
			}
			opts.KernelMaxAge[kv[0]] = age
		}
	}

	report, err = runtime.Run(prog, opts)
	if err != nil {
		fail("%v", err)
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("%v", err)
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			fail("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		if n := tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "p2grun: trace ring overflowed, oldest %d spans dropped\n", n)
		}
	}
	if len(report.Stalled) > 0 {
		fmt.Fprintln(os.Stderr, "p2grun: stalled kernel-ages (unsatisfied dependencies):")
		for _, s := range report.Stalled {
			fmt.Fprintln(os.Stderr, "  ", s)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "\nwall time: %v\n%s", report.Wall, report.Table())
	}
	if len(report.Stalled) > 0 {
		os.Exit(1) // the program did not run to completion
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p2grun: "+format+"\n", args...)
	os.Exit(1)
}
