package main

import (
	"fmt"
	"io"
)

// compareLedgers prints, per workload x end-to-end metric, the medians of
// two sets of runs, how much worse the second is than the first, the bound,
// and each set's own quartile spread. It returns false when any metric
// worsened by more than its bound. A spread wider than the bound means the
// comparison cannot resolve that metric, and is flagged.
func compareLedgers(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  nproc %d  %s\n", pathA, a.Env.Commit, a.Env.NProc, a.Env.GoVersion)
	fmt.Fprintf(w, "b: %s  commit %s  nproc %d  %s\n", pathB, b.Env.Commit, b.Env.NProc, b.Env.GoVersion)
	fmt.Fprintf(w, "%-14s %-24s %4s %12s %12s %8s %6s %8s %8s\n", "workload", "metric", "runs", "median a", "median b", "worse", "bound", "spread a", "spread b")

	ok := true
	for _, wl := range workloadTable {
		for _, m := range endToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: %d runs in %s, %d in %s", wl.Name, m.Name, len(va), pathA, len(vb), pathB)
			}
			ma, mb := median(va), median(vb)
			worse := worsening(ma, mb, m.Better)
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := ""
			switch {
			case worse > m.Bound:
				verdict = "  REGRESSION"
				ok = false
			case m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound):
				verdict = "  unresolved: spread wider than bound"
			}
			fmt.Fprintf(w, "%-14s %-24s %4d %12.6g %12.6g %+7.2f%% %5.0f%% %7.2f%% %7.2f%%%s\n",
				wl.Name, m.Name, min(len(va), len(vb)), ma, mb, worse*100, m.Bound*100, sa*100, sb*100, verdict)
		}
	}
	return ok, nil
}

// worsening is how much worse b is than a, as a share of a: positive when b
// is worse, whichever direction is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// values collects one end-to-end metric over a ledger's untraced runs of one
// workload.
func (lf *ledgerFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range lf.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
