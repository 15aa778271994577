package dist

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// ClusterView is a thread-safe, continuously updated view of a running
// master node, built for the /statusz introspection endpoint: the current
// phase, the partition assignment, and per-worker status merged from
// heartbeats (idle state, event counters, and the kernel stats carried in
// each worker's metric snapshot). All mutating methods are safe on a nil
// receiver (see update), so RunMaster updates its view unconditionally.
type ClusterView struct {
	mu sync.Mutex
	st ClusterStatus
}

// ClusterStatus is the JSON shape served by /statusz on a master.
type ClusterStatus struct {
	Workload   string         `json:"workload,omitempty"`
	Phase      string         `json:"phase"`
	Method     string         `json:"method,omitempty"`
	Assignment map[string]int `json:"assignment,omitempty"`
	// Shares shows each kernel split by index share as the node owning each
	// of its shares, e.g. "yDCT": "0/2@w0 1/2@w1" (see ShareString).
	Shares map[string]string `json:"shares,omitempty"`
	// Liveness configuration: a worker silent for the liveness window is
	// declared dead; with Failover its kernels are reassigned and replayed,
	// otherwise the run fails. Standbys counts spare workers available for
	// takeover.
	LivenessMs int64          `json:"liveness_ms,omitempty"`
	Failover   bool           `json:"failover,omitempty"`
	Standbys   int            `json:"standbys,omitempty"`
	Workers    []WorkerStatus `json:"workers,omitempty"`
	// Cluster is the merge of all worker metric snapshots: counters and
	// gauges sum, histogram buckets add — the whole-cluster totals.
	Cluster *obs.MetricsSnapshot `json:"cluster,omitempty"`
}

// WorkerStatus is one worker's row in the cluster view.
type WorkerStatus struct {
	ID       string  `json:"id"`
	Cores    int     `json:"cores"`
	Speed    float64 `json:"speed"`
	Idle     bool    `json:"idle"`
	Sent     int64   `json:"sent"`
	Received int64   `json:"received"`
	Done     bool    `json:"done"`
	// Dead marks a worker the liveness monitor declared lost.
	Dead     bool      `json:"dead,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`
	// Kernels is derived live from the heartbeat metric snapshot (and
	// replaced by the final report's rows once the worker is done).
	Kernels []runtime.KernelStats `json:"kernels,omitempty"`
	// Metrics is the worker's latest raw snapshot.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// NewClusterView creates a view in the "waiting" phase.
func NewClusterView(workload string) *ClusterView {
	return &ClusterView{st: ClusterStatus{Workload: workload, Phase: "waiting"}}
}

// Status returns a copy of the current cluster state (typed any so it plugs
// directly into obs.NewServer's status callback).
func (v *ClusterView) Status() any {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	out := v.st
	out.Workers = append([]WorkerStatus(nil), v.st.Workers...)
	if len(out.Workers) > 0 {
		merged := &obs.MetricsSnapshot{
			Counters:   map[string]int64{},
			Gauges:     map[string]int64{},
			Histograms: map[string]obs.HistogramSnapshot{},
		}
		have := false
		for _, w := range out.Workers {
			if w.Metrics != nil {
				merged.Merge(w.Metrics)
				have = true
			}
		}
		if have {
			out.Cluster = merged
		}
	}
	return out
}

// update runs f on the status under the lock; on a nil view it does nothing.
func (v *ClusterView) update(f func(st *ClusterStatus)) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	f(&v.st)
}

// worker runs f on worker i's row, if it has one.
func (v *ClusterView) worker(i int, f func(w *WorkerStatus)) {
	v.update(func(st *ClusterStatus) {
		if i >= 0 && i < len(st.Workers) {
			f(&st.Workers[i])
		}
	})
}

func (v *ClusterView) setPhase(phase string) {
	v.update(func(st *ClusterStatus) { st.Phase = phase })
}

func (v *ClusterView) registerWorker(i int, id string, cores int, speed float64) {
	v.update(func(st *ClusterStatus) {
		for len(st.Workers) <= i {
			st.Workers = append(st.Workers, WorkerStatus{})
		}
		st.Workers[i] = WorkerStatus{ID: id, Cores: cores, Speed: speed}
	})
}

func (v *ClusterView) setAssignment(assign map[string]int, shares map[string][]string, method string) {
	v.update(func(st *ClusterStatus) {
		st.Assignment, st.Method, st.Shares = assign, method, nil
		for k, ids := range shares {
			if st.Shares == nil {
				st.Shares = map[string]string{}
			}
			st.Shares[k] = ShareString(ids)
		}
	})
}

// ShareString renders a split kernel's placement — the node ID owning each
// of its shares, in share order — as "0/2@w0 1/2@w1".
func ShareString(ids []string) string {
	var b strings.Builder
	for s, id := range ids {
		if s > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d/%d@%s", s, len(ids), id)
	}
	return b.String()
}

// updateWorker folds one heartbeat into the view.
func (v *ClusterView) updateWorker(i int, idle bool, sent, received int64, snap *obs.MetricsSnapshot) {
	v.worker(i, func(w *WorkerStatus) {
		w.Idle, w.Sent, w.Received, w.LastSeen = idle, sent, received, time.Now()
		if snap != nil {
			w.Metrics = snap
			w.Kernels = KernelStatsFromSnapshot(snap)
		}
	})
}

// setLiveness records the run's failure-detection configuration.
func (v *ClusterView) setLiveness(window time.Duration, failover bool, standbys int) {
	v.update(func(st *ClusterStatus) {
		st.LivenessMs = window.Milliseconds()
		st.Failover = failover
		st.Standbys = standbys
	})
}

// workerDead marks a worker the liveness monitor declared lost.
func (v *ClusterView) workerDead(i int) {
	v.worker(i, func(w *WorkerStatus) { w.Dead, w.Idle = true, false })
}

// workerDone records the final report of one worker.
func (v *ClusterView) workerDone(i int, rep *runtime.Report) {
	v.worker(i, func(w *WorkerStatus) {
		w.Done, w.Idle = true, true
		if rep != nil {
			w.Kernels = append([]runtime.KernelStats(nil), rep.Kernels...)
		}
	})
}

// KernelStatsFromSnapshot reconstructs per-kernel stats rows from the
// labeled kernel counters of a metric snapshot, sorted by kernel name. This
// is how the master shows live Table II/III rows for a worker mid-run.
func KernelStatsFromSnapshot(s *obs.MetricsSnapshot) []runtime.KernelStats {
	if s == nil {
		return nil
	}
	rows := map[string]*runtime.KernelStats{}
	row := func(kernel string) *runtime.KernelStats {
		if r, ok := rows[kernel]; ok {
			return r
		}
		r := &runtime.KernelStats{Name: kernel}
		rows[kernel] = r
		return r
	}
	for full, val := range s.Counters {
		name, kernel := obs.SplitLabel(full)
		if kernel == "" {
			continue
		}
		switch name {
		case obs.MKernelInstances:
			row(kernel).Instances = val
		case obs.MKernelSlices:
			row(kernel).Slices = val
		case obs.MKernelLockstep:
			row(kernel).Lockstep = val
		case obs.MKernelDeclined:
			row(kernel).Declined = val
		case obs.MKernelDispatchNs:
			row(kernel).DispatchTotal = time.Duration(val)
		case obs.MKernelTimeNs:
			row(kernel).KernelTotal = time.Duration(val)
		case obs.MKernelStoreOps:
			row(kernel).StoreOps = val
		}
	}
	out := make([]runtime.KernelStats, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
