// Package sched implements P2G's high-level scheduler (HLS): the global
// topology of execution nodes, partitioning of the final implicit static
// dependency graph onto that topology (the paper cites graph partitioning
// [17] and tabu search [14] as candidate algorithms; one is kept, a greedy
// seed refined Kernighan–Lin style [17], since a distributed run places only
// the few unindexed kernels), and instrumentation-driven repartitioning.
package sched

import "fmt"

// ExecNode describes one execution node in the global topology: its core
// count and a relative speed factor (1.0 is the reference machine; the
// paper's heterogeneous future-work targets — GPUs, SCC — are modeled as
// speed factors).
type ExecNode struct {
	ID    string
	Cores int
	Speed float64
}

// Capacity is the node's effective compute capacity.
func (n ExecNode) Capacity() float64 {
	s := n.Speed
	if s <= 0 {
		s = 1
	}
	c := n.Cores
	if c <= 0 {
		c = 1
	}
	return float64(c) * s
}

// Topology is the master node's view of available resources. The paper's
// figure 1: execution nodes report their local topology; the master combines
// them. Bandwidth is the relative inter-node link capacity used to weigh cut
// edges (intra-node communication is free).
type Topology struct {
	Nodes     []ExecNode
	Bandwidth float64
}

// NewTopology builds a homogeneous topology of n nodes with the given cores
// per node.
func NewTopology(n, coresPer int) Topology {
	t := Topology{Bandwidth: 1}
	for i := 0; i < n; i++ {
		t.Nodes = append(t.Nodes, ExecNode{ID: fmt.Sprintf("node%d", i), Cores: coresPer, Speed: 1})
	}
	return t
}

// Add appends a node and returns the updated topology (for fluent setup of
// heterogeneous configurations).
func (t Topology) Add(id string, cores int, speed float64) Topology {
	t.Nodes = append(t.Nodes, ExecNode{ID: id, Cores: cores, Speed: speed})
	return t
}

// TotalCapacity sums node capacities.
func (t Topology) TotalCapacity() float64 {
	var s float64
	for _, n := range t.Nodes {
		s += n.Capacity()
	}
	return s
}

func (t Topology) bandwidth() float64 {
	if t.Bandwidth <= 0 {
		return 1
	}
	return t.Bandwidth
}
