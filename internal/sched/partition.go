package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// Assignment maps each kernel (by index into the final graph's node list) to
// an execution-node index.
type Assignment []int

// Method names the partitioning algorithm. There is one, KL, the zero value:
// a greedy seed refined with Kernighan–Lin-style moves. The type exists for
// the benchmark ledger (bench/), which names KL; Partition refuses any other
// value.
type Method uint8

// KL is the one partitioning method.
const KL Method = 0

// String names the method.
func (m Method) String() string {
	if m == KL {
		return "kl"
	}
	return fmt.Sprintf("method(%d)", uint8(m))
}

// Cost evaluates an assignment: Cut is the total weight of edges crossing
// node boundaries divided by link bandwidth; Imbalance is the ratio of the
// most-loaded node's normalized load to the average. Total is the scalar
// objective the refinement minimizes.
type Cost struct {
	Cut       float64
	Imbalance float64
	Total     float64
}

// imbalancePenalty scales how strongly load imbalance is punished relative
// to cut weight in the scalar objective. The penalty term is multiplied by
// the graph's total normalized compute so that it stays commensurate with
// cut weights whether the graph carries unit weights or nanosecond-scale
// instrumentation data.
const imbalancePenalty = 10

// Evaluate computes the cost of an assignment.
func Evaluate(g *graph.Final, topo Topology, a Assignment) Cost {
	return problem{g: g, topo: topo}.cost(a)
}

// problem is one partitioning instance: the graph, the topology and which of
// the graph's kernels are split (nil: none).
type problem struct {
	g     *graph.Final
	topo  Topology
	split []bool
}

func (p problem) isSplit(k int) bool { return p.split != nil && p.split[k] }

// cost evaluates an assignment. A split kernel runs on every node, so its
// weight loads each node in proportion to capacity, and its edges cross
// between nodes whatever the placement: they are no part of the cut.
func (p problem) cost(a Assignment) Cost {
	g, topo := p.g, p.topo
	idx := nodeIndex(g)
	var cut float64
	for _, e := range g.Edges {
		f, t := idx[e.From], idx[e.To]
		if !p.isSplit(f) && !p.isSplit(t) && a[f] != a[t] {
			cut += e.Weight
		}
	}
	cut /= topo.bandwidth()

	loads := make([]float64, len(topo.Nodes))
	var totalWeight, spread float64
	for i, n := range g.Nodes {
		if p.isSplit(i) {
			spread += n.Weight
		} else {
			loads[a[i]] += n.Weight
		}
		totalWeight += n.Weight
	}
	var maxLoad, total float64
	for i, l := range loads {
		norm := l/topo.Nodes[i].Capacity() + spread/topo.TotalCapacity()
		total += norm
		if norm > maxLoad {
			maxLoad = norm
		}
	}
	avg := total / float64(len(topo.Nodes))
	imb := 1.0
	if avg > 0 {
		imb = maxLoad / avg
	}
	scale := totalWeight / topo.TotalCapacity()
	return Cost{Cut: cut, Imbalance: imb, Total: cut + imbalancePenalty*(imb-1)*scale}
}

func nodeIndex(g *graph.Final) map[string]int {
	idx := make(map[string]int, len(g.Nodes))
	for i, n := range g.Nodes {
		idx[n.Name] = i
	}
	return idx
}

// Partition assigns the final graph's kernels to the topology's execution
// nodes — a greedy seed that klRefine refines — and returns the assignment with
// its cost. m must be KL.
func Partition(g *graph.Final, topo Topology, m Method) (Assignment, Cost, error) {
	return PartitionSplit(g, topo, m, nil)
}

// PartitionSplit is Partition for a run that splits some kernels across every
// node by index share (split[i] for g.Nodes[i]; nil splits none): only the
// other kernels are placed, and a split kernel's entry is -1. Its weight
// counts as load spread over the nodes in proportion to their capacity.
func PartitionSplit(g *graph.Final, topo Topology, m Method, split []bool) (Assignment, Cost, error) {
	if len(topo.Nodes) == 0 {
		return nil, Cost{}, fmt.Errorf("sched: empty topology")
	}
	if len(g.Nodes) == 0 {
		return nil, Cost{}, fmt.Errorf("sched: empty graph")
	}
	if m != KL {
		return nil, Cost{}, fmt.Errorf("sched: unknown method %v (KL is the one method)", m)
	}
	p := problem{g: g, topo: topo, split: split}
	a := p.greedy()
	p.klRefine(a)
	return a, p.cost(a), nil
}

// greedy assigns kernels in descending weight order to the node with the
// lowest normalized load, breaking ties toward the node holding the most
// strongly connected already-placed neighbors.
func (p problem) greedy() Assignment {
	g, topo := p.g, p.topo
	idx := nodeIndex(g)
	order := make([]int, 0, len(g.Nodes))
	for i := range g.Nodes {
		if !p.isSplit(i) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(x, y int) bool {
		return g.Nodes[order[x]].Weight > g.Nodes[order[y]].Weight
	})
	a := make(Assignment, len(g.Nodes))
	for i := range a {
		a[i] = -1
	}
	loads := make([]float64, len(topo.Nodes))

	affinity := func(k, node int) float64 {
		var s float64
		for _, e := range g.Edges {
			f, t := idx[e.From], idx[e.To]
			if f == k && a[t] == node {
				s += e.Weight
			}
			if t == k && a[f] == node {
				s += e.Weight
			}
		}
		return s
	}

	for _, k := range order {
		best, bestScore := 0, math.Inf(-1)
		for n := range topo.Nodes {
			// Prefer low load; affinity breaks near-ties so pipelines
			// stay together when balance permits.
			load := (loads[n] + g.Nodes[k].Weight) / topo.Nodes[n].Capacity()
			score := -load + affinity(k, n)/(1+load)
			if score > bestScore {
				best, bestScore = n, score
			}
		}
		a[k] = best
		loads[best] += g.Nodes[k].Weight
	}
	return a
}

// klRefine performs Kernighan–Lin-style refinement generalized to k
// partitions: repeated passes over all kernels, moving each to the node that
// most reduces total cost, until a pass makes no improvement. It refines a
// in place.
func (p problem) klRefine(a Assignment) {
	cur := p.cost(a).Total
	for pass := 0; pass < 32; pass++ {
		improved := false
		for k := range p.g.Nodes {
			if p.isSplit(k) {
				continue
			}
			orig := a[k]
			bestNode, bestCost := orig, cur
			for n := range p.topo.Nodes {
				if n == orig {
					continue
				}
				a[k] = n
				if c := p.cost(a).Total; c < bestCost-1e-12 {
					bestNode, bestCost = n, c
				}
			}
			a[k] = bestNode
			if bestNode != orig {
				cur = bestCost
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// ApplyInstrumentation weights the final graph with measured data: node
// weights become total kernel time, edge weights the producing kernel's
// instance count (a proxy for message volume), enabling the repartitioning
// loop of §IV.
func ApplyInstrumentation(g *graph.Final, rep *runtime.Report) {
	nw := make(map[string]float64, len(rep.Kernels))
	inst := make(map[string]float64, len(rep.Kernels))
	for _, k := range rep.Kernels {
		nw[k.Name] = float64(k.KernelTotal) + 1
		inst[k.Name] = float64(k.Instances) + 1
	}
	g.SetNodeWeights(nw)
	ew := make(map[string]float64, len(g.Edges))
	for _, e := range g.Edges {
		ew[e.Key()] = inst[e.From]
	}
	g.SetEdgeWeights(ew)
}
