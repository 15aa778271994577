package sched

import (
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/runtime"
)

// chainGraph builds a weighted pipeline A→B→C→D with uniform node weights.
func chainGraph() *graph.Final {
	g := &graph.Final{}
	names := []string{"A", "B", "C", "D"}
	for _, n := range names {
		g.Nodes = append(g.Nodes, graph.Node{Name: n, Weight: 1})
	}
	for i := 0; i+1 < len(names); i++ {
		g.Edges = append(g.Edges, graph.Edge{From: names[i], To: names[i+1], Field: "f", Weight: 1})
	}
	return g
}

// twoClusters builds two internally heavy cliques connected by one light
// edge — the canonical partitioning test: the optimal 2-way cut crosses the
// light edge only.
func twoClusters() *graph.Final {
	g := &graph.Final{}
	left := []string{"a1", "a2", "a3"}
	right := []string{"b1", "b2", "b3"}
	for _, n := range append(append([]string{}, left...), right...) {
		g.Nodes = append(g.Nodes, graph.Node{Name: n, Weight: 1})
	}
	heavy := func(ns []string) {
		for i := range ns {
			for j := i + 1; j < len(ns); j++ {
				g.Edges = append(g.Edges, graph.Edge{From: ns[i], To: ns[j], Field: "f", Weight: 10})
			}
		}
	}
	heavy(left)
	heavy(right)
	g.Edges = append(g.Edges, graph.Edge{From: "a1", To: "b1", Field: "bridge", Weight: 1})
	return g
}

func TestTopology(t *testing.T) {
	topo := NewTopology(3, 4)
	if len(topo.Nodes) != 3 || topo.Nodes[0].Capacity() != 4 {
		t.Fatal("homogeneous topology")
	}
	if topo.TotalCapacity() != 12 {
		t.Errorf("capacity %v", topo.TotalCapacity())
	}
	het := NewTopology(1, 2).Add("gpu", 8, 4)
	if het.Nodes[1].Capacity() != 32 {
		t.Errorf("heterogeneous capacity %v", het.Nodes[1].Capacity())
	}
	if (ExecNode{}).Capacity() != 1 {
		t.Error("zero node should default to capacity 1")
	}
}

func TestPartitionSingleNodeHasNoCut(t *testing.T) {
	g := chainGraph()
	for _, m := range []Method{Greedy, KL, Tabu} {
		a, c, err := Partition(g, NewTopology(1, 4), m)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range a {
			if n != 0 {
				t.Fatalf("%v: assignment %v", m, a)
			}
		}
		if c.Cut != 0 {
			t.Errorf("%v: cut %v on one node", m, c.Cut)
		}
	}
}

func TestPartitionFindsLightBridge(t *testing.T) {
	g := twoClusters()
	topo := NewTopology(2, 4)
	for _, m := range []Method{KL, Tabu} {
		a, c, err := Partition(g, topo, m)
		if err != nil {
			t.Fatal(err)
		}
		if c.Cut != 1 {
			t.Errorf("%v: cut %v, want 1 (only the bridge edge)", m, c.Cut)
		}
		// Each clique stays together.
		if a[0] != a[1] || a[1] != a[2] {
			t.Errorf("%v: left clique split: %v", m, a)
		}
		if a[3] != a[4] || a[4] != a[5] {
			t.Errorf("%v: right clique split: %v", m, a)
		}
		if a[0] == a[3] {
			t.Errorf("%v: everything on one node despite balance penalty", m)
		}
	}
}

func TestRefinementNotWorseThanGreedy(t *testing.T) {
	g := twoClusters()
	topo := NewTopology(3, 2)
	_, gc, err := Partition(g, topo, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{KL, Tabu} {
		_, c, err := Partition(g, topo, m)
		if err != nil {
			t.Fatal(err)
		}
		if c.Total > gc.Total+1e-9 {
			t.Errorf("%v cost %v worse than greedy %v", m, c.Total, gc.Total)
		}
	}
}

func TestEvaluateBalance(t *testing.T) {
	g := chainGraph()
	topo := NewTopology(2, 4)
	balanced := Assignment{0, 0, 1, 1}
	skewed := Assignment{0, 0, 0, 0}
	cb := Evaluate(g, topo, balanced)
	cs := Evaluate(g, topo, skewed)
	if cb.Imbalance != 1 {
		t.Errorf("balanced imbalance = %v", cb.Imbalance)
	}
	if cs.Imbalance <= cb.Imbalance {
		t.Error("skewed assignment should be more imbalanced")
	}
	if cs.Total <= cs.Cut {
		t.Error("imbalance must contribute to total cost")
	}
}

func TestHeterogeneousCapacityAttractsLoad(t *testing.T) {
	// One fast node and one slow node: the heavy kernels should land on
	// the fast one.
	g := &graph.Final{}
	for _, n := range []string{"k1", "k2", "k3", "k4"} {
		g.Nodes = append(g.Nodes, graph.Node{Name: n, Weight: 10})
	}
	topo := Topology{Nodes: []ExecNode{
		{ID: "slow", Cores: 1, Speed: 1},
		{ID: "fast", Cores: 8, Speed: 2},
	}, Bandwidth: 1}
	a, _, err := Partition(g, topo, KL)
	if err != nil {
		t.Fatal(err)
	}
	fast := 0
	for _, n := range a {
		if n == 1 {
			fast++
		}
	}
	if fast < 3 {
		t.Errorf("only %d of 4 kernels on the 16x-capacity node (%v)", fast, a)
	}
}

// TestPartitionSplitPlacesOnlyUnsplit: split kernels get no node (-1), their
// edges are no part of the cut, and their weight loads every node evenly, so
// the unsplit kernels alone decide the balance: in the chain A→B→C→D with B
// and C split, A and D go to different nodes of two.
func TestPartitionSplitPlacesOnlyUnsplit(t *testing.T) {
	g := chainGraph()
	split := []bool{false, true, true, false}
	for _, m := range []Method{Greedy, KL, Tabu} {
		a, c, err := PartitionSplit(g, NewTopology(2, 4), m, split)
		if err != nil {
			t.Fatal(err)
		}
		if a[1] != -1 || a[2] != -1 || a[0] < 0 || a[3] < 0 || a[0] == a[3] {
			t.Errorf("%v: assignment %v", m, a)
		}
		if c.Cut != 0 || c.Imbalance != 1 {
			t.Errorf("%v: cut %v imbalance %v, want 0 and 1", m, c.Cut, c.Imbalance)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, _, err := Partition(chainGraph(), Topology{}, Greedy); err == nil {
		t.Error("empty topology should error")
	}
	if _, _, err := Partition(&graph.Final{}, NewTopology(1, 1), Greedy); err == nil {
		t.Error("empty graph should error")
	}
	if _, _, err := Partition(chainGraph(), NewTopology(1, 1), Method(99)); err == nil {
		t.Error("unknown method should error")
	}
	if Method(99).String() == "" || Greedy.String() != "greedy" {
		t.Error("method names")
	}
}

func TestApplyInstrumentationAndRepartition(t *testing.T) {
	g := chainGraph()
	rep := &runtime.Report{Kernels: []runtime.KernelStats{
		{Name: "A", Instances: 1, KernelTotal: time.Millisecond},
		{Name: "B", Instances: 1000, KernelTotal: time.Second},
		{Name: "C", Instances: 1000, KernelTotal: time.Second},
		{Name: "D", Instances: 1, KernelTotal: time.Millisecond},
	}}
	ApplyInstrumentation(g, rep)
	if g.Node("B").Weight <= g.Node("A").Weight {
		t.Error("instrumented weights not applied")
	}

	// Partitioning the weighted graph improves on a deliberately bad
	// assignment, and is deterministic: the same weights give the same
	// partition.
	topo := NewTopology(2, 4)
	bad := Assignment{0, 0, 0, 0}
	next, cost, err := Partition(g, topo, KL)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Total >= Evaluate(g, topo, bad).Total {
		t.Error("partitioning the weighted graph did not reduce cost")
	}
	again, _, err := Partition(g, topo, KL)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, next) {
		t.Errorf("repartitioning with the same weights flapped: %v -> %v", next, again)
	}
}
