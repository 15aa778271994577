package runtime

import (
	"fmt"
	"math"
)

// Index shares: a distributed run splits every indexed kernel across its
// nodes. Granule g — ShareGranule consecutive instances — of a kernel's
// outermost index variable belongs to share ShareCycle(weights)[g mod len],
// and each node creates only the instances of the shares it owns, so a
// kernel-age is done on a node when its owned instances are. A split
// producer counts as one producer per share toward field completeness: a
// node's own completion covers the shares it owns, InjectRemoteDone one
// share of another node.
//
// Pacing: a source kernel whose output feeds shares on other nodes does not
// start its next age until those shares report the current one done, so a
// reader cannot run ahead of the remote nodes that consume its frames and
// queue them up — the latency half of the period/latency trade. Local
// consumers need no such wait: oldest-age-first dispatch already orders them,
// and a consumer that runs whole on another node is not waited for.

// Shares is one node's part of the index-share split of a distributed run
// (Options.Shares).
type Shares struct {
	// Weights sizes the shares, one entry per share, fixed for the run:
	// share s gets Weights[s] of every sum(Weights) consecutive granules.
	Weights []int
	// Own lists the shares that run on this node; a node owning none runs
	// the indexed kernels nowhere, as if they were remote.
	Own []int
}

// ShareGranule is the number of consecutive outermost-index instances dealt
// to one share at a time: long enough that a share's instances still fill
// slices, short enough that the paper's domains (1 584 luma blocks, 2 000
// K-means points, 100 centroids) spread evenly.
const ShareGranule = 32

// ShareCycle deals granules to shares in proportion to weights, interleaved
// (smooth weighted round robin): granule g of an outermost index belongs to
// share cycle[g mod len(cycle)]. Equal weights deal round robin, so instance
// x of a split into of equal shares belongs to share (x/ShareGranule) mod of.
func ShareCycle(weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	cycle := make([]int, total)
	cur := make([]int, len(weights))
	for i := range cycle {
		pick := 0
		for s, w := range weights {
			cur[s] += w
			if cur[s] > cur[pick] {
				pick = s
			}
		}
		cur[pick] -= total
		cycle[i] = pick
	}
	return cycle
}

// planShares records on every kernel how many producers it counts as (its
// shares) and how many of them run here, and on every indexed kernel which
// granules of the cycle run here.
func (n *Node) planShares() error {
	sh := n.opts.Shares
	for _, ks := range n.order {
		ks.shares, ks.ownN = 1, 1
	}
	if sh == nil {
		return nil
	}
	owned := make([]bool, len(sh.Weights))
	for _, w := range sh.Weights {
		if w < 1 {
			return fmt.Errorf("p2g: index shares: share weight %d", w)
		}
	}
	for _, s := range sh.Own {
		if s < 0 || s >= len(owned) || owned[s] {
			return fmt.Errorf("p2g: index shares: share %d of %d owned twice or out of range", s, len(owned))
		}
		owned[s] = true
	}
	if len(owned) == 0 {
		return fmt.Errorf("p2g: index shares: no shares")
	}
	cycle := ShareCycle(sh.Weights)
	own := make([]bool, len(cycle))
	for i, s := range cycle {
		own[i] = owned[s]
	}
	for _, ks := range n.order {
		if len(ks.decl.IndexVars) == 0 {
			continue
		}
		ks.own, ks.shares, ks.ownN = own, len(owned), len(sh.Own)
		if ks.remote {
			ks.ownN = 0
		}
		ks.remote = ks.ownN == 0
	}
	return nil
}

// owns reports whether the instance at outermost index x runs here.
func (ks *kernelState) owns(x int) bool {
	return ks.own == nil || ks.own[(x/ShareGranule)%len(ks.own)]
}

// ownedRuns visits the maximal runs [lo', hi') of outermost indices in
// [lo, hi) that run here.
func (ks *kernelState) ownedRuns(lo, hi int, visit func(lo, hi int)) {
	if ks.own == nil {
		visit(lo, hi)
		return
	}
	start := -1
	for x := lo; x < hi; x = (x/ShareGranule + 1) * ShareGranule {
		switch {
		case ks.owns(x) && start < 0:
			start = x
		case !ks.owns(x) && start >= 0:
			visit(start, x)
			start = -1
		}
	}
	if start >= 0 {
		visit(start, hi)
	}
}

// paceEdge is one consumer a paced source waits for: split kernel ks at age
// a+delta reporting done on its remote shares releases the source's age a+1.
type paceEdge struct {
	ks     *kernelState
	delta  int
	remote int
}

// paceAge is the wait of a paced source at one age: the remote consumer
// shares that reported done, and whether the source's own instance finished.
type paceAge struct {
	arrived int
	done    bool
}

// planPacing gives every local source kernel of a split run the consumers it
// waits for: each split kernel with shares on other nodes that fetches a
// field the source stores. The consumer age waited for is the one whose latest
// dependency on the source — over every path, not only the direct fetch — is
// the source's current age, so the wait can never be on the source's own
// next age. A consumer with no such bound (reached through an absolute-age
// fetch or a cycle that runs backwards in age) is not waited for.
func (n *Node) planPacing() {
	if n.opts.Shares == nil {
		return
	}
	for _, src := range n.order {
		if src.remote || !src.decl.Source() {
			continue
		}
		dist := n.ageDistances(src)
		for i := range src.decl.Stores {
			ss := &src.decl.Stores[i]
			if !ss.Age.HasVar {
				continue
			}
			for _, ce := range n.fields[ss.Field].consumers {
				k := ce.ks
				d := dist[k.idx]
				if d == math.MaxInt || k.own == nil || !ce.fetch.Age.HasVar || k.shares == k.ownN || src.pacesOn(k) {
					continue
				}
				src.pace = append(src.pace, paceEdge{ks: k, delta: d, remote: k.shares - k.ownN})
			}
		}
		if src.pace != nil {
			src.paceAges = map[int]*paceAge{}
			n.paced = append(n.paced, src)
		}
	}
}

func (ks *kernelState) pacesOn(k *kernelState) bool {
	for _, e := range ks.pace {
		if e.ks == k {
			return true
		}
	}
	return false
}

// ageDistances returns, per kernel (by kernelState.idx), the least sum of
// age distances over the store→fetch paths from src: kernel K at age c
// depends on src at ages up to c minus it. Kernels src does not reach, and
// kernels whose dependency has no such bound, get math.MaxInt.
func (n *Node) ageDistances(src *kernelState) []int {
	type edge struct {
		from, to, w int
		abs         bool
	}
	var edges []edge
	for _, fs := range n.fields {
		for _, pe := range fs.producers {
			for _, ce := range fs.consumers {
				abs := !pe.store.Age.HasVar || !ce.fetch.Age.HasVar
				edges = append(edges, edge{pe.ks.idx, ce.ks.idx, pe.store.Age.Offset - ce.fetch.Age.Offset, abs})
			}
		}
	}
	dist := make([]int, len(n.order))
	for i := range dist {
		dist[i] = math.MaxInt
	}
	dist[src.idx] = 0
	// Bellman–Ford: a relaxation in round len(order) means a cycle that
	// lowers the distance for ever.
	unbounded := make([]bool, len(n.order))
	for round := 0; round <= len(n.order); round++ {
		changed := false
		for _, e := range edges {
			if dist[e.from] == math.MaxInt {
				continue
			}
			if e.abs {
				unbounded[e.to] = true
			} else if d := dist[e.from] + e.w; d < dist[e.to] {
				dist[e.to] = d
				changed = true
				unbounded[e.to] = unbounded[e.to] || round == len(n.order)
			}
		}
		if !changed {
			break
		}
	}
	// Whatever an unbounded kernel reaches is unbounded too.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if unbounded[e.from] && !unbounded[e.to] {
				unbounded[e.to], changed = true, true
			}
		}
	}
	for i, u := range unbounded {
		if u {
			dist[i] = math.MaxInt
		}
	}
	return dist
}

// paceNeed is the number of remote consumer shares source src waits for at
// age a. A consumer age that never runs — before age 0 or past its bound —
// is not waited for.
func (n *Node) paceNeed(src *kernelState, a int) int {
	need := 0
	for _, e := range src.pace {
		if c := a + e.delta; c >= 0 && c <= n.opts.MaxAge && c <= n.kernelMaxAge(e.ks) {
			need += e.remote
		}
	}
	return need
}

// paceStep advances paced source src's wait at age a by arrived
// remote consumer shares, or by the source's own completion; once both are
// in, the source's next age starts.
func (an *analyzer) paceStep(src *kernelState, a, arrived int, done bool) {
	p := src.paceAges[a]
	if p == nil {
		p = &paceAge{}
		src.paceAges[a] = p
	}
	p.arrived += arrived
	p.done = p.done || done
	if !p.done || p.arrived < an.n.paceNeed(src, a) {
		return
	}
	delete(src.paceAges, a)
	an.sourceTracker(src, a+1)
}

// paceArrive counts one remote share of kernel ks done at age c
// toward every paced source waiting for it.
func (an *analyzer) paceArrive(ks *kernelState, c int) {
	for _, src := range an.n.paced {
		for _, e := range src.pace {
			if e.ks == ks {
				an.paceStep(src, c-e.delta, 1, false)
			}
		}
	}
}
