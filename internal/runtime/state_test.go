package runtime

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/field"
)

// boxCellsOf lists the cells of newBoxes(from, to), box by box, row-major.
func boxCellsOf(from, to []int) [][]int {
	var cells [][]int
	newBoxes(from, to, func(org, ext [maxRank]int) {
		r := cellRun{org: org, ext: ext, rank: len(to)}
		r.hi = boxCells(r.ext[:r.rank])
		for i := r.lo; i < r.hi; i++ {
			cells = append(cells, r.coords(i, make([]int, r.rank)))
		}
	})
	return cells
}

// Property: newBoxes tiles exactly box(to) \ box(from), each cell once, and
// regrid moves per-cell state of box(from) to the same cells' positions in
// box(to), filling exactly the new ones.
func TestQuickNewCells(t *testing.T) {
	f := func(dims []uint8, growth []uint8) bool {
		rank := len(dims)
		if rank == 0 || rank > 3 {
			return true
		}
		from := make([]int, rank)
		to := make([]int, rank)
		for i := range dims {
			from[i] = int(dims[i] % 5)
			g := 0
			if i < len(growth) {
				g = int(growth[i] % 4)
			}
			to[i] = from[i] + g
		}
		seen := map[string]bool{}
		for _, c := range boxCellsOf(from, to) {
			k := fmt.Sprint(c)
			if seen[k] {
				t.Errorf("duplicate cell %v for from=%v to=%v", c, from, to)
			}
			seen[k] = true
			inOld, inNew := true, true
			for d := range c {
				inOld = inOld && c[d] < from[d]
				inNew = inNew && c[d] >= 0 && c[d] < to[d]
			}
			if inOld || !inNew {
				t.Errorf("cell %v for from=%v to=%v outside the difference region", c, from, to)
			}
		}
		// Count expected: |to| - |from|.
		if len(seen) != boxCells(to)-boxCells(from) {
			t.Errorf("from=%v to=%v visited %d, want %d", from, to, len(seen), boxCells(to)-boxCells(from))
			return false
		}
		// Label every old cell with its position plus one, regrid, and find
		// each label at the cell's new position; new cells hold 0.
		grid := make([]int, boxCells(from))
		for i := range grid {
			grid[i] = i + 1
		}
		grid = regrid(grid, from, to, 0)
		box := cellRun{rank: rank}
		copy(box.ext[:], to)
		c := make([]int, rank)
		for i, v := range grid {
			box.coords(i, c)
			old := true
			for d := range c {
				old = old && c[d] < from[d]
			}
			want := 0
			if old {
				want = position(c, from) + 1
			}
			if v != want {
				t.Errorf("from=%v to=%v: cell %v holds %d after regrid, want %d", from, to, c, v, want)
				return false
			}
		}
		return len(grid) == boxCells(to)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewCellsRankZero(t *testing.T) {
	if cells := boxCellsOf(nil, nil); len(cells) != 0 {
		t.Errorf("rank-0 newBoxes should tile nothing, got %v", cells)
	}
}

func TestNewCellsInsideOutside(t *testing.T) {
	from := []int{2, 3}
	to := []int{4, 5}
	cells := boxCellsOf(from, to)
	for _, c := range cells {
		inOld := c[0] < from[0] && c[1] < from[1]
		inNew := c[0] < to[0] && c[1] < to[1]
		if inOld || !inNew {
			t.Errorf("cell %v outside the difference region", c)
		}
	}
	if len(cells) != 4*5-2*3 {
		t.Errorf("%d cells, want %d", len(cells), 4*5-2*3)
	}
}

// TestStageMerge: the boxes a run of element stores stages into hold
// exactly the run's cells, in row-major order — at most 2×rank−1 of them, 3
// at rank 2 — and so does the box a run of row stores merges into, while
// column stores ([*][x]), whose cells are not contiguous, stay one box each.
func TestStageMerge(t *testing.T) {
	// cellsOf lists the cells of the staged boxes, box by box, row-major.
	cellsOf := func(st *stagedStores, rank int) [][]int {
		var cells [][]int
		for k := 0; k < len(st.ext); k += rank {
			r := cellRun{rank: rank}
			for d := 0; d < rank; d++ {
				r.org[d], r.ext[d] = st.sels[k+d].Index, st.ext[k+d]
			}
			r.hi = boxCells(r.ext[:rank])
			for i := 0; i < r.hi; i++ {
				cells = append(cells, r.coords(i, make([]int, rank)))
			}
		}
		return cells
	}
	elem := func(rank int) *storePlan {
		sp := &storePlan{ss: &core.StoreStmt{Field: "f"}, slab: make([]slabTerm, rank)}
		for d := range sp.slab {
			sp.slab[d] = slabTerm{fixed: true, term: idxTerm{v: d}}
		}
		return sp
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		rank := 1 + r.Intn(3)
		run := cellRun{rank: rank}
		for d := 0; d < rank; d++ {
			run.ext[d] = 1 + r.Intn(5)
		}
		cells := boxCells(run.ext[:rank])
		run.lo = r.Intn(cells)
		run.hi = run.lo + 1 + r.Intn(cells-run.lo)
		var st stagedStores
		st.cells.ResetEmpty(field.Int32, 1)
		sp := elem(rank)
		for i := run.lo; i < run.hi; i++ {
			v := field.Int32Val(int32(i))
			if err := st.stage(sp, run.coords(i, make([]int, rank)), &v, run.len()); err != nil {
				t.Fatal(err)
			}
		}
		if boxes := len(st.ext) / rank; boxes > 2*rank-1 {
			t.Fatalf("run [%d,%d) of %v: %d boxes %v %v", run.lo, run.hi, run.ext[:rank], boxes, st.sels, st.ext)
		}
		got := cellsOf(&st, rank)
		for i, c := range got {
			if p := position(c, run.ext[:rank]); p != run.lo+i || st.cells.AtFlat(i).Int64() != int64(p) {
				t.Fatalf("run [%d,%d) of %v: box cell %d is %v (value %v), want position %d", run.lo, run.hi, run.ext[:rank], i, c, st.cells.AtFlat(i), run.lo+i)
			}
		}
		if len(got) != run.len() || st.n != run.len() {
			t.Fatalf("run [%d,%d) of %v: boxes hold %d cells of %d instances", run.lo, run.hi, run.ext[:rank], len(got), st.n)
		}
	}

	// Row stores f[x+1][*] of 3-cell rows over x in [0,4) are one 4×3 box
	// from row 1; column stores f[*][x] are four 3×1 boxes.
	row := field.ArrayVal(field.NewArray(field.Int32, 3))
	for _, tc := range []struct {
		name  string
		slab  []slabTerm
		boxes int
	}{
		{"rows", []slabTerm{{fixed: true, term: idxTerm{v: 0, off: 1}}, {}}, 1},
		{"columns", []slabTerm{{}, {fixed: true, term: idxTerm{v: 0}}}, 4},
	} {
		var st stagedStores
		st.cells.ResetEmpty(field.Int32, 1)
		sp := &storePlan{ss: &core.StoreStmt{Field: "f"}, slab: tc.slab, free: 1}
		for x := 0; x < 4; x++ {
			if err := st.stage(sp, []int{x}, &row, 4); err != nil {
				t.Fatal(err)
			}
		}
		if boxes := len(st.ext) / 2; boxes != tc.boxes || st.cells.Len() != 12 {
			t.Errorf("%s: %d boxes %v %v of %d cells, want %d boxes of 12", tc.name, boxes, st.sels, st.ext, st.cells.Len(), tc.boxes)
		}
	}
	if tc := (&stagedStores{}); tc.stage(&storePlan{ss: &core.StoreStmt{Field: "f"}, slab: []slabTerm{{}, {}, {fixed: true}}, free: 2}, nil, &row, 1) == nil {
		t.Error("a rank-1 array staged into two free dimensions")
	}
}
