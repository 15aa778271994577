package runtime

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
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

// TestCutRun: the boxes cutRun cuts a run of a box into hold exactly the
// run's cells, in row-major order — at most 2×rank−1 of them, 3 at rank 2.
func TestCutRun(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		rank := 1 + r.Intn(3)
		ext := make([]int, rank)
		for d := range ext {
			ext[d] = 1 + r.Intn(5)
		}
		cells := boxCells(ext)
		lo := r.Intn(cells)
		hi := lo + 1 + r.Intn(cells-lo)
		boxes := cutRun(nil, ext, lo, hi)
		if len(boxes) > 2*rank-1 {
			t.Fatalf("run [%d,%d) of %v: %d boxes %v", lo, hi, ext, len(boxes), boxes)
		}
		next := lo
		var c [maxRank]int
		for _, b := range boxes {
			for i := 0; i < b.hi; i++ {
				b.coords(i, c[:rank])
				if got := position(c[:rank], ext); got != next {
					t.Fatalf("run [%d,%d) of %v: boxes %v give cell %d where %d is next", lo, hi, ext, boxes, got, next)
				}
				next++
			}
		}
		if next != hi {
			t.Fatalf("run [%d,%d) of %v: boxes %v end at %d", lo, hi, ext, boxes, next)
		}
	}
	if boxes := cutRun(nil, nil, 0, 1); len(boxes) != 1 || boxes[0].len() != 1 {
		t.Errorf("rank 0: %v, want one cell", boxes)
	}
}
