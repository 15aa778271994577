package runtime

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Property: newCells visits exactly box(to) \ box(from), each cell once.
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
		newCells(from, to, func(c []int) {
			k := fmt.Sprint(c)
			if seen[k] {
				t.Errorf("duplicate cell %v for from=%v to=%v", c, from, to)
			}
			seen[k] = true
		})
		// Count expected: |to| - |from|.
		vol := func(e []int) int {
			v := 1
			for _, x := range e {
				v *= x
			}
			return v
		}
		if len(seen) != vol(to)-vol(from) {
			t.Errorf("from=%v to=%v visited %d, want %d", from, to, len(seen), vol(to)-vol(from))
			return false
		}
		// Every visited cell is inside to-box and outside from-box.
		for k := range seen {
			var c []int
			fmt.Sscan(k) // cells checked structurally below instead
			_ = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewCellsRankZero(t *testing.T) {
	called := false
	newCells(nil, nil, func([]int) { called = true })
	if called {
		t.Error("rank-0 newCells should visit nothing")
	}
}

func TestNewCellsInsideOutside(t *testing.T) {
	from := []int{2, 3}
	to := []int{4, 5}
	newCells(from, to, func(c []int) {
		inOld := c[0] < from[0] && c[1] < from[1]
		inNew := c[0] < to[0] && c[1] < to[1]
		if inOld || !inNew {
			t.Errorf("cell %v outside the difference region", c)
		}
	})
}

func TestCoordKey(t *testing.T) {
	cases := map[string][2][]int{
		"distinct-order": {{1, 0}, {0, 1}},
		"distinct-rank1": {{7}, {8}},
	}
	for name, pair := range cases {
		if coordKey(pair[0]) == coordKey(pair[1]) {
			t.Errorf("%s: keys collide", name)
		}
	}
	if coordKey(nil) != 0 {
		t.Error("empty coords should map to 0")
	}
}
