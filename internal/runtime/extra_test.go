package runtime

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deadline"
	"repro/internal/field"
)

// TestOuterProductDomain exercises instances whose index variables are bound
// by *different* fields: one store event satisfies a whole stripe of
// instances (the analyzer's unconstrained-variable enumeration). With rows,
// the factors are rank-2 fields of one-value rows that indexed kernels store
// row by row, in whatever order their slices finish, and mul fetches [x][*]
// and [y][*]: a slab-only tracker whose two-dimensional domain grows in
// both dimensions before its generations complete; without rows, element
// fetches bind the same domain.
func TestOuterProductDomain(t *testing.T) {
	for _, rows := range []bool{false, true} {
		b := core.NewBuilder("outer")
		b.Field("prod", field.Int32, 2, true)
		// factor declares field name, holding (i+1)*scale at i < n, and the
		// fetch of its element x into local.
		var fetches []func(kb *core.KernelBuilder)
		factor := func(name string, n, scale int, local, x string) {
			if !rows {
				b.Field(name, field.Int32, 1, true)
				b.Kernel("mk"+name).
					Local("r", field.Int32, 1).
					StoreAll(name, core.AgeAt(0), "r").
					Body(func(c *core.Ctx) error {
						for i := 0; i < n; i++ {
							c.Array("r").Put(field.Int32Val(int32(scale*(i+1))), i)
						}
						return nil
					})
				fetches = append(fetches, func(kb *core.KernelBuilder) {
					kb.Local(local, field.Int32, 0).Fetch(local, name, core.AgeAt(0), core.Idx(x))
				})
				return
			}
			b.Field(name, field.Int32, 2, true)
			b.Field(name+"n", field.Int32, 1, true)
			b.Kernel("mk"+name+"n").
				Local("r", field.Int32, 1).
				StoreAll(name+"n", core.AgeAt(0), "r").
				Body(func(c *core.Ctx) error { c.Array("r").Grow(n); return nil })
			b.Kernel("mk"+name).Index("i").
				Local("v", field.Int32, 0).
				Local("row", field.Int32, 1).
				Fetch("v", name+"n", core.AgeAt(0), core.Idx("i")).
				Store(name, core.AgeAt(0), []core.IndexSpec{core.Idx("i"), core.All()}, "row").
				Body(func(c *core.Ctx) error {
					c.Array("row").Put(field.Int32Val(int32(scale*(c.Index("i")+1))), 0)
					return nil
				})
			fetches = append(fetches, func(kb *core.KernelBuilder) {
				kb.Local(local+"row", field.Int32, 1).Fetch(local+"row", name, core.AgeAt(0), core.Idx(x), core.All())
			})
		}
		factor("rows", 3, 1, "a", "x")
		factor("cols", 4, 10, "b", "y")
		mul := b.Kernel("mul").Index("x", "y").Local("p", field.Int32, 0)
		for _, f := range fetches {
			f(mul)
		}
		mul.Store("prod", core.AgeAt(0), []core.IndexSpec{core.Idx("x"), core.Idx("y")}, "p").
			Body(func(c *core.Ctx) error {
				if rows {
					c.SetInt32("p", c.Array("arow").At(0).Int32()*c.Array("brow").At(0).Int32())
				} else {
					c.SetInt32("p", c.Int32("a")*c.Int32("b"))
				}
				return nil
			})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNode(p, Options{Workers: 4, Granularity: map[string]int{"mkrows": 1, "mkcols": 1}})
		if err != nil {
			t.Fatal(err)
		}
		if elem := n.kernels["mul"].elemBits != 0; elem == rows {
			t.Fatalf("rows %v: mul has element fetches: %v", rows, elem)
		}
		rep, err := n.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Kernel("mul").Instances; got != 12 {
			t.Fatalf("rows %v: mul instances = %d, want 12 (3x4 outer product)", rows, got)
		}
		s, _ := n.Snapshot("prod", 0)
		for x := 0; x < 3; x++ {
			for y := 0; y < 4; y++ {
				want := int32((x + 1) * 10 * (y + 1))
				if got := s.At(x, y).Int32(); got != want {
					t.Errorf("rows %v: prod[%d][%d] = %d, want %d", rows, x, y, got, want)
				}
			}
		}
		if len(rep.Stalled) != 0 {
			t.Errorf("rows %v: stalled: %v", rows, rep.Stalled)
		}
	}
}

// TestDeadlineAlternatePathDeterministic drives the §V-B mechanism with a
// fake clock: the first ages take the primary path, later ages (after the
// clock advances past the budget) take the alternate path.
func TestDeadlineAlternatePathDeterministic(t *testing.T) {
	clk := deadline.NewFakeClock()
	b := core.NewBuilder("dl")
	b.Timer("t1")
	b.Field("in", field.Int32, 1, true)
	b.Field("fast", field.Int32, 1, true)
	b.Field("slow", field.Int32, 1, true)

	b.Kernel("src").Age("a").
		Local("v", field.Int32, 1).
		StoreAll("in", core.AgeVar(0), "v").
		Body(func(c *core.Ctx) error {
			if c.Age() >= 6 {
				return nil
			}
			c.Array("v").Put(field.Int32Val(int32(c.Age())), 0)
			// Advance the fake clock one "frame time" per age; the
			// source is sequential so this is deterministic.
			clk.Advance(10 * time.Millisecond)
			return nil
		})
	b.Kernel("enc").Age("a").Index("x").
		Local("v", field.Int32, 0).
		Local("hi", field.Int32, 0).
		Local("lo", field.Int32, 0).
		Fetch("v", "in", core.AgeVar(0), core.Idx("x")).
		Store("fast", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "lo").
		Store("slow", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "hi").
		Body(func(c *core.Ctx) error {
			late, err := c.Expired("t1", 35*time.Millisecond)
			if err != nil {
				return err
			}
			if late {
				c.SetInt32("lo", c.Int32("v"))
			} else {
				c.SetInt32("hi", c.Int32("v"))
			}
			return nil
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(p, Options{Workers: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Run(); err != nil {
		t.Fatal(err)
	}
	// Ages 0..2 ran with elapsed <= 30ms (primary path); from age 3 the
	// budget is blown (elapsed 40ms+) and the alternate path fires.
	for a := 0; a < 6; a++ {
		hi, _ := n.Snapshot("slow", a)
		lo, _ := n.Snapshot("fast", a)
		_, hiWritten := hiAt(hi)
		_, loWritten := hiAt(lo)
		wantPrimary := a < 3
		if wantPrimary && (!hiWritten || loWritten) {
			t.Errorf("age %d should take the primary path (hi=%v lo=%v)", a, hiWritten, loWritten)
		}
		if !wantPrimary && (hiWritten || !loWritten) {
			t.Errorf("age %d should take the alternate path (hi=%v lo=%v)", a, hiWritten, loWritten)
		}
	}
}

func hiAt(a *field.Array) (int32, bool) {
	if a.Len() == 0 {
		return 0, false
	}
	v := a.AtFlat(0)
	return v.Int32(), !v.IsZero()
}

// TestMergeReports verifies the aggregation used by distributed
// repartitioning.
func TestMergeReports(t *testing.T) {
	a := &Report{Wall: time.Second, Kernels: []KernelStats{
		{Name: "k", Instances: 5, KernelTotal: time.Millisecond, StoreOps: 5},
	}}
	b := &Report{Wall: 2 * time.Second, Stalled: []string{"x"}, Kernels: []KernelStats{
		{Name: "k", Instances: 7, KernelTotal: 3 * time.Millisecond, StoreOps: 7},
		{Name: "j", Instances: 1},
	}}
	m := MergeReports(a, nil, b)
	if m.Wall != 2*time.Second {
		t.Errorf("wall %v", m.Wall)
	}
	if k := m.Kernel("k"); k.Instances != 12 || k.KernelTotal != 4*time.Millisecond || k.StoreOps != 12 {
		t.Errorf("merged k = %+v", k)
	}
	if m.Kernel("j").Instances != 1 || len(m.Stalled) != 1 {
		t.Error("merge shape")
	}
}

// TestStatementStringsWithSlab covers the All coordinate rendering.
func TestStatementStringsWithSlab(t *testing.T) {
	f := core.FetchStmt{Local: "blk", Field: "frames", Age: core.AgeVar(0),
		Index: []core.IndexSpec{core.Idx("b"), core.All()}}
	if got := f.String(); got != "fetch blk = frames(a)[b][];" {
		t.Errorf("slab fetch string %q", got)
	}
	if !f.Slab() || f.SlabRank() != 1 || f.Whole() {
		t.Error("slab classification")
	}
	if !strings.Contains(f.String(), "[]") {
		t.Error("slab rendering")
	}
}
