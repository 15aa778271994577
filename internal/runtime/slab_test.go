package runtime

import (
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

// TestSlabFetch exercises the paper's "kernels fetch slices of fields":
// a rank-2 field of per-block pixels, with one kernel instance per block
// fetching its 64-pixel row as a slab.
func TestSlabFetch(t *testing.T) {
	const blocks, px = 6, 8
	b := core.NewBuilder("slab")
	b.Field("pixels", field.Int32, 2, true)
	b.Field("sums", field.Int32, 1, true)

	b.Kernel("src").Age("a").
		Local("frame", field.Int32, 2).
		StoreAll("pixels", core.AgeVar(0), "frame").
		Body(func(c *core.Ctx) error {
			if c.Age() >= 3 {
				return nil
			}
			fr := c.Array("frame")
			for bl := 0; bl < blocks; bl++ {
				for p := 0; p < px; p++ {
					fr.Put(field.Int32Val(int32(c.Age()*1000+bl*10+p)), bl, p)
				}
			}
			return nil
		})

	b.Kernel("sum").Age("a").Index("b").
		Local("blk", field.Int32, 1).
		Local("s", field.Int32, 0).
		Fetch("blk", "pixels", core.AgeVar(0), core.Idx("b"), core.All()).
		Store("sums", core.AgeVar(0), []core.IndexSpec{core.Idx("b")}, "s").
		Body(func(c *core.Ctx) error {
			blk := c.Array("blk")
			if blk.Rank() != 1 || blk.Extent(0) != px {
				t.Errorf("slab shape: rank %d extent %d", blk.Rank(), blk.Extent(0))
			}
			var sum int32
			for i := 0; i < blk.Extent(0); i++ {
				sum += blk.At(i).Int32()
			}
			c.SetInt32("s", sum)
			return nil
		})

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("sum").Instances; got != 3*blocks {
		t.Errorf("sum instances = %d, want %d (one per block per age)", got, 3*blocks)
	}
	for a := 0; a < 3; a++ {
		s, _ := n.Snapshot("sums", a)
		for bl := 0; bl < blocks; bl++ {
			var want int32
			for p := 0; p < px; p++ {
				want += int32(a*1000 + bl*10 + p)
			}
			if got := s.At(bl).Int32(); got != want {
				t.Errorf("sums(%d)[%d] = %d, want %d", a, bl, got, want)
			}
		}
	}
}

// TestSlabStore exercises the bulk store path: one kernel instance per row
// fetches its row as a slab and stores a transformed row as a slab, so both
// directions move whole rows through the typed slab representation.
func TestSlabStore(t *testing.T) {
	const rows, px = 5, 8
	b := core.NewBuilder("slabstore")
	b.Field("in", field.Int32, 2, true)
	b.Field("out", field.Int32, 2, true)

	b.Kernel("src").Age("a").
		Local("frame", field.Int32, 2).
		StoreAll("in", core.AgeVar(0), "frame").
		Body(func(c *core.Ctx) error {
			if c.Age() >= 2 {
				return nil
			}
			fr := c.Array("frame")
			for r := 0; r < rows; r++ {
				for p := 0; p < px; p++ {
					fr.Put(field.Int32Val(int32(c.Age()*1000+r*10+p)), r, p)
				}
			}
			return nil
		})

	b.Kernel("double").Age("a").Index("r").
		Local("row", field.Int32, 1).
		Local("res", field.Int32, 1).
		Fetch("row", "in", core.AgeVar(0), core.Idx("r"), core.All()).
		Store("out", core.AgeVar(0), []core.IndexSpec{core.Idx("r"), core.All()}, "res").
		Body(func(c *core.Ctx) error {
			row := c.Array("row").Int32s()
			res := c.Array("res")
			res.Grow(len(row))
			out := res.Int32s()
			for i, v := range row {
				out[i] = 2 * v
			}
			return nil
		})

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := n.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Kernel("double").Instances; got != 2*rows {
		t.Errorf("double instances = %d, want %d (one per row per age)", got, 2*rows)
	}
	for a := 0; a < 2; a++ {
		s, _ := n.Snapshot("out", a)
		for r := 0; r < rows; r++ {
			for p := 0; p < px; p++ {
				want := 2 * int32(a*1000+r*10+p)
				if got := s.At(r, p).Int32(); got != want {
					t.Errorf("out(%d)[%d][%d] = %d, want %d", a, r, p, got, want)
				}
			}
		}
	}
}

func TestSlabStoreRankMismatchRejected(t *testing.T) {
	b := core.NewBuilder("bad")
	b.Field("f", field.Int32, 2, true)
	b.Kernel("k").Age("a").Index("x").
		Local("v", field.Int32, 0).
		Local("row", field.Int32, 2). // rank-2 local for a rank-1 slab store
		Fetch("v", "f", core.AgeVar(0), core.Idx("x"), core.Lit(0)).
		Store("f", core.AgeVar(1), []core.IndexSpec{core.Idx("x"), core.All()}, "row").
		Body(nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("slab store rank mismatch should be rejected")
	}
}

func TestSlabRankMismatchRejected(t *testing.T) {
	b := core.NewBuilder("bad")
	b.Field("f", field.Int32, 2, true)
	b.Kernel("k").Age("a").Index("x").
		Local("v", field.Int32, 0). // scalar local for a rank-1 slab
		Fetch("v", "f", core.AgeVar(0), core.Idx("x"), core.All()).
		Body(nil)
	if _, err := b.Build(); err == nil {
		t.Fatal("slab fetch into scalar local should be rejected")
	}
}

func TestFieldSlab(t *testing.T) {
	f := field.New("m", field.Int32, 2, true)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if _, err := storeCell(f, 0, field.Int32Val(int32(i*10+j)), i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	slab := func(age int, sel ...field.SlabDim) *field.Array {
		a := &field.Array{}
		f.FetchSlice(age, sel, a)
		return a
	}
	row := slab(0, field.SlabDim{Fixed: true, Index: 1}, field.SlabDim{})
	if row.Rank() != 1 || row.Extent(0) != 4 || row.At(2).Int32() != 12 {
		t.Errorf("row slab %v", row)
	}
	col := slab(0, field.SlabDim{}, field.SlabDim{Fixed: true, Index: 3})
	if col.Extent(0) != 3 || col.At(2).Int32() != 23 {
		t.Errorf("col slab %v", col)
	}
	// Out-of-range fixed index yields an empty slab.
	if slab(0, field.SlabDim{Fixed: true, Index: 9}, field.SlabDim{}).Len() != 0 {
		t.Error("out-of-range slab should be empty")
	}
	// Missing age yields empty.
	if slab(5, field.SlabDim{Fixed: true, Index: 0}, field.SlabDim{}).Len() != 0 {
		t.Error("missing age slab should be empty")
	}
	// All dims fixed: single element delivered as extent-1... rank-0 is
	// represented as an empty rank-1 array by convention.
	one := slab(0, field.SlabDim{Fixed: true, Index: 0}, field.SlabDim{Fixed: true, Index: 0})
	if one.Len() != 0 {
		t.Errorf("fully fixed slab: %v", one)
	}
}
