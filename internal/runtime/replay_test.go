package runtime

import (
	"slices"
	"testing"

	"repro/internal/field"
)

// TestEncodeGenerationFrame covers the replay encoder's three shapes — a
// fully written generation collapses to one whole-store entry, a partially
// written one is encoded element-wise (exactly the written positions), and an
// age with no writes yields no frame at all — plus the round trip: frames
// injected into a merge-tolerant node (twice, as a failover replay might
// race re-execution) must reproduce the source state exactly.
func TestEncodeGenerationFrame(t *testing.T) {
	prog := frameEquivProg(t)
	src, stopSrc := newShadow(t, prog)

	// fi(0): partial — elements 0, 2, 4 of what grows to an extent-5 gen.
	for _, i := range []int{0, 2, 4} {
		if err := src.InjectStore(StoreNotice{Field: "fi", Age: 0, Elem: []int{i}, Value: field.Int32Val(int32(10 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	// fi(1): fully written element by element — must encode as one whole store.
	for i := 0; i < 3; i++ {
		if err := src.InjectStore(StoreNotice{Field: "fi", Age: 1, Elem: []int{i}, Value: field.Int32Val(int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// ff(0): stored whole.
	whole := field.NewArray(field.Float64, 2, 3)
	for i := 0; i < whole.Len(); i++ {
		whole.SetFlat(field.Float64Val(float64(i)/2), i)
	}
	if err := src.InjectStore(StoreNotice{Field: "ff", Age: 0, Whole: true, Value: field.ArrayVal(whole)}); err != nil {
		t.Fatal(err)
	}
	stopSrc()

	if ages, err := src.FieldAges("fi"); err != nil || len(ages) != 2 || ages[0] != 0 || ages[1] != 1 {
		t.Fatalf("FieldAges(fi) = %v, %v", ages, err)
	}
	if _, err := src.FieldAges("zzz"); err == nil {
		t.Fatal("FieldAges on unknown field succeeded")
	}
	if fr, err := src.EncodeGenerationFrame("fu", 7); err != nil || fr != nil {
		t.Fatalf("empty generation encoded to %v, %v; want nil frame", fr, err)
	}
	if _, err := src.EncodeGenerationFrame("zzz", 0); err == nil {
		t.Fatal("encoding unknown field succeeded")
	}

	type genCase struct {
		field     string
		age       int
		entries   int
		wantWhole bool
	}
	cases := []genCase{
		{"fi", 0, 3, false},
		{"fi", 1, 1, true},
		{"ff", 0, 1, true},
	}

	// Destination configured exactly like a rebuilt failover worker: all
	// kernels remote, merge-tolerant stores. Every frame is injected twice —
	// replay must be idempotent.
	remote := map[string]bool{"s1": true, "s2": true, "s3": true}
	dst, err := NewNode(prog, Options{Workers: 1, RemoteKernels: remote, NoAutoQuiesce: true, MergeStores: true})
	if err != nil {
		t.Fatal(err)
	}
	dstDone := make(chan struct{})
	go func() {
		defer close(dstDone)
		_, _ = dst.Run()
	}()

	for _, tc := range cases {
		fr, err := src.EncodeGenerationFrame(tc.field, tc.age)
		if err != nil {
			t.Fatalf("%s(%d): %v", tc.field, tc.age, err)
		}
		if fr == nil {
			t.Fatalf("%s(%d): no frame", tc.field, tc.age)
		}
		var n int
		var sawWhole bool
		if err := DecodeStoreFrame(fr.Bytes(), func(sn StoreNotice) error {
			n++
			// A whole-field entry is a selector that fixes no dimension.
			sawWhole = sawWhole || sn.Sel != nil && !slices.ContainsFunc(sn.Sel, func(sd field.SlabDim) bool { return sd.Fixed })
			return nil
		}); err != nil {
			t.Fatalf("%s(%d): decode: %v", tc.field, tc.age, err)
		}
		if n != tc.entries || sawWhole != tc.wantWhole {
			t.Errorf("%s(%d): %d entries (whole=%v), want %d (whole=%v)",
				tc.field, tc.age, n, sawWhole, tc.entries, tc.wantWhole)
		}
		if err := dst.InjectStoreFrame(fr.Bytes()); err != nil {
			t.Fatalf("%s(%d): inject: %v", tc.field, tc.age, err)
		}
		if err := dst.InjectStoreFrame(fr.Bytes()); err != nil {
			t.Fatalf("%s(%d): duplicate inject: %v", tc.field, tc.age, err)
		}
		PutStoreFrame(fr)
	}
	dst.Stop()
	<-dstDone

	for _, tc := range cases {
		want, err := src.Snapshot(tc.field, tc.age)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.Snapshot(tc.field, tc.age)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s(%d): replayed %v, source %v", tc.field, tc.age, got, want)
		}
	}
	dst.Release()
}
