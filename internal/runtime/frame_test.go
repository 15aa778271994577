package runtime

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
)

func randFrameArray(r *rand.Rand) *field.Array {
	kinds := []field.Kind{field.Int32, field.Int64, field.Float64, field.Uint8, field.Bool}
	k := kinds[r.Intn(len(kinds))]
	rank := 1 + r.Intn(3)
	extents := make([]int, rank)
	n := 1
	for d := range extents {
		extents[d] = 1 + r.Intn(4)
		n *= extents[d]
	}
	a := field.NewArray(k, extents...)
	for i := 0; i < n; i++ {
		switch k {
		case field.Float64:
			a.SetFlat(field.Float64Val(r.NormFloat64()), i)
		case field.Bool:
			a.SetFlat(field.BoolVal(r.Intn(2) == 0), i)
		default:
			a.SetFlat(field.Int64Val(r.Int63n(200)), i)
		}
	}
	return a
}

func randFrameValue(r *rand.Rand) field.Value {
	switch r.Intn(6) {
	case 0:
		return field.Int32Val(int32(r.Int31() - r.Int31()))
	case 1:
		return field.Int64Val(r.Int63() - r.Int63())
	case 2:
		return field.Float64Val(r.NormFloat64())
	case 3:
		return field.BoolVal(r.Intn(2) == 0)
	case 4:
		return field.StringVal(fmt.Sprintf("s%d", r.Intn(1000)))
	default:
		return field.ArrayVal(randFrameArray(r))
	}
}

// cellNotice is the store of v at coordinates idx of a field generation: the
// one-cell box, every dimension free from its coordinate with extent 1.
func cellNotice(fieldName string, age int, v field.Value, idx ...int) StoreNotice {
	sel := make([]field.SlabDim, len(idx))
	ones := make([]int, len(idx))
	for d, i := range idx {
		sel[d], ones[d] = field.SlabDim{Index: i}, 1
	}
	cell := field.NewArray(v.Kind(), ones...)
	cell.SetFlat(v, 0)
	return StoreNotice{Field: fieldName, Age: age, Sel: sel, Value: field.ArrayVal(cell)}
}

func randFrameNotice(r *rand.Rand, fieldName string, age int) StoreNotice {
	sn := StoreNotice{Field: fieldName, Age: age}
	switch r.Intn(3) {
	case 0: // box with origins, rank 1..3
		a := randFrameArray(r)
		for d := 0; d < a.Rank(); d++ {
			if r.Intn(3) == 0 {
				sn.Sel = append(sn.Sel, field.SlabDim{Fixed: true, Index: r.Intn(8)})
			}
			sn.Sel = append(sn.Sel, field.SlabDim{Index: r.Intn(8)})
		}
		sn.Value = field.ArrayVal(a)
	case 1: // whole-field store
		sn.Whole = true
		sn.Value = field.ArrayVal(randFrameArray(r))
	default: // slab store, rank 1..3
		rank := 1 + r.Intn(3)
		for d := 0; d < rank; d++ {
			if r.Intn(2) == 0 {
				sn.Sel = append(sn.Sel, field.SlabDim{Fixed: true, Index: r.Intn(50)})
			} else {
				sn.Sel = append(sn.Sel, field.SlabDim{})
			}
		}
		sn.Value = field.ArrayVal(randFrameArray(r))
	}
	return sn
}

// noticesEqual compares two notices as stores: a Whole notice equals its
// all-free Sel spelling, which is what decoding hands back.
func noticesEqual(a, b StoreNotice) bool {
	a, b = a.normalize(), b.normalize()
	if a.Field != b.Field || a.Age != b.Age {
		return false
	}
	if !slices.Equal(a.Sel, b.Sel) {
		return false
	}
	if a.Value.IsArray() != b.Value.IsArray() {
		return false
	}
	if a.Value.IsArray() {
		return a.Value.Array().Equal(b.Value.Array())
	}
	return a.Value.Equal(b.Value)
}

// keep copies a borrowed notice (see DecodeStoreFrame) so a test can retain
// it past the apply call.
func keep(sn StoreNotice) StoreNotice {
	sn.Sel = slices.Clone(sn.Sel)
	if a := sn.Value.Array(); a != nil {
		sn.Value = field.ArrayVal(a.Clone())
	}
	return sn
}

// TestStoreFrameWholeSpelling: Len, Bytes and AppendTo agree on the encoded
// frame, which decodes back to the notices added; a Whole notice and its
// all-free Sel spelling are one entry, byte for byte, and decode to the
// selector.
func TestStoreFrameWholeSpelling(t *testing.T) {
	big := field.NewArray(field.Float64, 256)
	for i := 0; i < big.Len(); i++ {
		big.SetFlat(field.Float64Val(float64(i)*0.25), i)
	}
	small := field.ArrayFromUint8([]uint8{1, 2, 3})
	notices := []StoreNotice{
		{Field: "f", Age: 3, Whole: true, Value: field.ArrayVal(big)},
		cellNotice("f", 3, field.Int32Val(42), 7),
		{Field: "f", Age: 3, Sel: []field.SlabDim{{Fixed: true, Index: 1}}, Value: field.ArrayVal(small)},
		{Field: "f", Age: 3, Whole: true, Value: field.ArrayVal(big)},
	}
	var f StoreFrame
	f.Reset("f", 3)
	for _, sn := range notices {
		if err := f.Add(sn); err != nil {
			t.Fatal(err)
		}
	}
	flat := f.AppendTo(nil)
	if f.Len() != len(flat) {
		t.Errorf("Len() = %d, encoded size %d", f.Len(), len(flat))
	}
	if !slices.Equal(f.Bytes(), flat) {
		t.Error("Bytes() differs from AppendTo")
	}
	var got []StoreNotice
	if err := DecodeStoreFrame(flat, func(sn StoreNotice) error {
		got = append(got, keep(sn))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(notices) {
		t.Fatalf("decoded %d notices, want %d", len(got), len(notices))
	}
	for i := range notices {
		if !noticesEqual(got[i], notices[i]) {
			t.Fatalf("notice %d: got %+v, want %+v", i, got[i], notices[i])
		}
	}

	var whole, sel StoreFrame
	whole.Reset("f", 3)
	sel.Reset("f", 3)
	if err := whole.Add(StoreNotice{Field: "f", Age: 3, Whole: true, Value: field.ArrayVal(big)}); err != nil {
		t.Fatal(err)
	}
	if err := sel.Add(StoreNotice{Field: "f", Age: 3, Sel: []field.SlabDim{{}}, Value: field.ArrayVal(big)}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(whole.AppendTo(nil), sel.AppendTo(nil)) {
		t.Error("a Whole notice and its all-free Sel spelling encode differently")
	}
	if err := DecodeStoreFrame(whole.AppendTo(nil), func(sn StoreNotice) error {
		if sn.Whole || !slices.Equal(sn.Sel, []field.SlabDim{{}}) {
			t.Errorf("whole-field entry decoded as Whole=%v Sel=%v", sn.Whole, sn.Sel)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPutStoreFrameCap: oversized buffers must not be retained by the pool.
func TestPutStoreFrameCap(t *testing.T) {
	f := GetStoreFrame()
	f.Reset("f", 0)
	big := field.NewArray(field.Uint8, 1024)
	if err := f.Add(StoreNotice{Field: "f", Age: 0, Whole: true, Value: field.ArrayVal(big)}); err != nil {
		t.Fatal(err)
	}
	if !f.poolable() {
		t.Fatal("small frame reported unpoolable")
	}
	PutStoreFrame(f)

	over := &StoreFrame{buf: make([]byte, 0, maxPooledFrameBytes+1)}
	if over.poolable() {
		t.Fatalf("frame with %d-byte buffer reported poolable (cap %d)", cap(over.buf), maxPooledFrameBytes)
	}
	PutStoreFrame(over) // must not panic; the buffer is simply dropped

	at := &StoreFrame{buf: make([]byte, 0, maxPooledFrameBytes)}
	if !at.poolable() {
		t.Fatal("frame exactly at the cap reported unpoolable")
	}
}

// TestStoreFrameRoundTrip pushes random store notices (all three addressing
// modes, random kinds/ranks/extents) through encode → decode and requires
// the decoded sequence to match exactly.
func TestStoreFrameRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		fieldName := fmt.Sprintf("f%d", r.Intn(5))
		age := r.Intn(40) // ages are varint-encoded; negatives don't occur in programs
		var f StoreFrame
		f.Reset(fieldName, age)
		var want []StoreNotice
		for i := 0; i < 1+r.Intn(8); i++ {
			sn := randFrameNotice(r, fieldName, age)
			want = append(want, sn)
			if err := f.Add(sn); err != nil {
				t.Fatal(err)
			}
		}
		if f.Entries() != len(want) {
			t.Fatalf("entries = %d, want %d", f.Entries(), len(want))
		}
		var got []StoreNotice
		if err := DecodeStoreFrame(f.Bytes(), func(sn StoreNotice) error {
			got = append(got, keep(sn))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("decoded %d notices, want %d", len(got), len(want))
		}
		for i := range want {
			if !noticesEqual(got[i], want[i]) {
				t.Fatalf("notice %d: got %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}

// TestStoreFrameTruncated decodes every prefix of a valid frame: a prefix
// must either fail cleanly or decode to a prefix of the original notices —
// never crash, never invent entries.
func TestStoreFrameTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var f StoreFrame
	f.Reset("trunc", 3)
	var want []StoreNotice
	for i := 0; i < 6; i++ {
		sn := randFrameNotice(r, "trunc", 3)
		want = append(want, sn)
		if err := f.Add(sn); err != nil {
			t.Fatal(err)
		}
	}
	full := f.Bytes()
	for cut := 0; cut < len(full); cut++ {
		var got []StoreNotice
		err := DecodeStoreFrame(full[:cut], func(sn StoreNotice) error {
			got = append(got, keep(sn))
			return nil
		})
		if err == nil && cut < len(full) {
			// A clean prefix decode is only legal at an entry boundary.
			if len(got) >= len(want) {
				t.Fatalf("cut %d: decoded %d notices from a strict prefix", cut, len(got))
			}
		}
		for i := range got {
			if i < len(want) && !noticesEqual(got[i], want[i]) {
				t.Fatalf("cut %d: notice %d diverged", cut, i)
			}
		}
	}
}

// TestStoreFrameCorrupt exercises the decoder's guard rails on hostile input.
func TestStoreFrameCorrupt(t *testing.T) {
	var f StoreFrame
	f.Reset("c", 0)
	if err := f.Add(cellNotice("c", 0, field.Int32Val(7), 1)); err != nil {
		t.Fatal(err)
	}
	valid := append([]byte(nil), f.Bytes()...)

	nop := func(StoreNotice) error { return nil }
	cases := map[string][]byte{
		"empty":        {},
		"bad version":  {99},
		"version 1":    {1, 1, 'c', 0, 2, 1, 2, 2}, // entries began with a mode byte
		"huge name":    {storeFrameVersion, 0xff, 0xff, 0xff, 0x7f},
		"name overrun": {storeFrameVersion, 40, 'x'},
	}
	for name, data := range cases {
		if err := DecodeStoreFrame(data, nop); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	// Oversized selector rank, an unknown selector flag, and a negative
	// origin: the header is ver|len|"c"|age and the entry rank|flag, origin
	// varint|value, so the flag sits at offset 5 and the origin at 6.
	var g StoreFrame
	g.Reset("c", 0)
	hdr := len(g.Bytes())
	overRank := append(append([]byte(nil), valid[:hdr]...), 0xff, 0xff, 0x7f)
	if err := DecodeStoreFrame(overRank, nop); err == nil {
		t.Error("oversized rank: decode succeeded")
	}
	if valid[5] != frameDimOrigin || valid[6] != 2 { // origin 1, zigzag-coded
		t.Fatalf("cell entry encodes as %x", valid)
	}
	badFlag := append([]byte(nil), valid...)
	badFlag[5] = 3
	if err := DecodeStoreFrame(badFlag, nop); err == nil {
		t.Error("selector flag 3: decode succeeded")
	}
	negative := append([]byte(nil), valid...)
	negative[6] = 1 // origin -1
	if err := DecodeStoreFrame(negative, nop); !errors.Is(err, errFrameOrigin) {
		t.Errorf("negative origin: decode returned %v, want errFrameOrigin", err)
	}
	// An apply error stops the decode and propagates.
	wantErr := fmt.Errorf("stop")
	if err := DecodeStoreFrame(valid, func(StoreNotice) error { return wantErr }); err != wantErr {
		t.Errorf("apply error = %v, want %v", err, wantErr)
	}
}

// TestRemoteGrowthBounded: a remote store whose coordinates or selector would
// grow its generation past MaxRemoteCells is refused with ErrRemoteGrowth by
// DecodeStoreFrame, InjectStore and InjectStoreFrame before anything is
// allocated; so is one that stays under the bound alone but not together with
// what the generation already holds, which only the receiver can see.
func TestRemoteGrowthBounded(t *testing.T) {
	prog := frameEquivProg(t)
	n, stop := newReceiver(t, prog)
	defer stop()
	row := field.NewArray(field.Uint8, 8)
	frame := func(sn StoreNotice) []byte {
		var f StoreFrame
		f.Reset(sn.Field, sn.Age)
		if err := f.Add(sn); err != nil {
			t.Fatal(err)
		}
		return f.AppendTo(nil)
	}
	nop := func(StoreNotice) error { return nil }
	for name, sn := range map[string]StoreNotice{
		"cell 2^40":   cellNotice("fi", 1, field.Int32Val(1), 1<<40),
		"cell 2^62":   cellNotice("fu", 1, field.Uint8Val(1), 1<<62, 1<<62),
		"slab 2^30":   {Field: "fu", Age: 1, Sel: []field.SlabDim{{Fixed: true, Index: 1 << 30}, {}}, Value: field.ArrayVal(row)},
		"origin+span": {Field: "fi", Age: 1, Sel: []field.SlabDim{{Index: MaxRemoteCells - 4}}, Value: field.ArrayVal(field.NewArray(field.Int32, 8))},
	} {
		if err := DecodeStoreFrame(frame(sn), nop); !errors.Is(err, ErrRemoteGrowth) {
			t.Errorf("%s: DecodeStoreFrame = %v, want ErrRemoteGrowth", name, err)
		}
		if err := n.InjectStoreFrame(frame(sn)); !errors.Is(err, ErrRemoteGrowth) {
			t.Errorf("%s: InjectStoreFrame = %v, want ErrRemoteGrowth", name, err)
		}
		if err := n.InjectStore(sn); !errors.Is(err, ErrRemoteGrowth) {
			t.Errorf("%s: InjectStore = %v, want ErrRemoteGrowth", name, err)
		}
		if got := n.fields[sn.Field].f.Extents(1); slices.ContainsFunc(got, func(e int) bool { return e > 0 }) {
			t.Errorf("%s: the refused store grew the generation to %v", name, got)
		}
	}
	// fu(2) holds 2^14 columns; 2^13 rows of it are 2^27 cells, though the
	// store of row 2^13-1 addresses only 2^13 on its own.
	if err := n.InjectStore(cellNotice("fu", 2, field.Uint8Val(1), 0, 1<<14-1)); err != nil {
		t.Fatal(err)
	}
	tall := cellNotice("fu", 2, field.Uint8Val(1), 1<<13-1, 0)
	if err := DecodeStoreFrame(frame(tall), nop); err != nil {
		t.Fatalf("DecodeStoreFrame refused a store within the bound: %v", err)
	}
	if err := n.InjectStoreFrame(frame(tall)); !errors.Is(err, ErrRemoteGrowth) {
		t.Errorf("InjectStoreFrame of the combined growth = %v, want ErrRemoteGrowth", err)
	}
	if err := n.InjectStore(tall); !errors.Is(err, ErrRemoteGrowth) {
		t.Errorf("InjectStore of the combined growth = %v, want ErrRemoteGrowth", err)
	}
	if err := n.InjectStore(cellNotice("fu", 2, field.Uint8Val(1), 3, 5)); err != nil {
		t.Errorf("a store within the grown generation: %v", err)
	}
}

// frameEquivProg is a program whose kernels are all remote, so a node built
// on it only receives stores: three versioned fields of different kinds and
// ranks.
func frameEquivProg(t *testing.T) *core.Program {
	t.Helper()
	b := core.NewBuilder("frames")
	b.Field("fi", field.Int32, 1, true)
	b.Field("ff", field.Float64, 2, true)
	b.Field("fu", field.Uint8, 2, true)
	nop := func(c *core.Ctx) error { return nil }
	b.Kernel("s1").Local("v", field.Int32, 1).StoreAll("fi", core.AgeAt(0), "v").Body(nop)
	b.Kernel("s2").Local("v", field.Float64, 2).StoreAll("ff", core.AgeAt(0), "v").Body(nop)
	b.Kernel("s3").Local("v", field.Uint8, 2).StoreAll("fu", core.AgeAt(0), "v").Body(nop)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newReceiver(t *testing.T, prog *core.Program) (*Node, func()) {
	t.Helper()
	remote := map[string]bool{"s1": true, "s2": true, "s3": true}
	n, err := NewNode(prog, Options{Workers: 1, RemoteKernels: remote, NoAutoQuiesce: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = n.Run()
	}()
	return n, func() {
		n.Stop()
		<-done
	}
}

// TestInjectStoreFrameMatchesInjectStore applies the same store sequence to
// two receiving nodes — one notice-by-notice via InjectStore, one batched via
// InjectStoreFrame — and requires identical field state.
func TestInjectStoreFrameMatchesInjectStore(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	prog := frameEquivProg(t)
	direct, stopDirect := newReceiver(t, prog)
	framed, stopFramed := newReceiver(t, prog)

	// One generation per store shape: one-cell boxes into fi, a whole-field
	// store into ff, rows into fu.
	var notices []StoreNotice
	for i := 0; i < 10; i++ {
		notices = append(notices, cellNotice("fi", 0, field.Int32Val(int32(r.Intn(1000))), i))
	}
	whole := field.NewArray(field.Float64, 4, 3)
	for i := 0; i < whole.Len(); i++ {
		whole.SetFlat(field.Float64Val(r.NormFloat64()), i)
	}
	notices = append(notices, StoreNotice{Field: "ff", Age: 0, Whole: true, Value: field.ArrayVal(whole)})
	for i := 0; i < 4; i++ {
		row := field.NewArray(field.Uint8, 8)
		for j := 0; j < 8; j++ {
			row.SetFlat(field.Int64Val(r.Int63n(256)), j)
		}
		notices = append(notices, StoreNotice{
			Field: "fu", Age: 0,
			Sel:   []field.SlabDim{{Fixed: true, Index: i}, {}},
			Value: field.ArrayVal(row),
		})
	}

	frames := map[string]*StoreFrame{}
	for _, sn := range notices {
		if err := direct.InjectStore(sn); err != nil {
			t.Fatal(err)
		}
		f := frames[sn.Field]
		if f == nil {
			f = &StoreFrame{}
			f.Reset(sn.Field, sn.Age)
			frames[sn.Field] = f
		}
		if err := f.Add(sn); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range frames {
		if err := framed.InjectStoreFrame(f.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	stopDirect()
	stopFramed()

	for _, fieldName := range []string{"fi", "ff", "fu"} {
		want, err := direct.Snapshot(fieldName, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := framed.Snapshot(fieldName, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: framed %v, direct %v", fieldName, got, want)
		}
	}
	// Unknown-field frames surface the InjectStore error.
	var bad StoreFrame
	bad.Reset("nope", 0)
	if err := bad.Add(cellNotice("nope", 0, field.Int32Val(1), 0)); err != nil {
		t.Fatal(err)
	}
	n, stop := newReceiver(t, prog)
	defer stop()
	if err := n.InjectStoreFrame(bad.Bytes()); err == nil {
		t.Error("frame for unknown field injected cleanly")
	}

	// A Whole notice and its all-free Sel spelling store the same contents
	// and announce them with the same analyzer event.
	spell := map[string]StoreNotice{
		"whole": {Field: "ff", Age: 0, Whole: true, Value: field.ArrayVal(whole)},
		"sel":   {Field: "ff", Age: 0, Sel: []field.SlabDim{{}, {}}, Value: field.ArrayVal(whole)},
	}
	evs := map[string]event{}
	snaps := map[string]*field.Array{}
	for name, sn := range spell {
		node, err := NewNode(prog, Options{Workers: 1, RemoteKernels: map[string]bool{"s1": true, "s2": true, "s3": true}})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := node.applyStore(sn)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ev.fs = nil // node-local
		evs[name] = ev
		snaps[name], _ = node.Snapshot("ff", 0)
		node.Release()
	}
	if !reflect.DeepEqual(evs["whole"], evs["sel"]) {
		t.Errorf("analyzer events differ: whole %+v, sel %+v", evs["whole"], evs["sel"])
	}
	var org, span [4]int
	if ev := evs["whole"]; !ev.grew || !slices.Equal(ev.org.get(&org), []int{0, 0}) || !slices.Equal(ev.span.get(&span), []int{4, 3}) {
		t.Errorf("whole-field store announced as %+v", ev)
	}
	if !snaps["whole"].Equal(whole) || !snaps["sel"].Equal(whole) {
		t.Errorf("field contents differ: whole %v, sel %v, stored %v", snaps["whole"], snaps["sel"], whole)
	}
}

// entryValues returns the value of each entry of a frame, each decoded into an
// array of its own: the reference that DecodeStoreFrame's reused scratch is
// checked against. It stops at the first entry it cannot decode.
func entryValues(frame []byte) []field.Value {
	c := field.Decoder(frame)
	var (
		name string
		age  int
		sel  []field.SlabDim
		out  []field.Value
	)
	frameHeader(&c, &name, &age)
	for c.Err == nil && c.Left() > 0 {
		var v field.Value
		if frameEntry(&c, &sel, &v, nil); c.Err == nil {
			out = append(out, v)
		}
	}
	return out
}

// valueBytes is the wire encoding of v followed, for an array, by the kind
// of the array itself, which the encoding takes from the Value.
func valueBytes(v field.Value) ([]byte, error) {
	enc, err := field.AppendWireValue(nil, v)
	if a := v.Array(); a != nil && err == nil {
		enc = append(enc, byte(a.Kind()))
	}
	return enc, err
}

// mixedFrames are store frames whose consecutive entries change element
// class (u8, i32, f64, String, Any), kind within a class (Uint8 and Bool),
// rank and selector shape, so a decoder
// that reuses scratch across entries would carry a stale shape or class from
// one entry into the next.
func mixedFrames(t testing.TB) [][]byte {
	strs := field.NewArray(field.String, 3)
	strs.SetFlat(field.StringVal("row"), 0)
	strs.SetFlat(field.StringVal(""), 2)
	anys := field.NewArray(field.Any, 2, 1)
	anys.SetFlat(field.Int64Val(-9), 0)
	anys.SetFlat(field.StringVal("x"), 1)
	f64 := field.NewArray(field.Float64, 2, 2, 2)
	f64.SetFlat(field.Float64Val(2.5), 7)
	bools := field.NewArray(field.Bool, 2)
	bools.SetFlat(field.BoolVal(true), 1)
	u8 := field.NewArray(field.Uint8, 2, 3)
	u8.SetFlat(field.Uint8Val(200), 5)
	i32 := field.NewArray(field.Int32, 4, 32)
	for i, v := 0, i32.Int32s(); i < len(v); i++ {
		v[i] = int32(i - 200)
	}
	row := func(i int) []field.SlabDim { return []field.SlabDim{{Fixed: true, Index: i}, {}} }
	notices := []StoreNotice{
		cellNotice("", 0, field.Float64Val(0.5), 3, 1),
		{Sel: row(1), Value: field.ArrayVal(field.ArrayFromUint8([]uint8{7, 8}))},
		{Sel: []field.SlabDim{{}, {}}, Value: field.ArrayVal(u8)},
		{Whole: true, Value: field.ArrayVal(i32)},
		{Sel: row(0), Value: field.ArrayVal(field.ArrayFromInt32([]int32{-1, 1 << 20, 7}))},
		{Sel: []field.SlabDim{{}, {Fixed: true, Index: 2}, {}, {}}, Value: field.ArrayVal(f64)},
		cellNotice("", 0, field.StringVal("s"), 4),
		{Sel: row(2), Value: field.ArrayVal(strs)},
		{Sel: []field.SlabDim{{}, {}}, Value: field.ArrayVal(anys)},
		{Sel: []field.SlabDim{{Fixed: true}, {Index: 3}}, Value: field.ArrayVal(field.ArrayFromInt32([]int32{5, 6}))},
		{Sel: []field.SlabDim{{}, {}}, Value: field.ArrayVal(field.NewArray(field.Int32, 0, 3))},
		{Sel: row(3), Value: field.ArrayVal(field.ArrayFromUint8([]uint8{9}))},
		{Sel: row(4), Value: field.ArrayVal(bools)},
		cellNotice("", 0, field.Int32Val(-3), 2, 2),
	}
	reversed := slices.Clone(notices)
	slices.Reverse(reversed)
	var frames [][]byte
	for _, order := range [][]StoreNotice{notices, reversed} {
		var fr StoreFrame
		fr.Reset("mixed", 2)
		for _, sn := range order {
			if err := fr.Add(sn); err != nil {
				t.Fatal(err)
			}
		}
		frames = append(frames, fr.AppendTo(nil))
	}
	return frames
}

// FuzzDecodeStoreFrame: decoding never panics and allocates within the
// transport's bound (64 bytes per frame byte, plus 1 MiB: allocBound in
// internal/dist); every notice apply sees equals a fresh decode of its
// entry, so nothing of one entry's decode leaks through the reused scratch
// into the next; and a frame that
// decodes re-encodes to bytes that decode to the same notices. Values are
// compared through their encoding, byte for byte, because Value.Equal holds a
// NaN unequal to itself. Seeds are random frames of the round-trip tests,
// the corruption cases, frames mixing every element class, rank and selector
// shape, and box entries: at an origin, of one cell, at a negative origin and
// reaching past MaxRemoteCells.
func FuzzDecodeStoreFrame(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		var fr StoreFrame
		fr.Reset(fmt.Sprintf("f%d", i), i)
		for j := 0; j < 1+r.Intn(4); j++ {
			if err := fr.Add(randFrameNotice(r, "f", i)); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(fr.AppendTo(nil))
	}
	for _, fr := range mixedFrames(f) {
		f.Add(fr)
	}
	for _, seed := range [][]byte{
		{}, {99}, {1, 1, 'c', 0, 2, 1, 2, 2}, {storeFrameVersion, 0xff, 0xff, 0xff, 0x7f},
		{storeFrameVersion, 40, 'x'}, {storeFrameVersion, 1, 'c', 0, 1},
		{storeFrameVersion, 1, 'c', 0, 0, 0xff, 0xff, 0x7f},
	} {
		f.Add(seed)
	}
	// An origin of 2^40 and a selector row of 2^30, which MaxRemoteCells
	// refuses; then a box at an origin, a one-cell box, a box whose origin
	// is negative, and one whose origin is within the bound and whose
	// extent is not.
	for _, sn := range []StoreNotice{
		cellNotice("c", 0, field.Int32Val(7), 1<<40),
		{Field: "c", Sel: []field.SlabDim{{Fixed: true, Index: 1 << 30}, {}}, Value: field.ArrayVal(field.NewArray(field.Int32, 4))},
		{Field: "c", Sel: []field.SlabDim{{Index: 5}, {Fixed: true, Index: 1}, {}}, Value: field.ArrayVal(field.NewArray(field.Float64, 3, 2))},
		cellNotice("c", 0, field.Uint8Val(9), 2, 7),
		{Field: "c", Sel: []field.SlabDim{{Index: -3}}, Value: field.ArrayVal(field.NewArray(field.Int64, 2))},
		{Field: "c", Sel: []field.SlabDim{{Index: MaxRemoteCells - 1}}, Value: field.ArrayVal(field.NewArray(field.Uint8, 2))},
	} {
		var fr StoreFrame
		fr.Reset(sn.Field, 0)
		if err := fr.Add(sn); err != nil {
			f.Fatal(err)
		}
		f.Add(fr.AppendTo(nil))
	}
	// decode keeps a copy of every notice, and the encoding of its value as
	// apply saw it, before the next entry reuses the scratch.
	decode := func(frame []byte) (got []StoreNotice, seen [][]byte, err error) {
		err = DecodeStoreFrame(frame, func(sn StoreNotice) error {
			enc, err := valueBytes(sn.Value)
			if err != nil {
				return fmt.Errorf("decoded value %v does not encode: %w", sn.Value, err)
			}
			got, seen = append(got, keep(sn)), append(seen, enc)
			return nil
		})
		return got, seen, err
	}
	encode := func(notices []StoreNotice) ([]byte, error) {
		var fr StoreFrame
		fr.Reset(notices[0].Field, notices[0].Age)
		for _, sn := range notices {
			if err := fr.Add(sn); err != nil {
				return nil, err
			}
		}
		return fr.AppendTo(nil), nil
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		err := DecodeStoreFrame(frame, func(StoreNotice) error { return nil })
		goruntime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(frame)+1<<20); grew > bound {
			t.Fatalf("%d frame bytes allocated %d, want at most %d (%v)", len(frame), grew, bound, err)
		}
		got, seen, err := decode(frame)
		fresh := entryValues(frame)
		if len(fresh) < len(seen) {
			t.Fatalf("apply saw %d entries, a fresh walk finds %d", len(seen), len(fresh))
		}
		for i, enc := range seen {
			want, err := valueBytes(fresh[i])
			if err != nil || !slices.Equal(enc, want) {
				t.Fatalf("entry %d: apply saw %x, a fresh decode gives %x (%v)", i, enc, want, err)
			}
		}
		if err != nil || len(got) == 0 {
			return
		}
		enc, err := encode(got)
		if err != nil {
			t.Fatalf("decoded notices %+v do not re-encode: %v", got, err)
		}
		back, _, err := decode(enc)
		if err != nil || len(back) != len(got) {
			t.Fatalf("re-encoding decodes to %d notices (%v), want %d", len(back), err, len(got))
		}
		if again, err := encode(back); err != nil || !slices.Equal(again, enc) {
			t.Fatalf("notices %+v re-decoded as %+v (%v)", got, back, err)
		}
	})
}
