package field

import (
	"testing"
	"testing/quick"
)

func TestKindNames(t *testing.T) {
	cases := map[Kind]string{
		Int32: "int32", Int64: "int64", Float32: "float32", Float64: "float64",
		Uint8: "uint8", Bool: "bool", String: "string", Any: "any",
	}
	for k, name := range cases {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), name)
		}
		if got := KindByName(name); got != k {
			t.Errorf("KindByName(%q) = %v, want %v", name, got, k)
		}
	}
	if KindByName("nope") != Invalid {
		t.Errorf("KindByName(nope) should be Invalid")
	}
	if KindByName("invalid") != Invalid {
		t.Errorf("KindByName(invalid) should not resolve")
	}
	if Kind(200).String() == "" {
		t.Errorf("out-of-range kind should still format")
	}
}

func TestKindPredicates(t *testing.T) {
	if !Int64.Integer() || Float32.Integer() {
		t.Error("Integer misclassified")
	}
	if !Float32.Float() || Int32.Float() {
		t.Error("Float misclassified")
	}
}

func TestScalarRoundTrips(t *testing.T) {
	if Int32Val(-7).Int32() != -7 {
		t.Error("int32 round trip")
	}
	if Int64Val(1<<40).Int64() != 1<<40 {
		t.Error("int64 round trip")
	}
	if Uint8Val(200).Uint8() != 200 {
		t.Error("uint8 round trip")
	}
	if Float32Val(1.5).Float32() != 1.5 {
		t.Error("float32 round trip")
	}
	if Float64Val(-2.25).Float64() != -2.25 {
		t.Error("float64 round trip")
	}
	if !BoolVal(true).Bool() || BoolVal(false).Bool() {
		t.Error("bool round trip")
	}
	if StringVal("hi").Str() != "hi" {
		t.Error("string round trip")
	}
	type payload struct{ x int }
	p := &payload{42}
	if AnyVal(p).Obj() != p {
		t.Error("any round trip")
	}
}

func TestValueConversions(t *testing.T) {
	if Float64Val(3.9).Int64() != 3 {
		t.Error("float→int should truncate")
	}
	if Int32Val(3).Float64() != 3.0 {
		t.Error("int→float")
	}
	if Int32Val(0).Bool() || !Int32Val(2).Bool() {
		t.Error("int truthiness")
	}
	if Float64Val(0.5).Bool() != true || Float64Val(0).Bool() {
		t.Error("float truthiness")
	}
	v := Int32Val(7).Convert(Float64)
	if v.Kind() != Float64 || v.Float64() != 7 {
		t.Error("Convert to float64")
	}
	v = Float64Val(7.7).Convert(Int32)
	if v.Kind() != Int32 || v.Int32() != 7 {
		t.Error("Convert to int32")
	}
	v = Int32Val(1).Convert(Bool)
	if v.Kind() != Bool || !v.Bool() {
		t.Error("Convert to bool")
	}
	v = Int32Val(12).Convert(String)
	if v.Kind() != String || v.Str() != "12" {
		t.Error("Convert to string")
	}
	v = Int32Val(12).Convert(Any)
	if v.Kind() != Any || v.Int64() != 12 {
		t.Error("Convert to any keeps representation")
	}
	// Converting to the same kind is the identity.
	orig := Float32Val(2.5)
	if orig.Convert(Float32) != orig {
		t.Error("identity conversion changed value")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int32Val(5).Equal(Int32Val(5)) {
		t.Error("equal scalars")
	}
	if Int32Val(5).Equal(Int64Val(5)) {
		t.Error("different kinds should not be Equal")
	}
	if Int32Val(5).Equal(Int32Val(6)) {
		t.Error("different values")
	}
	if !StringVal("a").Equal(StringVal("a")) || StringVal("a").Equal(StringVal("b")) {
		t.Error("string equality")
	}
	a1 := ArrayFromInt32([]int32{1, 2})
	a2 := ArrayFromInt32([]int32{1, 2})
	a3 := ArrayFromInt32([]int32{1, 3})
	if !ArrayVal(a1).Equal(ArrayVal(a2)) {
		t.Error("equal arrays")
	}
	if ArrayVal(a1).Equal(ArrayVal(a3)) {
		t.Error("unequal arrays")
	}
	if ArrayVal(a1).Equal(Int32Val(1)) {
		t.Error("array vs scalar")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int32Val(-3), "-3"},
		{Float64Val(2.5), "2.5"},
		{BoolVal(true), "true"},
		{BoolVal(false), "false"},
		{StringVal("x"), "x"},
		{Value{}, "<unset>"},
		{ArrayVal(ArrayFromInt32([]int32{1, 2, 3})), "{1, 2, 3}"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestValueZeroAndIsZero(t *testing.T) {
	if !(Value{}).IsZero() {
		t.Error("zero Value should be IsZero")
	}
	if Zero(Int32).IsZero() {
		t.Error("Zero(Int32) carries a kind, not IsZero")
	}
	if Zero(Int32).Int32() != 0 {
		t.Error("Zero(Int32) should read as 0")
	}
}

// Property: int64 values survive a round trip through Value for the whole
// representable range.
func TestQuickInt64RoundTrip(t *testing.T) {
	f := func(v int64) bool { return Int64Val(v).Int64() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: converting int32 → float64 → int32 is the identity (float64 holds
// all int32 exactly).
func TestQuickInt32FloatRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		return Int32Val(v).Convert(Float64).Convert(Int32).Int32() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal is reflexive for scalar values.
func TestQuickEqualReflexive(t *testing.T) {
	f := func(v int64, g float64, s string) bool {
		return Int64Val(v).Equal(Int64Val(v)) &&
			Float64Val(g).Equal(Float64Val(g)) &&
			StringVal(s).Equal(StringVal(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
