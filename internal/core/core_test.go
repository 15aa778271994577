package core

import (
	"strings"
	"testing"

	"repro/internal/field"
)

// mulSumProgram builds the paper's figure 5 program (init, mul2, plus5,
// print) with Go bodies. Shared by several tests.
func mulSumProgram(t testing.TB) *Program {
	t.Helper()
	b := NewBuilder("mulsum")
	b.Field("m_data", field.Int32, 1, true)
	b.Field("p_data", field.Int32, 1, true)

	b.Kernel("init").
		Local("values", field.Int32, 1).
		StoreAll("m_data", AgeAt(0), "values").
		Body(func(c *Ctx) error {
			vs := c.Array("values")
			for i := 0; i < 5; i++ {
				vs.Put(field.Int32Val(int32(i+10)), i)
			}
			return nil
		})

	b.Kernel("mul2").Age("a").Index("x").
		Local("value", field.Int32, 0).
		Fetch("value", "m_data", AgeVar(0), Idx("x")).
		Store("p_data", AgeVar(0), []IndexSpec{Idx("x")}, "value").
		Body(func(c *Ctx) error {
			c.SetInt32("value", c.Int32("value")*2)
			return nil
		})

	b.Kernel("plus5").Age("a").Index("x").
		Local("value", field.Int32, 0).
		Fetch("value", "p_data", AgeVar(0), Idx("x")).
		Store("m_data", AgeVar(1), []IndexSpec{Idx("x")}, "value").
		Body(func(c *Ctx) error {
			c.SetInt32("value", c.Int32("value")+5)
			return nil
		})

	b.Kernel("print").Age("a").
		Local("m", field.Int32, 1).
		Local("p", field.Int32, 1).
		FetchAll("m", "m_data", AgeVar(0)).
		FetchAll("p", "p_data", AgeVar(0)).
		Body(func(c *Ctx) error {
			m, p := c.Array("m"), c.Array("p")
			var sb strings.Builder
			for i := 0; i < m.Extent(0); i++ {
				sb.WriteString(m.At(i).String())
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
			for i := 0; i < p.Extent(0); i++ {
				sb.WriteString(p.At(i).String())
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
			c.Printf("%s", sb.String())
			return nil
		})

	prog, err := b.Build()
	if err != nil {
		t.Fatalf("building mulsum: %v", err)
	}
	return prog
}

func TestBuilderBuildsFig5Program(t *testing.T) {
	p := mulSumProgram(t)
	if p.Name != "mulsum" || len(p.Fields) != 2 || len(p.Kernels) != 4 {
		t.Fatalf("program shape: %d fields, %d kernels", len(p.Fields), len(p.Kernels))
	}
	if p.Field("m_data") == nil || p.Field("nope") != nil {
		t.Error("Field lookup")
	}
	if p.Kernel("mul2") == nil || p.Kernel("nope") != nil {
		t.Error("Kernel lookup")
	}
	if !p.Kernel("init").RunOnce() || p.Kernel("mul2").RunOnce() {
		t.Error("RunOnce classification")
	}
	if p.Kernel("init").Source() || p.Kernel("mul2").Source() {
		t.Error("Source classification (neither is a source)")
	}
	if p.Kernel("mul2").Local("value") == nil || p.Kernel("mul2").Local("zzz") != nil {
		t.Error("Local lookup")
	}
}

func TestProducersConsumers(t *testing.T) {
	p := mulSumProgram(t)
	prods := p.Producers("m_data")
	if len(prods) != 2 { // init and plus5
		t.Fatalf("m_data producers = %d, want 2", len(prods))
	}
	cons := p.Consumers("m_data")
	if len(cons) != 2 { // mul2 and print
		t.Fatalf("m_data consumers = %d, want 2", len(cons))
	}
	if len(p.Producers("nope")) != 0 || len(p.Consumers("nope")) != 0 {
		t.Error("unknown field should have no edges")
	}
}

func TestAgeExpr(t *testing.T) {
	if AgeVar(0).Eval(3) != 3 || AgeVar(1).Eval(3) != 4 || AgeAt(0).Eval(3) != 0 {
		t.Error("Eval")
	}
	cases := map[AgeExpr]string{
		AgeVar(0):  "a",
		AgeVar(2):  "a+2",
		AgeVar(-1): "a-1",
		AgeAt(7):   "7",
	}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("%#v.String() = %q, want %q", e, e.String(), want)
		}
	}
}

func TestIndexSpec(t *testing.T) {
	if Idx("x").String() != "x" || Lit(3).String() != "3" {
		t.Error("String")
	}
	idx := map[string]int{"x": 9}
	if Idx("x").Eval(idx) != 9 || Lit(3).Eval(idx) != 3 {
		t.Error("Eval")
	}
}

func TestStatementStrings(t *testing.T) {
	f := FetchStmt{Local: "v", Field: "m", Age: AgeVar(0), Index: []IndexSpec{Idx("x")}}
	if f.String() != "fetch v = m(a)[x];" {
		t.Errorf("fetch string %q", f.String())
	}
	fw := FetchStmt{Local: "v", Field: "m", Age: AgeAt(0)}
	if fw.String() != "fetch v = m(0);" || !fw.Whole() {
		t.Errorf("whole fetch string %q", fw.String())
	}
	s := StoreStmt{Field: "m", Age: AgeVar(1), Index: []IndexSpec{Idx("x")}, Local: "v"}
	if s.String() != "store m(a+1)[x] = v;" || s.Whole() {
		t.Errorf("store string %q", s.String())
	}
}

func TestValidateErrors(t *testing.T) {
	type tc struct {
		name  string
		build func() *Builder
		want  string
	}
	base := func() *Builder {
		b := NewBuilder("t")
		b.Field("f", field.Int32, 1, true)
		return b
	}
	cases := []tc{
		{"no kernels", func() *Builder { return base() }, "no kernels"},
		{"dup field", func() *Builder {
			b := base()
			b.Field("f", field.Int32, 1, true)
			b.Kernel("k").Body(nil)
			return b
		}, "duplicate field"},
		{"bad rank", func() *Builder {
			b := NewBuilder("t")
			b.Field("f", field.Int32, 0, true)
			b.Kernel("k")
			return b
		}, "rank must be >= 1"},
		{"bad kind", func() *Builder {
			b := NewBuilder("t")
			b.Field("f", field.Invalid, 1, true)
			b.Kernel("k")
			return b
		}, "invalid element kind"},
		{"dup kernel", func() *Builder {
			b := base()
			b.Kernel("k")
			b.Kernel("k")
			return b
		}, "duplicate kernel"},
		{"dup timer", func() *Builder {
			b := base()
			b.Timer("t1").Timer("t1")
			b.Kernel("k")
			return b
		}, "duplicate timer"},
		{"unknown field in fetch", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
				Fetch("v", "zzz", AgeVar(0), Idx("x"))
			return b
		}, "unknown field"},
		{"unknown local in fetch", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").
				Fetch("v", "f", AgeVar(0), Idx("x"))
			return b
		}, "unknown local"},
		{"unknown index var", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Local("v", field.Int32, 0).
				Fetch("v", "f", AgeVar(0), Idx("x"))
			return b
		}, "unknown index variable"},
		{"future fetch", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
				Fetch("v", "f", AgeVar(1), Idx("x"))
			return b
		}, "future age"},
		{"past store", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
				Fetch("v", "f", AgeVar(0), Idx("x")).
				Store("f", AgeVar(-1), []IndexSpec{Idx("x")}, "v")
			return b
		}, "past age"},
		{"rank mismatch index", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
				Fetch("v", "f", AgeVar(0), Idx("x"), Idx("x"))
			return b
		}, "index coordinates"},
		{"whole fetch rank mismatch", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Local("v", field.Int32, 2).
				FetchAll("v", "f", AgeVar(0))
			return b
		}, "whole-field fetch"},
		{"element fetch into array", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 1).
				Fetch("v", "f", AgeVar(0), Idx("x"))
			return b
		}, "element fetch into array local"},
		{"kind mismatch", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Float64, 0).
				Fetch("v", "f", AgeVar(0), Idx("x"))
			return b
		}, "incompatible"},
		{"unbound index var", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
				Store("f", AgeVar(0), []IndexSpec{Idx("x")}, "v")
			return b
		}, "not bound by any offset-free element fetch"},
		{"age var without decl", func() *Builder {
			b := base()
			b.Kernel("k").Index("x").Local("v", field.Int32, 0).
				Fetch("v", "f", AgeVar(0), Idx("x"))
			return b
		}, "age variable but kernel has none"},
		{"non-aged field aged access", func() *Builder {
			b := NewBuilder("t")
			b.Field("f", field.Int32, 1, false)
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
				Fetch("v", "f", AgeVar(0), Idx("x"))
			return b
		}, "must be accessed at age 0"},
		{"negative absolute age", func() *Builder {
			b := base()
			b.Kernel("k").Local("v", field.Int32, 1).
				FetchAll("v", "f", AgeAt(-1))
			return b
		}, "negative absolute age"},
		{"negative index literal", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
				Fetch("v", "f", AgeVar(0), Idx("x")).
				Store("f", AgeVar(1), []IndexSpec{Lit(-2)}, "v")
			return b
		}, "negative index literal"},
		{"name collision", func() *Builder {
			b := base()
			b.Kernel("k").Age("a").Index("a")
			return b
		}, "collides"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build().Build()
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestValidateAcceptsAnyKind(t *testing.T) {
	b := NewBuilder("t")
	b.Field("f", field.Any, 1, true)
	b.Kernel("k").Age("a").Index("x").Local("v", field.Int32, 0).
		Fetch("v", "f", AgeVar(0), Idx("x"))
	if _, err := b.Build(); err != nil {
		t.Fatalf("Any field should accept any local kind: %v", err)
	}
}

func TestCtxBasics(t *testing.T) {
	p := mulSumProgram(t)
	k := p.Kernel("mul2")
	var out strings.Builder
	c := NewCtx(k, 3, map[string]int{"x": 2}, nil, &out)
	if c.Kernel() != k || c.Age() != 3 || c.Index("x") != 2 {
		t.Error("ctx metadata")
	}
	if c.Bound("value") {
		t.Error("locals start unbound")
	}
	c.SetInt32("value", 21)
	if !c.Bound("value") || c.Int32("value") != 21 {
		t.Error("Set binds")
	}
	c.Printf("age=%d", c.Age())
	if out.String() != "age=3" {
		t.Errorf("Printf output %q", out.String())
	}
	if c.Stopped() {
		t.Error("not stopped yet")
	}
	c.Stop()
	if !c.Stopped() {
		t.Error("Stop")
	}
	if c.Now().IsZero() {
		t.Error("Now without timers should fall back to wall clock")
	}
	if _, err := c.Expired("t", 0); err == nil {
		t.Error("Expired without timers should error")
	}
}

func TestCtxPanicsOnUnknownNames(t *testing.T) {
	p := mulSumProgram(t)
	c := NewCtx(p.Kernel("mul2"), 0, map[string]int{"x": 0}, nil, nil)
	for name, fn := range map[string]func(){
		"unknown index": func() { c.Index("zzz") },
		"unknown local": func() { c.Get("zzz") },
		"set unknown":   func() { c.Set("zzz", field.Int32Val(1)) },
		"array scalar":  func() { c.Array("value") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCtxArrayBinds(t *testing.T) {
	p := mulSumProgram(t)
	c := NewCtx(p.Kernel("init"), 0, nil, nil, nil)
	if c.Bound("values") {
		t.Error("array local starts unbound")
	}
	a := c.Array("values")
	if !c.Bound("values") {
		t.Error("Array access binds")
	}
	a.Put(field.Int32Val(1), 0)
	if c.Array("values").At(0).Int32() != 1 {
		t.Error("array mutation visible through ctx")
	}
}

func TestCtxTypedAccessors(t *testing.T) {
	b := NewBuilder("t")
	b.Field("f", field.Any, 1, true)
	kb := b.Kernel("k").
		Local("i", field.Int64, 0).
		Local("f64", field.Float64, 0).
		Local("o", field.Any, 0)
	_ = kb
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCtx(p.Kernel("k"), 0, nil, nil, nil)
	c.SetInt64("i", 1<<40)
	if c.Int64("i") != 1<<40 {
		t.Error("int64 accessor")
	}
	c.SetFloat64("f64", 2.5)
	if c.Float64("f64") != 2.5 {
		t.Error("float64 accessor")
	}
	obj := &struct{ x int }{1}
	c.SetObj("o", obj)
	if c.Obj("o") != obj {
		t.Error("obj accessor")
	}
}

// TestCtxLanes: the columns of a slice body. Lanes leaves every scalar local
// unbound and zero in every lane, whatever the lanes held before and however
// often the columns grew; SetLaneValue converts to the local's kind and binds
// in its lane only; LaneValue boxes with the local's kind; the one-instance
// locals are not the lanes'.
func TestCtxLanes(t *testing.T) {
	b := NewBuilder("t")
	b.Field("in", field.Int32, 1, false)
	b.Kernel("k").Index("x").
		Local("i", field.Int32, 0).
		Local("f", field.Float32, 0).
		Local("ok", field.Bool, 0).
		Local("arr", field.Float64, 1).
		Fetch("i", "in", AgeAt(0), Idx("x"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	kd := p.Kernel("k")
	c := NewReusableCtx(kd, nil, nil)
	c.Reset(3, nil)
	for _, n := range []int{2, 5, 300, 7} {
		c.Lanes(n)
		for li := range kd.Locals[:3] {
			for l := 0; l < n; l++ {
				if c.BoundCol(li)[l] || !c.LaneValue(li, l).Equal(field.Zero(kd.Locals[li].Kind)) {
					t.Fatalf("%d lanes: lane %d of %s is %v, bound %v", n, l, kd.Locals[li].Name, c.LaneValue(li, l), c.BoundCol(li)[l])
				}
			}
		}
		if len(c.CoordCol(0)) != n || len(c.IntCol(0)) != n || len(c.FloatCol(1)) != n {
			t.Fatalf("%d lanes: columns of %d, %d and %d", n, len(c.CoordCol(0)), len(c.IntCol(0)), len(c.FloatCol(1)))
		}
		c.SetLaneValue(0, 1, field.Int64Val(1<<32+7))
		c.SetLaneValue(1, 1, field.Float64Val(2.5))
		c.SetLaneValue(2, 1, field.Int64Val(9))
		for li, want := range []field.Value{field.Int32Val(7), field.Float32Val(2.5), field.BoolVal(true)} {
			if got := c.LaneValue(li, 1); !got.Equal(want) || !c.BoundCol(li)[1] || c.BoundCol(li)[0] {
				t.Errorf("%d lanes: %s is %v (bound %v, lane 0 %v), want %v", n, kd.Locals[li].Name, got, c.BoundCol(li)[1], c.BoundCol(li)[0], want)
			}
		}
	}
	if c.Bound("i") || c.Age() != 3 {
		t.Errorf("the lanes bound the one instance's local, or the age moved to %d", c.Age())
	}
}
