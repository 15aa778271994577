package dist

import (
	"bytes"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/runtime"
)

// frameOf encodes store notices of one field generation into a store frame.
func frameOf(t *testing.T, fieldName string, age int, notices ...runtime.StoreNotice) []byte {
	t.Helper()
	var f runtime.StoreFrame
	f.Reset(fieldName, age)
	for _, sn := range notices {
		sn.Field, sn.Age = fieldName, age
		if err := f.Add(sn); err != nil {
			t.Fatal(err)
		}
	}
	return f.Bytes()
}

// TestStoreLogFinalState: the final state over the master's log decodes each
// generation from exactly the frames of its age, in arrival order, with the
// write-once rule of the run — strict without failover, merging duplicates
// with it.
func TestStoreLogFinalState(t *testing.T) {
	b := core.NewBuilder("log")
	b.Field("fi", field.Int32, 1, true)
	b.Field("fm", field.Int32, 2, true)
	b.Kernel("s").Local("v", field.Int32, 1).StoreAll("fi", core.AgeAt(0), "v").Body(func(*core.Ctx) error { return nil })
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	elems := func(at ...int) []runtime.StoreNotice {
		var out []runtime.StoreNotice
		for _, i := range at {
			out = append(out, cellNotice("", 0, field.Int32Val(int32(10+i)), i))
		}
		return out
	}
	row := func(r int, vals ...int32) runtime.StoreNotice {
		return runtime.StoreNotice{Sel: []field.SlabDim{{Fixed: true, Index: r}, {}}, Value: field.ArrayVal(field.ArrayFromInt32(vals))}
	}
	type logged struct {
		field string
		age   int
		frame []byte
	}
	rows01 := frameOf(t, "fm", 0, row(0, 1, 2, 3), row(1, 4, 5, 6))
	row2 := frameOf(t, "fm", 0, row(2, 7, 8, 9))
	partial := frameOf(t, "fi", 1, elems(0, 2, 4)...)
	for _, tc := range []struct {
		name    string
		merge   bool
		log     []logged
		field   string
		want    []int32 // flat, with the extents below
		extents []int
		wantErr string // a substring of the error; empty when none is expected
	}{
		{
			name: "generation across frames",
			log: []logged{
				{"fm", 0, rows01},
				{"fm", 1, frameOf(t, "fm", 1, row(0, 99))}, // another age: not part of fm(0)
				{"fm", 0, row2},
			},
			field: "fm", want: []int32{1, 2, 3, 4, 5, 6, 7, 8, 9}, extents: []int{3, 3},
		},
		{
			name:  "partly written generation",
			log:   []logged{{"fi", 1, partial}},
			field: "fi", want: []int32{10, 0, 12, 0, 14}, extents: []int{5},
		},
		{
			// The unwritten positions of the partial frame stay unwritten:
			// without failover, a later frame may still write them once.
			name:  "partly written generation completed later",
			log:   []logged{{"fi", 1, partial}, {"fi", 1, frameOf(t, "fi", 1, elems(1, 3)...)}},
			field: "fi", want: []int32{10, 11, 12, 13, 14}, extents: []int{5},
		},
		{
			name:  "duplicate frames after a rebuild merge under failover",
			merge: true,
			log:   []logged{{"fm", 0, rows01}, {"fm", 0, row2}, {"fm", 0, rows01}, {"fm", 0, row2}},
			field: "fm", want: []int32{1, 2, 3, 4, 5, 6, 7, 8, 9}, extents: []int{3, 3},
		},
		{
			name:    "cross-node double write without failover",
			log:     []logged{{"fi", 1, partial}, {"fi", 1, frameOf(t, "fi", 1, elems(2)...)}},
			field:   "fi",
			wantErr: "fi(1)",
		},
		{
			name:    "unknown field",
			field:   "zzz",
			wantErr: `unknown field "zzz"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newStoreLog(prog, tc.merge)
			for _, e := range tc.log {
				if err := l.add(e.field, e.age, e.frame); err != nil {
					t.Fatal(err)
				}
			}
			age := 0
			if tc.field == "fi" {
				age = 1
			}
			got, err := l.Snapshot(tc.field, age)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Snapshot error = %v, want one naming %s", err, tc.wantErr)
				}
				if tc.field != "zzz" && !errors.Is(err, field.ErrWriteTwice) {
					t.Fatalf("Snapshot error = %v, want field.ErrWriteTwice", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Extents(), tc.extents) || !slices.Equal(got.Int32s(), tc.want) {
				t.Fatalf("Snapshot = %v %v, want %v %v", got.Extents(), got.Int32s(), tc.extents, tc.want)
			}
		})
	}

	l := newStoreLog(prog, false)
	if err := l.add("nope", 0, partial); err == nil {
		t.Error("the log took a frame of a field the program does not declare")
	}
	l.Release()
	if _, err := l.Snapshot("fi", 1); err == nil {
		t.Error("Snapshot after Release succeeded")
	}
}

// silenceOnFrame falls silent at the at-th store frame of one field: that
// send and every later one report success and go nowhere, as from a
// partitioned node. It keeps the entry count of the last frame of the field
// that went through.
type silenceOnFrame struct {
	Conn
	field   string
	at      int
	mu      sync.Mutex
	sent    int
	silent  bool
	entries int
}

func (c *silenceOnFrame) Send(m *Msg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.silent {
		return nil
	}
	return c.Conn.Send(m)
}

func (c *silenceOnFrame) SendFrame(m *Msg, segs net.Buffers) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Field == c.field && !c.silent {
		if c.sent++; c.sent == c.at {
			c.silent = true
		} else {
			c.entries = 0
			runtime.DecodeStoreFrame(bytes.Join(segs, nil), func(runtime.StoreNotice) error {
				c.entries++
				return nil
			})
		}
	}
	if c.silent {
		return nil
	}
	return c.Conn.SendFrame(m, segs)
}

// TestFailoverMidGenerationDeath: the only worker falls silent while a
// generation of element stores is half sent — the master's log holds one
// partial frame of it — and the liveness monitor hands its kernels to a
// standby. The standby gets that partial frame replayed, re-executes every
// kernel with merging stores, and the final state matches a single-node run
// bit for bit.
func TestFailoverMidGenerationDeath(t *testing.T) {
	const n, maxAge = 2048, 3 // 2048 element stores per generation: four frames
	prog := func() *core.Program {
		b := core.NewBuilder("midgen")
		b.Field("in", field.Int32, 1, true)
		b.Field("out", field.Int32, 1, true)
		b.Field("tot", field.Int64, 1, true)
		b.Kernel("src").Age("a").
			Local("v", field.Int32, 1).
			StoreAll("in", core.AgeVar(0), "v").
			Body(func(c *core.Ctx) error {
				v := c.Array("v")
				v.Grow(n)
				for i := range v.Int32s() {
					v.Int32s()[i] = int32(c.Age()*n + i)
				}
				return nil
			})
		b.Kernel("sq").Age("a").Index("x").
			Local("v", field.Int32, 0).
			Local("w", field.Int32, 0).
			Fetch("v", "in", core.AgeVar(0), core.Idx("x")).
			Store("out", core.AgeVar(0), []core.IndexSpec{core.Idx("x")}, "w").
			Body(func(c *core.Ctx) error {
				v := c.Int32("v")
				c.SetInt32("w", v*v+1)
				return nil
			})
		b.Kernel("total").Age("a").
			Local("all", field.Int32, 1).
			Local("s", field.Int64, 0).
			FetchAll("all", "out", core.AgeVar(0)).
			Store("tot", core.AgeVar(0), []core.IndexSpec{core.Lit(0)}, "s").
			Body(func(c *core.Ctx) error {
				var s int64
				for _, v := range c.Array("all").Int32s() {
					s += int64(v)
				}
				c.SetInt64("s", s)
				return nil
			})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref, err := runtime.NewNode(prog(), runtime.Options{Workers: 2, MaxAge: maxAge})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	var victim *silenceOnFrame
	r := cluster{
		master: MasterConfig{Failover: true},
		workers: []WorkerConfig{
			{NodeID: "w0", Cores: 2, Prog: prog(), MaxAge: maxAge},
			{NodeID: "spare", Cores: 2, Prog: prog(), MaxAge: maxAge, Standby: true},
		},
		wrap: func(i int, mc, wc Conn) (Conn, Conn) {
			if i == 0 {
				victim = &silenceOnFrame{Conn: wc, field: "out", at: 2}
				wc = victim
			}
			return mc, wc
		},
	}.run(t)
	if r.errs[1] != nil {
		t.Errorf("standby: %v", r.errs[1])
	}
	if r.err != nil {
		t.Fatalf("failover run failed: %v", r.err)
	}
	res := r.res
	if victim.entries == 0 || victim.entries >= n {
		t.Fatalf("the victim's last out frame held %d of %d entries; want a partial generation", victim.entries, n)
	}
	if len(res.DeadWorkers) != 1 || res.DeadWorkers[0] != "w0" || res.Replayed == 0 {
		t.Fatalf("DeadWorkers = %v, %d frames replayed; want w0 dead and a replay", res.DeadWorkers, res.Replayed)
	}
	for a := 0; a <= maxAge+1; a++ {
		for _, f := range []string{"in", "out", "tot"} {
			want, _ := ref.Snapshot(f, a)
			got, err := res.Shadow.Snapshot(f, a)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s(%d) differs from the single-node run's (extents %v, want %v)", f, a, got.Extents(), want.Extents())
			}
		}
	}
}
