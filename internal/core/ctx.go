package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/deadline"
	"repro/internal/field"
)

// Ctx is the execution context of one kernel instance. The runtime populates
// it with the instance's age, index-variable bindings and fetched locals,
// runs the kernel body, and then applies the declared stores for every local
// the body left bound.
//
// Binding rules (what makes a declared store fire):
//   - a local fetched by a fetch statement is bound;
//   - a scalar local becomes bound when the body calls Set (or a typed
//     setter);
//   - an array local becomes bound the first time the body accesses it with
//     Array (mutating a local array implies producing it).
//
// Leaving a store's source local unbound suppresses that store, which is how
// kernels take alternate code paths (deadline timeouts, end of stream).
//
// A Ctx is sized once for its kernel and can be reused across instances via
// Reset, which is how the runtime's pooled dispatch path avoids per-instance
// allocation. Locals are kept in slices parallel to the kernel's Locals
// declaration; lookups by name are linear scans over the handful of locals a
// kernel declares, which beats map construction on the hot path.
//
// Lanes. A slice that runs its instances through the kernel's SliceBody
// keeps them in typed columns, one lane per instance (Lanes): per scalar
// local a column of its values — int64 for the integer kinds and bool,
// float64 for the float kinds — and one of bound flags, and per index
// variable a column of coordinates. The runtime gathers fetched elements into
// the columns and stages stores out of them, and the slice body reads and
// writes whole columns; no value is boxed per instance. Array locals are not
// per lane: every lane sees the context's one local, as Get returns it.
type Ctx struct {
	kernel *KernelDecl
	age    int
	// coords holds the instance's index-variable values in IndexVars order
	// (aliased from the scheduler's instance state, never mutated here).
	coords []int
	vals   []field.Value
	bound  []bool
	// inited marks locals whose default value exists; array locals are
	// materialized lazily so a fetched array never pays for a placeholder.
	inited []bool
	// The columns of the lanes (Lanes): lanes is their length, laneCap the
	// length they have room for. ints and floats hold, per local, its value
	// column if it is a scalar of that class (else nil); bounds holds its
	// bound flags, coordCols a column per index variable.
	lanes, laneCap int
	ints           [][]int64
	floats         [][]float64
	bounds         [][]bool
	coordCols      [][]int64
	// arrs caches one reusable Array per array local. The cache survives
	// Reset: each instance's array local is the same backing storage,
	// reshaped in place (default locals via ResetEmpty, fetch destinations
	// via SnapshotInto/FetchSlice). This is safe under the documented Ctx
	// contract — never retain values out of a context that will be reset —
	// and is what makes steady-state whole-field fetches allocation-free.
	arrs   []*field.Array
	stop   bool
	timers *deadline.TimerSet
	out    io.Writer
}

// NewReusableCtx allocates a context sized for kernel k. It is the runtime's
// pooled-dispatch constructor: call Reset before each instance, and never
// retain values out of a context that will be reset.
func NewReusableCtx(k *KernelDecl, timers *deadline.TimerSet, out io.Writer) *Ctx {
	n := len(k.Locals)
	return &Ctx{
		kernel: k,
		vals:   make([]field.Value, n),
		bound:  make([]bool, n),
		inited: make([]bool, n),
		arrs:   make([]*field.Array, n),
		timers: timers,
		out:    out,
	}
}

// Lanes prepares the columns for a slice of n instances: in every lane each
// scalar local is unbound and zero; the coordinate columns are left for the
// caller to fill. Growing keeps nothing.
func (c *Ctx) Lanes(n int) {
	if n > c.laneCap {
		c.growLanes(max(n, 2*c.laneCap))
	}
	c.lanes = n
	for li := range c.bounds {
		if c.ints[li] != nil {
			clear(c.ints[li][:n])
		} else if c.floats[li] != nil {
			clear(c.floats[li][:n])
		}
		clear(c.bounds[li][:n])
	}
}

// growLanes allocates columns of m lanes: one slab per element type, cut
// into a column per scalar local and index variable.
func (c *Ctx) growLanes(m int) {
	k := c.kernel
	nl := len(k.Locals)
	ni, nf := len(k.IndexVars), 0
	for _, l := range k.Locals {
		switch {
		case l.Rank > 0:
		case l.Kind.Float():
			nf++
		case l.Kind.Integer() || l.Kind == field.Bool:
			ni++
		}
	}
	ints, floats, flags := make([]int64, ni*m), make([]float64, nf*m), make([]bool, nl*m)
	c.ints, c.floats, c.bounds = make([][]int64, nl), make([][]float64, nl), make([][]bool, nl)
	c.coordCols = make([][]int64, len(k.IndexVars))
	for i := range c.coordCols {
		c.coordCols[i], ints = ints[:m:m], ints[m:]
	}
	for li, l := range k.Locals {
		c.bounds[li], flags = flags[:m:m], flags[m:]
		switch {
		case l.Rank > 0:
		case l.Kind.Float():
			c.floats[li], floats = floats[:m:m], floats[m:]
		case l.Kind.Integer() || l.Kind == field.Bool:
			c.ints[li], ints = ints[:m:m], ints[m:]
		}
	}
	c.laneCap = m
}

// IntCol returns the value column of the integer or bool scalar local at
// position i in the kernel's Locals declaration, one canonical payload per
// lane (as field.IntValOf takes it).
func (c *Ctx) IntCol(i int) []int64 { return c.ints[i][:c.lanes] }

// FloatCol returns the value column of the float scalar local at position i.
func (c *Ctx) FloatCol(i int) []float64 { return c.floats[i][:c.lanes] }

// BoundCol returns the per-lane bound flags of the scalar local at position i.
func (c *Ctx) BoundCol(i int) []bool { return c.bounds[i][:c.lanes] }

// CoordCol returns the column of the index variable at position i in
// IndexVars order.
func (c *Ctx) CoordCol(i int) []int64 { return c.coordCols[i][:c.lanes] }

// LaneValue returns lane l's value of the scalar local at position i, boxed
// with the local's kind: the by-lane counterpart of LocalValue.
func (c *Ctx) LaneValue(i, l int) field.Value {
	if k := c.kernel.Locals[i].Kind; k.Float() {
		return field.FloatValOf(k, c.floats[i][l])
	}
	return field.IntValOf(c.kernel.Locals[i].Kind, c.ints[i][l])
}

// SetLaneValue assigns lane l's value of the scalar local at position i,
// converted to the local's kind, and marks it bound in that lane.
func (c *Ctx) SetLaneValue(i, l int, v field.Value) {
	v = v.Convert(c.kernel.Locals[i].Kind)
	if v.Kind().Float() {
		c.floats[i][l] = v.Float64()
	} else {
		c.ints[i][l] = v.Int64()
	}
	c.bounds[i][l] = true
}

// Reset prepares the context for a new instance of the same kernel at the
// given age and index coordinates (in IndexVars order; the slice is aliased,
// not copied). Every local becomes unbound and its previous value is
// released, so a pooled Ctx cannot leak values across instances.
func (c *Ctx) Reset(age int, coords []int) {
	c.stop = false
	c.age, c.coords = age, coords
	for i := range c.vals {
		c.vals[i] = field.Value{}
		c.bound[i] = false
		c.inited[i] = false
	}
}

// NewCtx assembles a context for one instance from an index-variable map.
// The runtime's hot path uses NewReusableCtx/Reset instead; this constructor
// remains for program transforms (Fuse) and for tests and alternative
// runtimes that drive kernel bodies directly.
func NewCtx(k *KernelDecl, age int, index map[string]int, timers *deadline.TimerSet, out io.Writer) *Ctx {
	c := NewReusableCtx(k, timers, out)
	var coords []int
	if len(k.IndexVars) > 0 {
		coords = make([]int, len(k.IndexVars))
		for i, v := range k.IndexVars {
			coords[i] = index[v]
		}
	}
	c.Reset(age, coords)
	return c
}

// localIndex returns the position of the named local in the kernel's Locals
// declaration, or -1.
func (c *Ctx) localIndex(name string) int { return c.kernel.LocalIndex(name) }

// Kernel returns the kernel declaration this instance executes.
func (c *Ctx) Kernel() *KernelDecl { return c.kernel }

// Age returns the instance's age (0 for run-once kernels).
func (c *Ctx) Age() int { return c.age }

// Index returns the value of the named index variable. It panics on unknown
// variables, which indicates a program bug.
func (c *Ctx) Index(name string) int {
	for i, v := range c.kernel.IndexVars {
		if v == name {
			if i < len(c.coords) {
				return c.coords[i]
			}
			return 0
		}
	}
	panic(fmt.Sprintf("p2g: kernel %s has no index variable %q", c.kernel.Name, name))
}

// Get returns the named local's current value. Unknown locals panic.
func (c *Ctx) Get(name string) field.Value {
	i := c.localIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("p2g: kernel %s has no local %q", c.kernel.Name, name))
	}
	return c.get(i)
}

// get returns the local at position i, materializing its default (zero
// scalar or empty array) on first access. Array defaults reuse the context's
// cached backing storage.
func (c *Ctx) get(i int) field.Value {
	if !c.inited[i] {
		l := &c.kernel.Locals[i]
		if l.Rank > 0 {
			a := c.arrs[i]
			if a == nil {
				a = field.NewArray(l.Kind, make([]int, l.Rank)...)
				c.arrs[i] = a
			} else {
				a.ResetEmpty(l.Kind, l.Rank)
			}
			c.vals[i] = field.ArrayVal(a)
		} else {
			c.vals[i] = field.Zero(l.Kind)
		}
		c.inited[i] = true
	}
	return c.vals[i]
}

// LocalValue returns the local at position i in the kernel's Locals
// declaration, materializing its default like Get, without binding it. It is
// the by-index read hook for compiled kernel bodies (the lang bytecode VM),
// which resolve locals to positions at compile time and skip the name scan.
func (c *Ctx) LocalValue(i int) field.Value { return c.get(i) }

// SetLocalValue assigns the local at position i and marks it bound — the
// by-index counterpart of Set for compiled kernel bodies.
func (c *Ctx) SetLocalValue(i int, v field.Value) {
	c.vals[i] = v
	c.inited[i] = true
	c.bound[i] = true
}

// LocalArray returns the array local at position i and marks it bound — the
// by-index counterpart of Array for compiled kernel bodies.
func (c *Ctx) LocalArray(i int) *field.Array {
	if !c.inited[i] {
		c.get(i)
	}
	a := c.vals[i].Array() // read in place: a Value is 64 bytes
	if a == nil {
		panic(fmt.Sprintf("p2g: local %q of kernel %s is not an array", c.kernel.Locals[i].Name, c.kernel.Name))
	}
	c.bound[i] = true
	return a
}

// Coord returns the index-variable value at position i in IndexVars order,
// or 0 when the runtime bound fewer coordinates — the by-index counterpart of
// Index for compiled kernel bodies.
func (c *Ctx) Coord(i int) int {
	if i < len(c.coords) {
		return c.coords[i]
	}
	return 0
}

// Set assigns the named local and marks it bound.
func (c *Ctx) Set(name string, v field.Value) {
	i := c.localIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("p2g: kernel %s has no local %q", c.kernel.Name, name))
	}
	c.vals[i] = v
	c.inited[i] = true
	c.bound[i] = true
}

// BindFetched is used by the runtime to install a fetched value; it binds the
// local like Set.
func (c *Ctx) BindFetched(name string, v field.Value) { c.Set(name, v) }

// FetchDest returns the reusable destination array for the named array local
// without initializing or binding it. The runtime fills it in place
// (SnapshotInto/FetchSlice overwrite kind, extents and contents) and then
// installs it with BindFetched, so steady-state whole-field and slab fetches
// reuse the same backing storage across instances.
func (c *Ctx) FetchDest(name string) *field.Array {
	i := c.localIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("p2g: kernel %s has no local %q", c.kernel.Name, name))
	}
	return c.FetchDestAt(i)
}

// FetchDestAt is FetchDest for the local at position i in the kernel's Locals
// declaration — the by-index form the runtime's dispatch plans use.
func (c *Ctx) FetchDestAt(i int) *field.Array {
	a := c.arrs[i]
	if a == nil {
		l := &c.kernel.Locals[i]
		rank := l.Rank
		if rank < 1 {
			rank = 1
		}
		a = field.NewArray(l.Kind, make([]int, rank)...)
		c.arrs[i] = a
	}
	return a
}

// Bound reports whether the named local has been bound in this instance.
func (c *Ctx) Bound(name string) bool {
	i := c.localIndex(name)
	return i >= 0 && c.bound[i]
}

// BoundAt reports whether the local at position i has been bound in this
// instance — the by-index counterpart of Bound.
func (c *Ctx) BoundAt(i int) bool { return c.bound[i] }

// Int32 returns the named scalar local as int32.
func (c *Ctx) Int32(name string) int32 { return c.Get(name).Int32() }

// Int64 returns the named scalar local as int64.
func (c *Ctx) Int64(name string) int64 { return c.Get(name).Int64() }

// Float64 returns the named scalar local as float64.
func (c *Ctx) Float64(name string) float64 { return c.Get(name).Float64() }

// Obj returns the named Any local's payload.
func (c *Ctx) Obj(name string) any { return c.Get(name).Obj() }

// SetInt32 assigns an int32 scalar local.
func (c *Ctx) SetInt32(name string, v int32) { c.Set(name, field.Int32Val(v)) }

// SetInt64 assigns an int64 scalar local.
func (c *Ctx) SetInt64(name string, v int64) { c.Set(name, field.Int64Val(v)) }

// SetFloat64 assigns a float64 scalar local.
func (c *Ctx) SetFloat64(name string, v float64) { c.Set(name, field.Float64Val(v)) }

// SetObj assigns an Any scalar local.
func (c *Ctx) SetObj(name string, v any) { c.Set(name, field.AnyVal(v)) }

// Array returns the named array local for reading or in-place mutation and
// marks it bound (mutating a local array implies producing it).
func (c *Ctx) Array(name string) *field.Array {
	i := c.localIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("p2g: kernel %s has no local %q", c.kernel.Name, name))
	}
	return c.LocalArray(i)
}

// Stop marks a source kernel as finished: no instance will be scheduled for
// the next age. Calling Stop from non-source kernels is allowed and ignored
// by the runtime.
func (c *Ctx) Stop() { c.stop = true }

// Stopped reports whether the body called Stop.
func (c *Ctx) Stopped() bool { return c.stop }

// Printf writes formatted output to the program's output stream (the kernel
// language's cout). Instances run in parallel; each Printf call is a single
// Write, so lines from different instances interleave but do not tear.
func (c *Ctx) Printf(format string, args ...any) {
	if c.out != nil {
		fmt.Fprintf(c.out, format, args...)
	}
}

// Now returns the current instant on the program's deadline clock.
func (c *Ctx) Now() time.Time {
	if c.timers == nil {
		return time.Now()
	}
	return c.timers.Now()
}

// ResetTimer records the current instant as the named global timer's
// reference point (`t1 = now`).
func (c *Ctx) ResetTimer(name string) {
	if c.timers != nil {
		c.timers.Reset(name)
	}
}

// Expired reports whether more than d has passed since the named timer's
// reference point (`now > t1 + d`). It returns false with an error for
// undeclared timers.
func (c *Ctx) Expired(name string, d time.Duration) (bool, error) {
	if c.timers == nil {
		return false, fmt.Errorf("p2g: program has no timers")
	}
	return c.timers.Expired(name, d)
}

// Timers exposes the underlying timer set (nil if the program declared no
// timers and the runtime did not install one).
func (c *Ctx) Timers() *deadline.TimerSet { return c.timers }
