//go:build !race

package dist

import (
	"net"
	goruntime "runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/runtime"
)

const raceEnabled = false

// TestStoreBatcherAddAllocs: adding a row notice to the batcher allocates
// nothing, amortized — the frame copies the borrowed row into its pooled
// buffer, and only each emitted frame's envelope costs an allocation. A flush
// every 512 rows stands for the kernel-age completions that flush a worker's
// batcher.
func TestStoreBatcherAddAllocs(t *testing.T) {
	const rows = 512
	frames := 0
	b := newStoreBatcher(func(_ *Msg, f *runtime.StoreFrame) {
		frames++
		runtime.PutStoreFrame(f)
	}, nil, "test", nil)
	row := field.NewArray(field.Uint8, 64)
	sel := []field.SlabDim{{Fixed: true}, {}}
	sn := runtime.StoreNotice{Field: "yInput", Sel: sel, Value: field.ArrayVal(row)}
	next := 0
	avg := testing.AllocsPerRun(4*rows, func() {
		sel[0].Index = next % rows
		sn.Age = next / rows
		next++
		if err := b.add(sn); err != nil {
			t.Fatal(err)
		}
		if next%rows == 0 {
			b.flushAll(nil)
		}
	})
	if avg != 0 {
		t.Errorf("storeBatcher.add of a row: %.1f allocs/op, want 0", avg)
	}
	if frames < 4 {
		t.Errorf("%d frames emitted over %d rows, want at least 4", frames, 4*rows)
	}
}

// TestTCPHotMsgAllocs: a hot message costs its receiver the *Msg and, for a
// store frame, the frame's bytes — the envelope is written from the
// connection's scratch, and a name seen before is interned, not allocated.
// Both ends arm the liveness deadline, as a worker's does from MStart on:
// the deadline on every Send and Recv costs nothing more.
func TestTCPHotMsgAllocs(t *testing.T) {
	cli, srv := pipe(t)
	cli.SetIdleTimeout(defaultLiveness)
	srv.SetIdleTimeout(defaultLiveness)
	frame := make([]byte, 4096)
	for _, tc := range []struct {
		m    *Msg
		want float64
	}{
		{&Msg{Kind: MDone, Kernel: "yDCT", Age: 7, Share: 1, SentNs: 1}, 1},
		{&Msg{Kind: MStatus, Idle: true, Sent: 9, Received: 8}, 1},
		{&Msg{Kind: MStoreFrame, Field: "yResult", Age: 7, Trace: 3, Frame: frame}, 2},
	} {
		avg := testing.AllocsPerRun(200, func() {
			if err := cli.Send(tc.m); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Recv(); err != nil {
				t.Fatal(err)
			}
		})
		if avg > tc.want {
			t.Errorf("%v: %.1f allocs per Send and Recv, want %v", tc.m.Kind, avg, tc.want)
		}
	}
}

// TestWorkerFrameInjectAllocs: a worker injects a whole-generation store
// frame — a CIF luma plane, as MJPEG's yInput crosses the wire — and hands
// the frame back to its connection, which reads the next frame into it; the
// frame's cells go from those bytes straight into the generation's slab.
// Warm, a frame costs the receiver no receive buffer and no scratch array:
// what it allocates is the new generation (its cells and written flags, as
// nothing drops generations here) and small change.
func TestWorkerFrameInjectAllocs(t *testing.T) {
	const blocks, frames = 1584, 12
	b := core.NewBuilder("inject")
	b.Field("yInput", field.Uint8, 2, true)
	b.Kernel("src").Age("a").Local("y", field.Uint8, 2).StoreAll("yInput", core.AgeVar(0), "y")
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n, err := runtime.NewNode(prog, runtime.Options{Workers: 1, RemoteKernels: map[string]bool{"src": true}, NoAutoQuiesce: true})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = n.Run()
	}()
	defer func() {
		n.Stop()
		<-done
		n.Release()
	}()
	cli, srv := pipe(t)
	sent := make(chan error, 1)
	go func() {
		plane := field.NewArray(field.Uint8, blocks, 64)
		var f runtime.StoreFrame
		for age := 0; age <= frames; age++ {
			f.Reset("yInput", age)
			if err := f.Add(runtime.StoreNotice{Field: "yInput", Age: age, Whole: true, Value: field.ArrayVal(plane)}); err != nil {
				sent <- err
				return
			}
			if err := cli.SendFrame(&Msg{Kind: MStoreFrame, Field: "yInput", Age: age}, net.Buffers{f.Bytes()}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	inject := func() {
		m, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := n.InjectStoreFrame(m.Frame); err != nil {
			t.Fatal(err)
		}
		srv.Recycle(m.Frame)
	}
	inject() // warm: the receive buffer, the interned names
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range frames {
		inject()
	}
	goruntime.ReadMemStats(&after)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	gen := uint64(2 * blocks * 64)
	if perFrame := (after.TotalAlloc - before.TotalAlloc) / frames; perFrame > gen+gen/4 {
		t.Errorf("injecting a %d-byte generation allocated %d bytes per frame, want at most %d: the generation and no frame-sized buffer",
			blocks*64, perFrame, gen+gen/4)
	}
	got, err := n.Snapshot("yInput", frames)
	if err != nil || got.Extent(0) != blocks || got.Extent(1) != 64 {
		t.Fatalf("generation %d: %v (%v)", frames, got, err)
	}
}
