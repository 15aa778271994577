//go:build !race

package dist

import (
	"testing"

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
