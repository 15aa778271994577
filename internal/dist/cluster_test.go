package dist

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/workloads"
)

// cluster is one in-process run of RunMaster over real RunWorker nodes, the
// shape of every cluster test and benchmark in this package that does not
// script one side by hand.
type cluster struct {
	master  MasterConfig   // Prog defaults to the first worker's
	workers []WorkerConfig // one per node, standbys included
	// wrap, when set, sees node i's master-side and worker-side ends before
	// either runs and returns the ones to use instead (a FaultConn, an
	// observer); it may also speak on them first.
	wrap func(i int, mc, wc Conn) (Conn, Conn)
	// listen has the workers dial one listener at once, as deployed nodes
	// do, and the master take the connections in accept order: the master
	// end wrap sees with worker i is the i-th accepted, whoever dialled it.
	// Otherwise each worker gets a loopback pipe of its own.
	listen bool
}

// clusterRun is the outcome of a run: the master's, and each worker's by
// node index.
type clusterRun struct {
	res     *MasterResult
	err     error
	reports []*runtime.Report
	errs    []error
}

// clusterDeadline bounds a whole run, every worker's return included.
const clusterDeadline = time.Minute

// run executes the cluster; one that does not finish within clusterDeadline
// fails the test. Once the master has returned, the worker ends wrap
// replaced are closed, which releases a worker a fault left blocked.
func (c cluster) run(tb testing.TB) clusterRun {
	tb.Helper()
	mcs, wcs := c.connect(tb)
	r := clusterRun{reports: make([]*runtime.Report, len(wcs)), errs: make([]error, len(wcs))}
	var wrapped []Conn
	var wg sync.WaitGroup
	for i, cfg := range c.workers {
		if c.wrap != nil {
			mc, wc := c.wrap(i, mcs[i], wcs[i])
			if wc != wcs[i] {
				wrapped = append(wrapped, wc)
			}
			mcs[i], wcs[i] = mc, wc
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.reports[i], r.errs[i] = RunWorker(cfg, wcs[i])
		}()
	}
	if c.master.Prog == nil {
		c.master.Prog = c.workers[0].Prog
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.res, r.err = RunMaster(c.master, mcs)
		for _, wc := range wrapped {
			wc.Close()
		}
		wg.Wait()
	}()
	select {
	case <-done:
		return r
	case <-time.After(clusterDeadline):
		tb.Fatalf("cluster did not finish within %v", clusterDeadline)
		return r
	}
}

// mustRun runs a cluster that must finish cleanly: a master or worker error
// fails the test.
func (c cluster) mustRun(tb testing.TB) *MasterResult {
	tb.Helper()
	r := c.run(tb)
	for i, err := range r.errs {
		if err != nil {
			tb.Fatalf("%s: %v", c.workers[i].NodeID, err)
		}
	}
	if r.err != nil {
		tb.Fatal(r.err)
	}
	return r.res
}

// connect makes every worker's connection to the master, each end closed
// when the test ends.
func (c cluster) connect(tb testing.TB) (mcs, wcs []Conn) {
	tb.Helper()
	n := len(c.workers)
	mcs, wcs = make([]Conn, n), make([]Conn, n)
	if !c.listen {
		for i := range mcs {
			mcs[i], wcs[i] = pipe(tb)
		}
		return mcs, wcs
	}
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	dialed := make(chan error, n)
	for i := range wcs {
		go func() {
			var err error
			wcs[i], err = DialTCP(l.Addr())
			dialed <- err
		}()
	}
	for i := range mcs {
		if mcs[i], err = l.Accept(); err != nil {
			tb.Fatal(err)
		}
	}
	for range wcs {
		if err := <-dialed; err != nil {
			tb.Fatal(err)
		}
	}
	ends := append(slices.Clone(mcs), wcs...)
	tb.Cleanup(func() {
		for _, e := range ends {
			e.Close()
		}
	})
	return mcs, wcs
}

// nodes returns n worker configurations from mk, each named w<i> unless mk
// names it.
func nodes(n int, mk func(i int) WorkerConfig) []WorkerConfig {
	cfgs := make([]WorkerConfig, n)
	for i := range cfgs {
		if cfgs[i] = mk(i); cfgs[i].NodeID == "" {
			cfgs[i].NodeID = fmt.Sprintf("w%d", i)
		}
	}
	return cfgs
}

// mulSumNodes returns one mul/sum worker configuration per id, with the given
// cores and MaxAge; the one named "spare" is a standby.
func mulSumNodes(cores, maxAge int, ids ...string) []WorkerConfig {
	cfgs := make([]WorkerConfig, len(ids))
	for i, id := range ids {
		cfgs[i] = WorkerConfig{NodeID: id, Cores: cores, Prog: workloads.MulSum(), MaxAge: maxAge, Standby: id == "spare"}
	}
	return cfgs
}

// workerFault is a cluster hook that puts node's own end of its connection
// behind plan.
func workerFault(node int, plan FaultPlan) func(int, Conn, Conn) (Conn, Conn) {
	return func(i int, mc, wc Conn) (Conn, Conn) {
		if i == node {
			wc = NewFaultConn(wc, plan)
		}
		return mc, wc
	}
}

// observe is a cluster hook that hands fn every message the master receives,
// with the index of the node that sent it, before the master sees it.
func observe(fn func(node int, m *Msg)) func(int, Conn, Conn) (Conn, Conn) {
	return func(i int, mc, wc Conn) (Conn, Conn) {
		return observedConn{mc, func(m *Msg) { fn(i, m) }}, wc
	}
}

// countWire extends c's hook to keep every master end, and returns the bytes
// they carried both ways, to be read once the run is over.
func countWire(c *cluster) func() int64 {
	var ends []Conn
	wrap := c.wrap
	c.wrap = func(i int, mc, wc Conn) (Conn, Conn) {
		if wrap != nil {
			mc, wc = wrap(i, mc, wc)
		}
		ends = append(ends, mc)
		return mc, wc
	}
	return func() (n int64) {
		for _, e := range ends {
			st := e.Stats()
			n += st.SentBytes + st.RecvBytes
		}
		return n
	}
}

type observedConn struct {
	Conn
	observe func(*Msg)
}

func (c observedConn) Recv() (*Msg, error) {
	m, err := c.Conn.Recv()
	if err == nil {
		c.observe(m)
	}
	return m, err
}

// Fault injection for the failover and liveness tests: FaultConn wraps a Conn
// and misbehaves on schedule — severing, wedging, dropping or delaying at the
// Nth message — so tests can kill a worker mid-run or simulate a half-open
// connection deterministically. Counters are atomic and the delay jitter is
// seeded, so runs are reproducible under -race.

// FaultPlan schedules the misbehavior of one FaultConn. Message counts are
// 1-based and independent per direction; zero disables that fault.
type FaultPlan struct {
	// SeverSendAt closes the underlying connection instead of performing the
	// Nth send — the abrupt process-death case: the peer sees EOF/RST.
	SeverSendAt int64
	// WedgeSendAt blocks the Nth and later sends until the conn is closed —
	// the half-open case seen from a sender.
	WedgeSendAt int64
	// WedgeRecvAt blocks the Nth and later receives until the conn is
	// closed — the half-open case: the peer is gone but no RST ever arrives,
	// so nothing is ever delivered and nothing errors.
	WedgeRecvAt int64
	// DropSendFrom silently discards the Nth and later sends (they report
	// success). The peer keeps its half of the connection open but hears
	// nothing more — the silent-partition case liveness must catch.
	DropSendFrom int64
	// Delay sleeps up to this duration (seeded-random jitter) before every
	// DelayEvery-th message in either direction.
	Delay      time.Duration
	DelayEvery int64
}

// FaultConn wraps a Conn with scheduled faults (SendFrame counts as one send
// against the plan).
type FaultConn struct {
	under Conn
	plan  FaultPlan

	sends atomic.Int64
	recvs atomic.Int64

	mu     sync.Mutex
	rng    *rand.Rand
	closed chan struct{}
	once   sync.Once
}

// NewFaultConn wraps c with the given fault plan.
func NewFaultConn(c Conn, plan FaultPlan) *FaultConn {
	return &FaultConn{
		under:  c,
		plan:   plan,
		rng:    rand.New(rand.NewSource(1)),
		closed: make(chan struct{}),
	}
}

func (c *FaultConn) maybeDelay(n int64) {
	if c.plan.Delay <= 0 || c.plan.DelayEvery <= 0 || n%c.plan.DelayEvery != 0 {
		return
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(c.plan.Delay) + 1))
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// wedge blocks until the conn is closed, then reports the closure.
func (c *FaultConn) wedge(op string) error {
	<-c.closed
	return fmt.Errorf("dist: fault-injected wedge on %s released by close", op)
}

func (c *FaultConn) checkSend() (drop bool, err error) {
	n := c.sends.Add(1)
	if c.plan.SeverSendAt > 0 && n >= c.plan.SeverSendAt {
		c.Close()
		return false, fmt.Errorf("dist: fault-injected sever at send %d", n)
	}
	if c.plan.WedgeSendAt > 0 && n >= c.plan.WedgeSendAt {
		return false, c.wedge("send")
	}
	c.maybeDelay(n)
	if c.plan.DropSendFrom > 0 && n >= c.plan.DropSendFrom {
		return true, nil
	}
	return false, nil
}

func (c *FaultConn) Send(m *Msg) error {
	drop, err := c.checkSend()
	if err != nil || drop {
		return err
	}
	return c.under.Send(m)
}

func (c *FaultConn) SendFrame(m *Msg, segs net.Buffers) error {
	drop, err := c.checkSend()
	if err != nil || drop {
		return err
	}
	return c.under.SendFrame(m, segs)
}

func (c *FaultConn) Recv() (*Msg, error) {
	n := c.recvs.Add(1)
	if c.plan.WedgeRecvAt > 0 && n >= c.plan.WedgeRecvAt {
		return nil, c.wedge("recv")
	}
	c.maybeDelay(n)
	return c.under.Recv()
}

func (c *FaultConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.under.Close()
}

func (c *FaultConn) SetIdleTimeout(d time.Duration) { c.under.SetIdleTimeout(d) }

func (c *FaultConn) Recycle(frame []byte) { c.under.Recycle(frame) }

func (c *FaultConn) Stats() ConnStats { return c.under.Stats() }
