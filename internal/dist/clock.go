package dist

import (
	"fmt"
	"time"
)

// clockProbes is the number of echo exchanges per worker during the
// handshake; the probe with the smallest round trip gives the least-skewed
// offset estimate.
const clockProbes = 5

// estimateClockOffset measures a worker's clock offset relative to the local
// (master) clock, Cristian-style: send a stamped probe, let the worker echo
// its own clock reading, and assume the echo was taken halfway through the
// round trip. The estimate from the smallest-RTT probe wins — queueing delay
// only ever inflates the RTT, so the fastest exchange is the most symmetric.
// Returns the offset in nanoseconds (worker clock minus master clock).
//
// Runs during the handshake, between registration and assignment, while the
// connection is otherwise silent. Loopback RTTs are tens of microseconds, so
// the estimate aligns node timelines to well under a typical span duration;
// it is a visualization aid, not a distributed-clock guarantee.
func estimateClockOffset(c Conn, probes int) (int64, error) {
	var best int64
	bestRTT := int64(-1)
	for i := 0; i < probes; i++ {
		t0 := time.Now().UnixNano()
		if err := c.Send(&Msg{Kind: MClockProbe, SentNs: t0}); err != nil {
			return 0, fmt.Errorf("dist: clock probe: %w", err)
		}
		m, err := c.Recv()
		t1 := time.Now().UnixNano()
		if err != nil {
			return 0, fmt.Errorf("dist: clock echo: %w", err)
		}
		if m.Kind != MClockEcho || m.SentNs != t0 {
			return 0, fmt.Errorf("dist: clock sync: unexpected %v", m.Kind)
		}
		rtt := t1 - t0
		if bestRTT < 0 || rtt < bestRTT {
			bestRTT = rtt
			best = m.NodeNs - (t0 + rtt/2)
		}
	}
	return best, nil
}
