#!/bin/sh
# Retired-identifier check (`make retired`, also run by ci.sh): fails when a
# name that a simplification deleted reappears, as a whole word, in the
# non-test Go outside bench/ (the files `make loc` counts). Comments count
# too: a deleted engine should not survive as a description of itself.
#
#   readyQueue         an earlier global ready queue, replaced by per-worker
#                      stealing deques, which the one age-ordered sliceQueue
#                      replaced in turn
#   SchedulerKind      the option that selected between schedulers
#   BackendClosure     the closure kernel backend (bytecode is the one backend)
#   MReassign          the failover message (recovery uses MAssign + MStart)
#   pushbackConn       the transport's pushback wrapper
#   SplitWireArray     the segmented wire array
#   FetchViewSlice     the view-fetch spelling of a slab fetch
#   anShard ctlMsg shardMaskForStore shardRoute injectEnsure
#                      the sharded dependency analyzer (one analyzer now)
#   startShadow shadowDone EncodeGenerationFrame FieldAges
#                      the master's shadow node and its replay encoder (the
#                      master logs the frames it brokers instead)
#   CollectTraces      the master option (a Tracer collects worker spans)
#   Repartition        the unused feedback-loop helper (ApplyInstrumentation
#                      plus Partition)
#   instPool           the sync.Pool of instance states (the analyzer owns a
#                      free list; range trackers need none)
#   instState needsInstMap coordKey instBlock burstStamp newInst markReady
#   setBit burstMask instWaiting instDone
#                      the per-instance tracker, its coordinate map key, its
#                      free-list blocks, its per-instance satisfaction and the
#                      range tracker's burst stamps (one tracker kind: cells
#                      as runs, element fetches satisfied per burst or per
#                      cell)
#   stealScheduler workerDeque publishMin popOldest emptyAge MStealsTotal
#   MWorkerQueueDepth  the per-worker stealing deques, their age epoch and
#                      their steal counter and per-worker depth gauges (one
#                      ready queue under one lock)
#   scanSatisfy        the analyzer's re-check of element fetches against
#                      field contents after a whole or slab store (sweep does
#                      it)
#   StoreElems frameModeElem frameModeSlab satisfyElem satCoords satConstr
#                      the element-store kind: the field's batch of single
#                      elements, the store frame's element entry (and the slab
#                      mode's old name), the analyzer's per-element
#                      satisfaction and its scratch (one store kind, a box)
#   newSlab0 fetchView a second slab constructor and the selector view fetch
#                      behind FetchViewAll, both folded into their one caller
#   observeCost costNs sliceTargetNs costSmoothing probed
#                      the cost-driven slice size, its estimate and its probe
#                      slices (every kernel-age is cut by its tail limit)
#   cutRun boxImage stageBoxes
#                      the element-store box cutter, its test for terms that
#                      map a box in cell order and the flush-time box builder
#                      (a slice's stores merge into boxes as they are staged)
#   tabuSearch Tabu    the tabu-search partitioner and its method (one method:
#                      a greedy seed refined Kernighan–Lin style)
#   frameFlushBytes frameFlushEntries
#                      the store batcher's size thresholds (a generation
#                      leaves as one frame at each flush)
#   inprocConn InprocPipe
#                      the in-process channel transport (every cluster runs on
#                      TCP, in one process through LoopbackPipe)
#   FaultConn FaultPlan NewFaultConn
#                      fault injection, a test-only wrapper that shipped in the
#                      package (it lives beside internal/dist's test harness)
#   PollInterval       the master option only a test set (the tick is a 2 ms
#                      constant, and a ping overtakes one message at a time)
#   Heartbeat MaxMissed liveTimeout IdleTimeout HeartbeatMs
#                      the master's heartbeat interval and missed-heartbeat
#                      count, their product, the master's and the worker's
#                      idle-timeout options and the /statusz field (one
#                      liveness window, MasterConfig.Liveness, carried to
#                      the workers by MStart; Conn.SetIdleTimeout stays)
#   appendEnvelope readEnvelope hotKinds gobTag maxGobLen gobBytes
#                      the transport's two codecs: the binary envelope of
#                      the per-age kinds, the gob stream of the rest and the
#                      switch between them (one codec, codec.msg)
#   MTraceReq MTrace   the trace pull at shutdown (the stop sets TraceOn, the
#                      report carries the spans)
#   connStats          the traffic counters' own type (folded into tcpConn)
#   RegisterPayload anyBox wireReader frameCursor frameModeBox errFrameMode
#   DecodeWireValueInto frameMaxRank
#                      Go objects in gob inside Any values, the wire value's
#                      and the store frame's own decode cursors, the frame
#                      entry's mode byte and its refusal, the scratch-array
#                      decode entry point and the frame's rank bound (one
#                      codec, field.Codec; workloads.RegisterPayloads stays,
#                      a no-op, because the benchmark ledger calls it)
#   ResetRow ClearRows slabVals slabBound slabInited rowCoords minLockstepInsts
#                      the context's slab of boxed rows, one per instance of a
#                      slice body, and the runtime's own shortest lockstep
#                      slice (a slice body's lanes are typed columns,
#                      Ctx.Lanes; SliceMin alone decides)
set -eu
cd "$(dirname "$0")/.."
names='readyQueue SchedulerKind BackendClosure MReassign pushbackConn SplitWireArray FetchViewSlice anShard ctlMsg shardMaskForStore shardRoute injectEnsure startShadow shadowDone EncodeGenerationFrame FieldAges CollectTraces Repartition instPool instState needsInstMap coordKey instBlock burstStamp newInst markReady setBit burstMask instWaiting instDone stealScheduler workerDeque publishMin popOldest emptyAge MStealsTotal MWorkerQueueDepth scanSatisfy StoreElems frameModeElem frameModeSlab satisfyElem satCoords satConstr newSlab0 fetchView observeCost costNs sliceTargetNs costSmoothing probed cutRun boxImage stageBoxes tabuSearch Tabu frameFlushBytes frameFlushEntries inprocConn InprocPipe FaultConn FaultPlan NewFaultConn PollInterval Heartbeat MaxMissed liveTimeout IdleTimeout HeartbeatMs appendEnvelope readEnvelope hotKinds gobTag maxGobLen gobBytes MTraceReq MTrace connStats RegisterPayload anyBox wireReader frameCursor frameModeBox errFrameMode DecodeWireValueInto frameMaxRank ResetRow ClearRows slabVals slabBound slabInited rowCoords minLockstepInsts'
pattern=$(printf '%s\n' $names | paste -sd '|' -)
found=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
	-exec grep -HnwE "$pattern" {} + || true)
if [ -n "$found" ]; then
	echo "retired identifiers are back:" >&2
	echo "$found" >&2
	exit 1
fi
