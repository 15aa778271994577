package dist

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/runtime"
)

// StoreLog is the master's record of a run's data: every store frame it
// brokered, per field in arrival order, kept as the transport delivered it —
// both transports hand over a fresh slice per message that nothing writes
// afterwards, so the log copies nothing and decodes nothing. Recovery replays
// a rebuilt worker from it, and MasterResult.Shadow exposes it as the run's
// final state, decoded one generation at a time by Snapshot.
type StoreLog struct {
	prog *core.Program
	// merge mirrors MasterConfig.Failover: a rebuilt worker re-executes its
	// kernels, so its stores reach the log a second time.
	merge  bool
	frames map[string][]loggedFrame
}

// loggedFrame is one brokered store frame and the age its envelope names.
type loggedFrame struct {
	age   int
	frame []byte
}

func newStoreLog(prog *core.Program, merge bool) *StoreLog {
	l := &StoreLog{prog: prog, merge: merge, frames: make(map[string][]loggedFrame, len(prog.Fields))}
	for _, f := range prog.Fields {
		l.frames[f.Name] = nil
	}
	return l
}

// add logs one brokered frame of field at age.
func (l *StoreLog) add(fieldName string, age int, frame []byte) error {
	frames, ok := l.frames[fieldName]
	if !ok {
		return fmt.Errorf("dist: store frame to unknown field %q", fieldName)
	}
	l.frames[fieldName] = append(frames, loggedFrame{age, frame})
	return nil
}

// Snapshot decodes one field generation from the log: its frames, applied in
// arrival order to a fresh replica of the field, exactly as a worker applies
// them. Stores are write-once — a position written twice fails with
// field.ErrWriteTwice naming the field and age — unless the run used
// failover, where a duplicate is skipped. Positions no frame wrote stay
// unwritten (zero in the copy); an age with no frames is an empty array.
func (l *StoreLog) Snapshot(fieldName string, age int) (*field.Array, error) {
	frames, ok := l.frames[fieldName]
	if !ok {
		return nil, fmt.Errorf("dist: unknown field %q", fieldName)
	}
	fd := l.prog.Field(fieldName)
	f := field.New(fd.Name, fd.Kind, fd.Rank, fd.Aged)
	f.SetMergeStores(l.merge)
	defer f.Release()
	apply := func(sn runtime.StoreNotice) error {
		_, err := runtime.ApplyStore(f, sn)
		return err
	}
	for _, lf := range frames {
		if lf.age != age {
			continue
		}
		if err := runtime.DecodeStoreFrame(lf.frame, apply); err != nil {
			return nil, fmt.Errorf("dist: %s(%d): %w", fieldName, age, err)
		}
	}
	return f.Snapshot(age), nil
}

// Release drops the logged frames once final state has been read, after which
// Snapshot knows no field; snapshots taken earlier are copies and stay valid.
func (l *StoreLog) Release() {
	clear(l.frames)
}
