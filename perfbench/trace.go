package main

import (
	"fmt"
	"time"

	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
)

// phaseNames are the protocol phases the ledger reports, in pipeline
// order. "sample" is the HMS sampling session of the quantile driver.
var phaseNames = []string{"drr", "aggregate", "gossip", "broadcast", "sample"}

// phaseAcc is one phase's bill over a traced query mix.
type phaseAcc struct {
	wall  time.Duration
	alloc uint64 // heap bytes allocated
	c     sim.Counters
	// rounds that carried a round event, and those among them in which
	// some node sent a message.
	roundEvents int64
	busyRounds  int64
}

// ledger is the benchmark's telemetry sink. At every run_start, phase
// and run_end event it reads the monotonic clock and the runtime's
// cumulative heap-allocation counter, and bills the segment since the
// previous such event to the phase that was running. Round events (the
// session asks for one per round) only count busy and idle rounds, so
// the per-round cost stays a few field updates.
//
// Events must arrive live, from a sequential Network.Run: a batch that
// buffers events and forwards them later would bill near-zero wall time
// to every phase, which the phase-sum gate then rejects.
type ledger struct {
	phases map[string]*phaseAcc
	cur    *phaseAcc // phase running since the last boundary; nil outside runs
	inRun  bool
	last   time.Time
	lastB  uint64
	err    error
}

func newLedger() *ledger {
	l := &ledger{phases: make(map[string]*phaseAcc)}
	for _, p := range phaseNames {
		l.phases[p] = &phaseAcc{}
	}
	// The stretch between run_start and the first phase event is the
	// protocol's prologue; it gets its own bucket, reported in the
	// phase sum.
	l.phases[""] = &phaseAcc{}
	return l
}

func (l *ledger) acc(phase string) *phaseAcc {
	a, ok := l.phases[phase]
	if !ok {
		a = &phaseAcc{}
		l.phases[phase] = a
	}
	return a
}

// bill closes the segment since the previous boundary.
func (l *ledger) bill(now time.Time, b uint64) {
	l.cur.wall += now.Sub(l.last)
	l.cur.alloc += b - l.lastB
	l.last, l.lastB = now, b
}

// Emit implements telemetry.Sink.
func (l *ledger) Emit(ev *telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindRound:
		if l.cur == nil {
			l.fail("round event outside a run")
			return
		}
		add(&l.cur.c, ev.Delta)
		l.cur.roundEvents++
		if ev.Delta.Messages > 0 {
			l.cur.busyRounds++
		}
	case telemetry.KindFault:
		if l.cur != nil {
			add(&l.cur.c, ev.Delta)
		}
	case telemetry.KindRunStart:
		if l.inRun {
			l.fail("run_start inside a run")
		}
		l.inRun = true
		l.last, l.lastB = time.Now(), heapAllocBytes()
		l.cur = l.acc(ev.Phase)
	case telemetry.KindPhase:
		if !l.inRun {
			l.fail("phase event outside a run")
			return
		}
		l.bill(time.Now(), heapAllocBytes())
		add(&l.cur.c, ev.Delta) // the delta bills the segment just completed
		l.cur = l.acc(ev.Phase)
	case telemetry.KindRunEnd:
		if !l.inRun {
			l.fail("run_end outside a run")
			return
		}
		l.bill(time.Now(), heapAllocBytes())
		add(&l.cur.c, ev.Delta)
		l.cur, l.inRun = nil, false
	}
}

func (l *ledger) fail(msg string) {
	if l.err == nil {
		l.err = fmt.Errorf("trace: %s", msg)
	}
}

// phaseWall is the wall time billed to all phases, prologue included.
func (l *ledger) phaseWall() time.Duration {
	var d time.Duration
	for _, a := range l.phases {
		d += a.wall
	}
	return d
}

func add(dst *sim.Counters, d sim.Counters) {
	dst.Rounds += d.Rounds
	dst.Messages += d.Messages
	dst.Drops += d.Drops
	dst.Blocked += d.Blocked
	dst.Calls += d.Calls
}
