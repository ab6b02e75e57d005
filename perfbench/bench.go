package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"drrgossip"
	"drrgossip/internal/sim"
	"drrgossip/internal/telemetry"
)

const (
	// minReps is the least number of untraced repetitions of a -trace 0
	// run; a -trace 1 run makes at least minPairs (untraced, traced)
	// pairs. Repetitions continue until the budget is spent.
	minReps  = 3
	minPairs = 2

	// setup_s is the median per-call CPU time of at least
	// minSetupBatches batches of New calls. A batch repeats New until it
	// has run for setupBatch, so microsecond set-ups are timed well
	// above the clock's resolution; batches are added until setupBudget
	// is spent.
	minSetupBatches = 15
	maxSetupBatches = 101
	setupBatch      = 5 * time.Millisecond
	setupBudget     = 250 * time.Millisecond

	// phaseSumGate is the ledger gate: phase wall times must sum to
	// within 5% of the traced query wall time.
	phaseSumGate = 0.05

	mib = 1 << 20
)

// session is one session's fixed inputs: its config, query mix and the
// exact answers the mix is checked against.
type session struct {
	cfg  drrgossip.Config
	mix  []query
	refs []reference
}

// bench holds one invocation's state.
type bench struct {
	w      *workload
	seed   uint64
	budget time.Duration
	traced bool

	sessions []session
	peak     *peakRSS
	reps     []*repResult
	setups   []float64

	attempted, failed int
	maxErrTol         float64
	failures          []string
	signature         string
}

// repResult is one repetition: fresh sessions and one pass of each mix.
type repResult struct {
	traced  bool
	wall    time.Duration // sum of the Network.Run calls
	cpu     time.Duration // process CPU time (user+system) of the mixes
	alloc   uint64        // heap bytes allocated by the mixes
	gc      uint64        // GC cycles during the mixes
	gcCPU   float64       // GC CPU seconds during the mixes
	peakMB  float64       // the repetition's own peak RSS
	answers []*drrgossip.Answer
	labels  []string
	led     *ledger
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime(s []metrics.Sample) {
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
}

func (b *bench) measure() (*output, error) {
	for k := 0; k < b.w.sessions; k++ {
		seed := sessionSeed(b.seed, k)
		s := session{cfg: b.w.config(seed)}
		s.mix = b.w.mix(genValues(b.w.n, seed))
		refs, err := references(s.cfg, s.mix)
		if err != nil {
			return nil, err
		}
		s.refs = refs
		b.sessions = append(b.sessions, s)
	}
	b.peak = newPeakRSS()

	start := time.Now()
	for {
		if err := b.runRep(false); err != nil {
			return nil, err
		}
		if b.traced {
			if err := b.runRep(true); err != nil {
				return nil, err
			}
		}
		need := minReps
		if b.traced {
			need = 2 * minPairs
		}
		if len(b.reps) >= need && time.Since(start) >= b.budget {
			break
		}
	}
	if b.traced {
		return b.perLayer()
	}
	if err := b.timeSetup(); err != nil {
		return nil, err
	}
	return b.endToEnd(), nil
}

// timeSetup samples the per-call CPU time of New over batches of
// calls, cycling through the workload's session configs. CPU time, not
// wall time: on a shared virtual machine the hypervisor steals the
// vCPU for seconds at a time, which inflates wall time several-fold
// but not the time the process actually ran.
func (b *bench) timeSetup() error {
	runtime.GC()
	start := time.Now()
	k := 0
	for len(b.setups) < minSetupBatches || (len(b.setups) < maxSetupBatches && time.Since(start) < setupBudget) {
		calls := 0
		t, cpu0 := time.Now(), processCPU()
		for calls == 0 || time.Since(t) < setupBatch {
			nw, err := drrgossip.New(b.sessions[k%len(b.sessions)].cfg)
			if err != nil {
				return err
			}
			runtime.KeepAlive(nw)
			calls++
			k++
		}
		b.setups = append(b.setups, (processCPU()-cpu0).Seconds()/float64(calls))
	}
	return nil
}

func (b *bench) runRep(traced bool) error {
	r := &repResult{traced: traced}
	var opts *telemetry.Options
	if traced {
		r.led = newLedger()
		opts = &telemetry.Options{Sink: r.led, RoundEvery: 1}
	}
	b.peak.reset()
	m0 := make([]metrics.Sample, len(runtimeSamples))
	m1 := make([]metrics.Sample, len(runtimeSamples))
	for _, s := range b.sessions {
		cfg := s.cfg
		cfg.Telemetry = opts
		nw, err := drrgossip.New(cfg)
		if err != nil {
			return err
		}
		answers := make([]*drrgossip.Answer, len(s.mix))
		errs := make([]error, len(s.mix))
		for i, mq := range s.mix {
			// Each query starts from a collected heap, so it pays only
			// for the garbage it makes itself.
			runtime.GC()
			readRuntime(m0)
			cpu0 := processCPU()
			t := time.Now()
			answers[i], errs[i] = nw.Run(mq.q)
			r.wall += time.Since(t)
			r.cpu += processCPU() - cpu0
			readRuntime(m1)
			r.alloc += m1[0].Value.Uint64() - m0[0].Value.Uint64()
			r.gc += m1[1].Value.Uint64() - m0[1].Value.Uint64()
			r.gcCPU += m1[2].Value.Float64() - m0[2].Value.Float64()
			b.peak.sample()
		}
		b.checkSession(s, answers, errs)
		r.answers = append(r.answers, answers...)
		for _, mq := range s.mix {
			r.labels = append(r.labels, mq.label)
		}
	}
	r.peakMB = b.peak.peakMB()

	sig := signature(r.answers)
	if b.signature == "" {
		b.signature = sig
	} else if sig != b.signature {
		b.failures = append(b.failures, "determinism: answers or counts differ between repetitions of one seed")
	}
	if r.led != nil {
		if r.led.err != nil {
			b.failures = append(b.failures, r.led.err.Error())
		}
		if err := ledgerMatchesPhaseCosts(r.led, r.answers); err != nil {
			b.failures = append(b.failures, err.Error())
		}
	}
	b.reps = append(b.reps, r)
	return nil
}

// checkSession checks every answer of one session's mix against its
// exact reference.
func (b *bench) checkSession(s session, answers []*drrgossip.Answer, errs []error) {
	for i, mq := range s.mix {
		b.attempted++
		ok, errTol, why := check(mq, s.refs[i], answers[i], errs[i])
		b.maxErrTol = math.Max(b.maxErrTol, errTol)
		if !ok {
			b.failed++
			b.failures = append(b.failures, fmt.Sprintf("seed %d %s: %s", s.cfg.Seed, mq.label, why))
		}
	}
}

// signature renders everything about a repetition's answers that must
// repeat exactly for one seed: values, bucket counts, costs and phase
// bills.
func signature(answers []*drrgossip.Answer) string {
	var sb strings.Builder
	for _, a := range answers {
		if a == nil {
			sb.WriteString("nil;")
			continue
		}
		fmt.Fprintf(&sb, "%x %v %+v %+v;", math.Float64bits(a.Value), a.Counts, a.Cost, a.PhaseCosts)
	}
	return sb.String()
}

// ledgerMatchesPhaseCosts cross-checks the trace against the program's
// own per-phase bill: the counts the ledger summed from event deltas
// must equal the answers' PhaseCosts, and every round must have
// produced a round event.
func ledgerMatchesPhaseCosts(l *ledger, answers []*drrgossip.Answer) error {
	want := make(map[string]drrgossip.PhaseCost)
	for _, a := range answers {
		if a == nil {
			continue
		}
		for _, pc := range a.PhaseCosts {
			s := want[pc.Phase]
			s.Rounds += pc.Rounds
			s.Messages += pc.Messages
			s.Drops += pc.Drops
			s.Calls += pc.Calls
			want[pc.Phase] = s
		}
	}
	for name, a := range l.phases {
		pc := want[name]
		if a.c.Rounds != pc.Rounds || a.c.Messages != pc.Messages || a.c.Calls != pc.Calls || a.c.Drops != pc.Drops {
			return fmt.Errorf("trace: phase %q bills %+v, PhaseCosts %+v", name, a.c, pc)
		}
		if a.roundEvents != int64(a.c.Rounds) {
			return fmt.Errorf("trace: phase %q saw %d round events for %d rounds", name, a.roundEvents, a.c.Rounds)
		}
	}
	return nil
}

// cost totals the first repetition's bill; the determinism check holds
// every repetition to the same one.
func (b *bench) cost() (c drrgossip.Cost) {
	for _, a := range b.reps[0].answers {
		if a != nil {
			c = c.Add(a.Cost)
		}
	}
	return c
}

// over returns f of every repetition with the given tracing.
func (b *bench) over(traced bool, f func(*repResult) float64) []float64 {
	var xs []float64
	for _, r := range b.reps {
		if r.traced == traced {
			xs = append(xs, f(r))
		}
	}
	return xs
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func wallS(r *repResult) float64 { return r.wall.Seconds() }

func (b *bench) newOutput() *output {
	return &output{correct: len(b.failures) == 0, attempted: b.attempted, failed: b.failed}
}

func (b *bench) endToEnd() *output {
	c := b.cost()
	o := b.newOutput()
	o.add("setup_s", median(b.setups), "s")
	o.add("cpu_s", median(b.over(false, func(r *repResult) float64 { return r.cpu.Seconds() })), "s")
	o.add("peak_rss_mb", median(b.over(false, func(r *repResult) float64 { return r.peakMB })), "MB")
	o.add("alloc_mb", median(b.over(false, func(r *repResult) float64 { return float64(r.alloc) / mib })), "MB")
	o.add("rounds", float64(c.Rounds), "count")
	o.add("msgs_per_node", float64(c.Messages)/float64(b.w.n*b.w.sessions), "msgs/node")
	o.add("ok_frac", 1-float64(b.failed)/float64(b.attempted), "frac")
	return o
}

func (b *bench) perLayer() (*output, error) {
	s0 := b.sessions[0].cfg
	pr, err := runProbes(b.w, b.seed, sim.Options{Seed: s0.Seed, Loss: s0.Loss, CrashFrac: s0.CrashFraction})
	if err != nil {
		return nil, err
	}
	untraced := median(b.over(false, wallS))
	traced := median(b.over(true, wallS))
	sumFrac := median(b.over(true, func(r *repResult) float64 { return r.led.phaseWall().Seconds() / r.wall.Seconds() }))
	if math.Abs(sumFrac-1) > phaseSumGate {
		b.failures = append(b.failures, fmt.Sprintf(
			"trace: phase wall times sum to %.4f of the traced wall time (gate 1±%.2f)", sumFrac, phaseSumGate))
	}
	c := b.cost()
	o := b.newOutput()
	o.add("failed_frac", float64(b.failed)/float64(b.attempted), "frac")
	o.add("wall_s", untraced, "s")

	// Counts are exact and identical in every traced repetition; times
	// and bytes are medians over the traced repetitions.
	var first *ledger
	for _, r := range b.reps {
		if r.traced {
			first = r.led
			break
		}
	}
	phaseMedian := func(p string, f func(*phaseAcc) float64) float64 {
		return median(b.over(true, func(r *repResult) float64 { return f(r.led.phases[p]) }))
	}
	wall := func(a *phaseAcc) float64 { return a.wall.Seconds() }
	alloc := func(a *phaseAcc) float64 { return float64(a.alloc) / mib }
	for _, p := range []string{"drr", "aggregate", "broadcast", "gossip"} {
		a := first.phases[p]
		pre := "phase." + p + "."
		o.add(pre+"wall_s", phaseMedian(p, wall), "s")
		o.add(pre+"alloc_mb", phaseMedian(p, alloc), "MB")
		o.add(pre+"rounds", float64(a.c.Rounds), "count")
		o.add(pre+"msgs", float64(a.c.Messages), "count")
	}
	g := first.phases["gossip"]
	o.add("phase.gossip.calls", float64(g.c.Calls), "count")
	o.add("phase.gossip.idle_rounds", float64(g.roundEvents-g.busyRounds), "count")
	o.add("phase.gossip.busy_frac", ratio(float64(g.busyRounds), float64(g.roundEvents)), "frac")
	o.add("phase.sample.wall_s", phaseMedian("sample", wall), "s")
	o.add("phase.sample.rounds", float64(first.phases["sample"].c.Rounds), "count")
	o.add("phase.prologue.wall_s", phaseMedian("", wall), "s")

	o.add("driver.runs", float64(c.Runs), "count")
	r0 := b.reps[0]
	for _, phi := range quantilePhis {
		var runs []float64
		for i, l := range r0.labels {
			if l == "quantile."+phiLabel(phi) && r0.answers[i] != nil {
				runs = append(runs, float64(r0.answers[i].Cost.Runs))
			}
		}
		o.add("driver.quantile_runs."+phiLabel(phi), mean(runs), "count")
	}
	o.add("driver.max_err_tol", b.maxErrTol, "frac")

	o.add("overlay.build_s", pr.buildS, "s")
	o.add("chord.route_ns", pr.routeNs, "ns")
	o.add("chord.route_hops", pr.routeHops, "count")
	o.add("chord.route_bytes", pr.routeBytes, "B")
	o.add("engine.reset_ns", pr.resetNs, "ns")
	o.add("engine.msg_ns", pr.msgNs, "ns")
	o.add("engine.drop_frac", ratio(float64(c.Drops), float64(c.Messages)), "frac")
	o.add("runtime.gc_cycles", median(b.over(false, func(r *repResult) float64 { return float64(r.gc) })), "count")
	o.add("runtime.gc_cpu_s", median(b.over(false, func(r *repResult) float64 { return r.gcCPU })), "s")
	o.add("trace.overhead_frac", traced/untraced-1, "frac")
	o.add("trace.phase_sum_frac", sumFrac, "frac")
	return o, nil
}

// mean of xs (0 when empty: the workload runs no such query).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
