package vm

// Scheduler hook: controlled-scheduler exploration (CHESS-style bounded
// search and trace replay) drives the machine through an injectable
// SchedulePolicy instead of the built-in seeded randomization. A decision
// point occurs whenever a free core must choose among more than one
// runnable thread — after a timer preemption, a blocking syscall, a trap
// suspension or a wake-up — so a policy fully determines the interleaving
// of an otherwise-deterministic run. Recorder and Replayer make any
// explored schedule reproducible from its decision trace alone.

// SchedPoint describes one scheduler decision point.
type SchedPoint struct {
	Seq      uint64 // 0-based index of this decision within the run
	Tick     uint64 // virtual time of the decision
	Core     int    // core being scheduled
	Runnable []int  // candidate thread IDs in run-queue order; only valid during Pick
}

// SchedulePolicy chooses which runnable thread a free core runs next. Pick
// returns an index into p.Runnable; out-of-range values fall back to 0. The
// policy is consulted only when there is a real choice (two or more
// runnable threads); a single runnable thread is scheduled directly and
// does not consume a decision.
type SchedulePolicy interface {
	Pick(p SchedPoint) int
}

// PolicyFunc adapts a function to a SchedulePolicy.
type PolicyFunc func(SchedPoint) int

// Pick implements SchedulePolicy.
func (f PolicyFunc) Pick(p SchedPoint) int { return f(p) }

// Recorder wraps a policy and records the thread it picks at every
// decision, producing a trace that a Replayer can reproduce exactly. A nil
// inner policy records the default choice (index 0) at every point.
type Recorder struct {
	Inner  SchedulePolicy
	chosen []int
}

// NewRecorder returns a Recorder around inner.
func NewRecorder(inner SchedulePolicy) *Recorder { return &Recorder{Inner: inner} }

// Pick implements SchedulePolicy.
func (r *Recorder) Pick(p SchedPoint) int {
	i := 0
	if r.Inner != nil {
		i = r.Inner.Pick(p)
		if i < 0 || i >= len(p.Runnable) {
			i = 0
		}
	}
	r.chosen = append(r.chosen, p.Runnable[i])
	return i
}

// Chosen returns a copy of the recorded trace: the chosen thread IDs, the
// compact format replays consume.
func (r *Recorder) Chosen() []int { return append([]int{}, r.chosen...) }

// Replayer replays a recorded decision trace: at decision i it picks the
// i-th recorded thread if it is runnable. A recorded thread that is not
// runnable, or a decision past the end of the trace, falls back to index 0
// and is counted as a mismatch; replaying a trace against the run that
// produced it never mismatches.
type Replayer struct {
	chosen     []int
	next       int
	mismatches int
}

// NewReplayer returns a Replayer for a chosen-thread trace.
func NewReplayer(chosen []int) *Replayer { return &Replayer{chosen: chosen} }

// Pick implements SchedulePolicy.
func (r *Replayer) Pick(p SchedPoint) int {
	if r.next >= len(r.chosen) {
		r.mismatches++
		return 0
	}
	want := r.chosen[r.next]
	r.next++
	for i, id := range p.Runnable {
		if id == want {
			return i
		}
	}
	r.mismatches++
	return 0
}

// Mismatches reports how many decisions could not be replayed faithfully.
func (r *Replayer) Mismatches() int { return r.mismatches }

// Consumed reports how many trace entries were used.
func (r *Replayer) Consumed() int { return r.next }
