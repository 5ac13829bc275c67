package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/msa"
	"repro/internal/store"
)

// journaledEnd reports whether the journal on disk holds a terminal
// record for job id, read by a replay as a restart would.
func journaledEnd(t *testing.T, dir, id string) bool {
	t.Helper()
	j, recs, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Job == id && (rec.Type == store.RecFinish || rec.Type == store.RecCancel) {
			return true
		}
	}
	return false
}

// A job seen ended — its Done closed, or its terminal event published —
// is already journaled and counted: the terminal effects land journal,
// count, publish, close Done, in that order.
func TestEndedJobIsJournaledAndCounted(t *testing.T) {
	for _, seen := range []string{"done", "event"} {
		t.Run(seen, func(t *testing.T) {
			dir := t.TempDir()
			fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
			s := newTestServer(t, Config{Executor: fe, DataDir: dir})
			defer s.Close()
			job, err := s.Submit(testSeqs(5, 30, 401), Options{})
			if err != nil {
				t.Fatal(err)
			}
			<-fe.started
			sub := job.bus.Subscribe(0, eventSubBuffer)
			defer sub.Close()
			close(fe.block)
			if seen == "done" {
				waitState(t, job, StateDone)
			} else {
				for ev := range sub.C() {
					if ev.V.Type == eventDone && ev.V.Job == job.ID {
						break
					}
				}
			}
			if got := s.metrics.Completed.Value(); got != 1 {
				t.Fatalf("completed = %d once the job was seen ended, want 1", got)
			}
			if !journaledEnd(t, dir, job.ID) {
				t.Fatal("no terminal record in the journal once the job was seen ended")
			}
		})
	}
}

// A flight's outcome reaches all its riders' finish records in one
// commit group: one fsync, however many jobs coalesced onto it.
func TestFlightOutcomeJournalsOneGroup(t *testing.T) {
	fe := &fakeExec{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s := newTestServer(t, Config{Executor: fe, DataDir: t.TempDir()})
	defer s.Close()
	seqs := testSeqs(6, 30, 402)
	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := s.Submit(seqs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		if i == 0 {
			<-fe.started // the others ride the running flight
		}
	}
	flushes := s.journal.Flushes()
	close(fe.block)
	for _, job := range jobs {
		waitState(t, job, StateDone)
	}
	if got := s.journal.Flushes() - flushes; got != 1 {
		t.Fatalf("the flight's outcome cost %d journal fsyncs for 3 riders, want 1", got)
	}
}

// The lifecycle model. A small reference for what the job table, the
// counters, the queue gauges and Recovery() must say after any sequence
// of operations on a durable server with one dispatcher. Each
// operation is applied to the model and to a real server, and the two
// are compared after every step.

const (
	lifeInputs    = 5 // distinct inputs, so content addresses collide often
	lifeMaxQueued = 2
	lifeTimeoutMs = 3_600_000 // every job has a deadline; the test fires it by hand
	lifeOpsPerSeq = 14
)

// The operations a sequence is made of; arg picks an input or a job.
const (
	lSubmit   byte = iota // submit input arg
	lDup                  // resubmit the latest job's input
	lBatch                // batch [arg, arg+1, arg]: an intra-batch duplicate
	lBigBatch             // batch of every input: more new flights than the queue holds
	lCancel               // cancel job arg, in whatever state
	lDeadline             // fire the deadline of live job arg
	lSucceed              // the running flight's executor succeeds
	lFail                 // the running flight's executor fails
	lDrain                // Drain(0)
	lClose                // Close
	lCrash                // crash, then reopen the data directory
	lRestart              // Close, then reopen the data directory
	numLifeOps
)

var lifeOpNames = [numLifeOps]string{"submit", "dup", "batch", "bigbatch", "cancel", "deadline",
	"succeed", "fail", "drain", "close", "crash", "restart"}

type lop struct{ kind, arg byte }

func (o lop) String() string { return fmt.Sprintf("%s(%d)", lifeOpNames[o.kind], o.arg) }

// lifeOps draws n operations from seed.
func lifeOps(seed int64, n int) []lop {
	weights := [numLifeOps]int{lSubmit: 8, lDup: 2, lBatch: 3, lBigBatch: 2, lCancel: 4, lDeadline: 2,
		lSucceed: 6, lFail: 2, lDrain: 1, lClose: 1, lCrash: 2, lRestart: 2}
	total := 0
	for _, w := range weights {
		total += w
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]lop, n)
	for i := range ops {
		r := rng.Intn(total)
		for k, w := range weights {
			if r < w {
				ops[i] = lop{kind: byte(k), arg: byte(rng.Intn(256))}
				break
			}
			r -= w
		}
	}
	return ops
}

func encodeLifeOps(ops []lop) []byte {
	b := make([]byte, 0, 2*len(ops))
	for _, o := range ops {
		b = append(b, o.kind, o.arg)
	}
	return b
}

func decodeLifeOps(b []byte) []lop {
	var ops []lop
	for i := 0; i+1 < len(b) && len(ops) < 32; i += 2 {
		ops = append(ops, lop{kind: b[i] % numLifeOps, arg: b[i+1]})
	}
	return ops
}

type mJob struct {
	id                           string
	in                           int
	state                        State
	cached, coalesced, recovered bool
	hasErr                       bool
	journaledCoalesced           bool // the flag its submit record carries
	interrupted                  bool // ended by a clean shutdown: the next boot re-enqueues it
	fl                           *mFlight
}

type mFlight struct {
	in    int
	state State // queued or running
	jobs  []*mJob
}

type lifeModel struct {
	jobs             []*mJob // admission order, which is journal order
	fifo             []*mFlight
	running          *mFlight // the flight the dispatcher runs
	inflight         map[int]*mFlight
	stored, mem      map[int]bool // inputs with a result on disk / in the memory cache
	count            map[string]int64
	draining, closed bool
	records          int  // journal records since open
	shutdown         bool // the journal ends on a clean-shutdown record
	recovery         RecoveryInfo
}

func newLifeModel() *lifeModel {
	return &lifeModel{
		inflight: map[int]*mFlight{}, stored: map[int]bool{}, mem: map[int]bool{}, count: map[string]int64{},
		recovery: RecoveryInfo{Enabled: true, CleanShutdown: true},
	}
}

func (m *lifeModel) live() []*mJob {
	var live []*mJob
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			live = append(live, j)
		}
	}
	return live
}

// admit returns the error kind the admission ends in ("" when
// admitted) and the new jobs, in item order.
func (m *lifeModel) admit(ins []int) (string, []*mJob) {
	if m.closed || m.draining {
		return "closed", nil
	}
	hit := make([]bool, len(ins))
	for i, in := range ins { // memory tier first, then the disk tier promotes
		hit[i] = m.mem[in] || m.stored[in]
		if !m.mem[in] && m.stored[in] {
			m.count["store_hits"]++
			m.mem[in] = true
		}
	}
	need, distinct := 0, map[int]bool{}
	for i, in := range ins {
		if !hit[i] && m.inflight[in] == nil && !distinct[in] {
			distinct[in] = true
			need++
		}
	}
	if need > 0 && len(m.fifo)+need > lifeMaxQueued {
		m.count["rejected"]++
		if need > 1 && need > lifeMaxQueued {
			return "bad-request", nil
		}
		return "overloaded", nil
	}
	var jobs []*mJob
	for i, in := range ins {
		j := &mJob{in: in}
		m.count["submitted"]++
		m.records++ // its submit record
		if hit[i] {
			j.state, j.cached = StateDone, true
			m.count["cache_hits"]++
			m.count["completed"]++
			m.records++ // its finish record
		} else {
			fl := m.inflight[in]
			if fl == nil {
				fl = &mFlight{in: in, state: StateQueued}
				m.inflight[in] = fl
				m.fifo = append(m.fifo, fl)
			}
			m.attach(j, fl)
			if j.coalesced {
				m.count["coalesced"]++
			} else {
				m.count["cache_misses"]++
			}
		}
		j.journaledCoalesced = j.coalesced
		jobs = append(jobs, j)
	}
	m.jobs = append(m.jobs, jobs...)
	return "", jobs
}

func (m *lifeModel) attach(j *mJob, fl *mFlight) {
	j.coalesced = j.coalesced || len(fl.jobs) > 0
	j.fl, j.state = fl, fl.state
	if fl.state == StateRunning {
		m.count["queue_wait_coalesced"]++
	}
	fl.jobs = append(fl.jobs, j)
}

// pop starts the queue head if the dispatcher is idle and reports it.
func (m *lifeModel) pop() *mFlight {
	if m.running != nil || len(m.fifo) == 0 {
		return nil
	}
	fl := m.fifo[0]
	m.fifo = m.fifo[1:]
	m.start(fl)
	m.running = fl
	return fl
}

func (m *lifeModel) start(fl *mFlight) {
	fl.state = StateRunning
	for _, j := range fl.jobs {
		j.state = StateRunning
		m.count["queue_wait_dispatched"]++
		m.records++ // its start record
	}
}

func (m *lifeModel) end(j *mJob, st State) {
	j.state, j.fl, j.hasErr = st, nil, st != StateDone
	m.records++ // its finish, cancel or interrupt record
	m.count[map[State]string{StateDone: "completed", StateFailed: "failed", StateCanceled: "canceled"}[st]]++
}

// verdict lands the running flight.
func (m *lifeModel) verdict(ok bool) {
	fl := m.running
	st := StateFailed
	if ok {
		st = StateDone
		m.stored[fl.in], m.mem[fl.in] = true, true
	}
	for _, j := range fl.jobs {
		m.end(j, st)
	}
	delete(m.inflight, fl.in)
	m.running = nil
}

// cancel ends a live job canceled and reports whether it was live.
func (m *lifeModel) cancel(j *mJob) bool {
	if j.state.Terminal() {
		return false
	}
	fl := j.fl
	fl.jobs = slices.DeleteFunc(fl.jobs, func(w *mJob) bool { return w == j })
	if j.state == StateQueued {
		m.count["queue_wait_canceled"]++
	}
	m.end(j, StateCanceled)
	if len(fl.jobs) == 0 { // the last waiter: the flight goes too
		delete(m.inflight, fl.in)
		if fl.state == StateQueued {
			m.fifo = slices.DeleteFunc(m.fifo, func(q *mFlight) bool { return q == fl })
		} else {
			m.running = nil
		}
	}
	return true
}

// close ends every live job as a shutdown casualty: the running flight,
// then each queued one, which the dispatcher still pops (and journals
// the start of) before its canceled context ends it.
func (m *lifeModel) close() {
	m.closed = true
	flights := m.fifo
	if m.running != nil {
		flights = append([]*mFlight{m.running}, flights...)
	}
	for _, fl := range flights {
		if fl.state == StateQueued {
			m.start(fl)
		}
		for _, j := range fl.jobs {
			j.interrupted = true
			m.end(j, StateCanceled)
			m.count["interrupted"]++
		}
	}
	m.fifo, m.running, m.inflight = nil, nil, map[int]*mFlight{}
	m.records++ // the shutdown record
	m.shutdown = true
}

// reopen is a new server replaying the journal: terminal jobs come back
// as they were, every other one is re-enqueued, and the journal is
// compacted. It reports the flight the dispatcher starts.
func (m *lifeModel) reopen() *mFlight {
	rec := RecoveryInfo{Enabled: true, JournalRecords: m.records, CleanShutdown: m.records == 0 || m.shutdown}
	m.fifo, m.running, m.inflight, m.mem, m.count = nil, nil, map[int]*mFlight{}, map[int]bool{}, map[string]int64{}
	m.draining, m.closed, m.shutdown, m.records = false, false, false, 0
	for _, j := range m.jobs {
		j.coalesced = j.journaledCoalesced
		if j.state.Terminal() && !j.interrupted {
			rec.Finished++
			j.recovered = false
			m.records += 2 // a FASTA-less submit and the terminal record
			continue
		}
		rec.Requeued++
		if j.interrupted {
			rec.Interrupted++
		}
		j.interrupted, j.recovered, j.hasErr = false, true, false
		fl := m.inflight[j.in]
		if fl == nil {
			fl = &mFlight{in: j.in, state: StateQueued}
			m.inflight[j.in] = fl
			m.fifo = append(m.fifo, fl)
		}
		m.attach(j, fl)
		m.records++ // its submit record, input kept
	}
	m.recovery = rec
	return m.pop()
}

// lifeExec runs one flight at a time for the harness: it reports which
// input it entered on started, then waits for a verdict or the flight's
// cancellation.
type lifeExec struct {
	started chan int
	verdict chan error
}

func (e *lifeExec) Name() string    { return "life" }
func (e *lifeExec) FixedProcs() int { return 0 }

func (e *lifeExec) Align(ctx context.Context, seqs []bio.Sequence, opts Resolved) (*msa.Alignment, ExecReport, error) {
	var in int
	fmt.Sscanf(seqs[0].ID, "m%d_", &in)
	e.started <- in
	select {
	case err := <-e.verdict:
		if err != nil {
			return nil, ExecReport{}, err
		}
		return &msa.Alignment{Seqs: seqs}, ExecReport{Procs: opts.Procs}, nil
	case <-ctx.Done():
		return nil, ExecReport{}, ctx.Err()
	}
}

type lifeHarness struct {
	t      *testing.T
	dir    string
	inputs [lifeInputs][]bio.Sequence
	srv    *Server
	exec   *lifeExec
	m      *lifeModel
	done   []string // the operations applied so far, for failure reports
}

func (h *lifeHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("after %s: %s", strings.Join(h.done, " "), fmt.Sprintf(format, args...))
}

func (h *lifeHarness) open() {
	// started holds more entries than a sequence of at most 32
	// operations can start flights, so a run never blocks on it.
	h.exec = &lifeExec{started: make(chan int, 64), verdict: make(chan error)}
	s, err := New(Config{Executor: h.exec, DataDir: h.dir, MaxConcurrent: 1, MaxQueued: lifeMaxQueued})
	if err != nil {
		h.fatalf("reopen: %v", err)
	}
	h.srv = s
}

// expectStart waits for the executor to enter the flight the model
// started, so the next operation meets a settled dispatcher.
func (h *lifeHarness) expectStart(fl *mFlight) {
	h.t.Helper()
	if fl == nil {
		return
	}
	select {
	case in := <-h.exec.started:
		if in != fl.in {
			h.fatalf("the dispatcher started input %d, want %d", in, fl.in)
		}
	case <-time.After(10 * time.Second):
		h.fatalf("the dispatcher never started input %d", fl.in)
	}
}

func (h *lifeHarness) job(mj *mJob) *Job {
	h.t.Helper()
	j, ok := h.srv.Job(mj.id)
	if !ok {
		h.fatalf("job %s (input %d) missing from the table", mj.id, mj.in)
	}
	return j
}

func (h *lifeHarness) waitEnded(mjobs []*mJob) {
	h.t.Helper()
	for _, mj := range mjobs {
		select {
		case <-h.job(mj).Done():
		case <-time.After(10 * time.Second):
			h.fatalf("job %s never ended", mj.id)
		}
	}
}

// apply runs one operation on the model and on the server, and reports
// whether it applied (an executor verdict with nothing running, or a
// deadline with no live job, does not).
func (h *lifeHarness) apply(o lop) bool {
	h.t.Helper()
	m := h.m
	switch o.kind {
	case lSubmit, lDup, lBatch, lBigBatch:
		in := int(o.arg) % lifeInputs
		var ins []int
		switch o.kind {
		case lSubmit:
			ins = []int{in}
		case lDup:
			if len(m.jobs) > 0 {
				in = m.jobs[len(m.jobs)-1].in
			}
			ins = []int{in}
		case lBatch:
			ins = []int{in, (in + 1) % lifeInputs, in}
		case lBigBatch:
			for i := range lifeInputs {
				ins = append(ins, i)
			}
		}
		wantErr, mjobs := m.admit(ins)
		items := make([]BatchItem, len(ins))
		for i, in := range ins {
			items[i] = BatchItem{Seqs: h.inputs[in], Opts: Options{TimeoutMs: lifeTimeoutMs}}
		}
		var jobs []*Job
		var err error
		if len(items) == 1 {
			var job *Job
			if job, err = h.srv.Submit(items[0].Seqs, items[0].Opts); err == nil {
				jobs = []*Job{job}
			}
		} else {
			jobs, err = h.srv.SubmitBatch(items)
		}
		var bad *BadRequestError
		gotErr := ""
		switch {
		case errors.As(err, &bad):
			gotErr = "bad-request"
		case errors.Is(err, errOverloaded):
			gotErr = "overloaded"
		case errors.Is(err, errClosed):
			gotErr = "closed"
		case err != nil:
			gotErr = err.Error()
		}
		if gotErr != wantErr {
			h.fatalf("admission error %q, want %q", gotErr, wantErr)
		}
		for i, mj := range mjobs {
			mj.id = jobs[i].ID
		}
		h.expectStart(m.pop())
	case lCancel, lDeadline:
		var mj *mJob
		if o.kind == lCancel && len(m.jobs) > 0 {
			mj = m.jobs[int(o.arg)%len(m.jobs)]
		} else if live := m.live(); o.kind == lDeadline && len(live) > 0 {
			mj = live[int(o.arg)%len(live)]
		}
		if mj == nil {
			return false
		}
		wantLive := m.cancel(mj)
		if o.kind == lCancel {
			if live, err := h.srv.Cancel(mj.id, nil); err != nil || live != wantLive {
				h.fatalf("cancel %s: live=%v err=%v, want live=%v", mj.id, live, err, wantLive)
			}
		} else {
			j := h.job(mj)
			j.mu.Lock()
			timer := j.timer
			j.mu.Unlock()
			if timer == nil {
				h.fatalf("live job %s has no deadline timer", mj.id)
			}
			timer.Reset(0)
		}
		if wantLive {
			h.waitEnded([]*mJob{mj})
		}
		h.expectStart(m.pop())
	case lSucceed, lFail:
		if m.running == nil {
			return false
		}
		riders := slices.Clone(m.running.jobs)
		m.verdict(o.kind == lSucceed)
		var verdict error
		if o.kind == lFail {
			verdict = errors.New("executor failed")
		}
		select {
		case h.exec.verdict <- verdict:
		case <-time.After(10 * time.Second):
			h.fatalf("no flight took the verdict")
		}
		h.waitEnded(riders)
		h.expectStart(m.pop())
	case lDrain:
		if m.closed {
			return false
		}
		m.draining = true
		h.srv.Drain(0)
	case lClose:
		if m.closed {
			return false
		}
		m.close()
		h.srv.Close()
	case lCrash, lRestart:
		if !m.closed {
			if o.kind == lCrash {
				crash(h.srv) // a crash journals nothing more: the zombie's appends fail
			} else {
				m.close()
			}
		}
		h.srv.Close()
		fl := m.reopen()
		h.open()
		h.expectStart(fl)
	}
	return true
}

// check compares the server with the model.
func (h *lifeHarness) check() {
	h.t.Helper()
	m := h.m
	for _, mj := range m.jobs {
		v := h.job(mj).View()
		got := fmt.Sprintf("%s cached=%v coalesced=%v recovered=%v err=%v", v.State, v.Cached, v.Coalesced, v.Recovered, v.Error != "")
		want := fmt.Sprintf("%s cached=%v coalesced=%v recovered=%v err=%v", mj.state, mj.cached, mj.coalesced, mj.recovered, mj.hasErr)
		if got != want {
			h.fatalf("job %s (input %d) is %s, want %s", mj.id, mj.in, got, want)
		}
	}
	nonzero := func(c map[string]int64) map[string]int64 {
		out := map[string]int64{}
		for k, v := range c {
			if v != 0 {
				out[k] = v
			}
		}
		return out
	}
	if got, want := nonzero(h.srv.nonBatchCounters()), nonzero(m.count); !reflect.DeepEqual(got, want) {
		h.fatalf("counters %v, want %v", got, want)
	}
	if got := h.srv.Recovery(); got != m.recovery {
		h.fatalf("recovery %+v, want %+v", got, m.recovery)
	}
	// The gauges settle once the dispatcher has let go of a flight that
	// ended; every job it ended was already checked above.
	active := 0
	if m.running != nil {
		active = 1
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		st := h.srv.Stats()
		if st.Queued == len(m.fifo) && st.Active == active {
			break
		}
		if time.Now().After(deadline) {
			h.fatalf("queued %d, running %d; want %d and %d", st.Queued, st.Active, len(m.fifo), active)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// runLifecycle drives ops through a fresh durable server and the model,
// comparing them after every operation, and reports how many applied.
func runLifecycle(t *testing.T, ops []lop) int {
	h := &lifeHarness{t: t, dir: t.TempDir(), m: newLifeModel()}
	for i := range h.inputs {
		seqs := testSeqs(3, 24, int64(500+i))
		for k := range seqs {
			seqs[k].ID = fmt.Sprintf("m%d_%d", i, k)
		}
		h.inputs[i] = seqs
	}
	h.open()
	defer func() { h.srv.Close() }()
	h.check()
	applied := 0
	for _, o := range ops {
		if h.apply(o) {
			applied++
		}
		h.done = append(h.done, o.String())
		h.check()
	}
	return applied
}

// TestLifecycleMatchesModel drives seeded random operation sequences
// through a durable server and the model, comparing job views, the
// counters, the queue gauges and Recovery() after every operation.
func TestLifecycleMatchesModel(t *testing.T) {
	const seqs = 1000
	applied := 0
	for seed := int64(1); seed <= seqs; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			applied += runLifecycle(t, lifeOps(seed, lifeOpsPerSeq))
		})
	}
	t.Logf("%d sequences, %d operations applied", seqs, applied)
	if applied < 10_000 {
		t.Fatalf("only %d operations applied, want at least 10000", applied)
	}
}

// lifePinned are the sequences the model test found diverging, before
// a job's terminal effects had one order: Done closed before the
// outcome was counted (and journaled), so a job seen ended could still
// be missing from completed (seeds 8 and 10), failed (18) or from one
// of two coalesced riders (11).
var lifePinned = []int64{8, 10, 11, 18}

func TestLifecyclePinnedSeeds(t *testing.T) {
	for _, seed := range lifePinned {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for range 10 {
				runLifecycle(t, lifeOps(seed, lifeOpsPerSeq))
			}
		})
	}
}

// FuzzLifecycle decodes an operation sequence from the fuzz bytes and
// drives it through the same model. Its seed corpus is the pinned
// sequences.
func FuzzLifecycle(f *testing.F) {
	for _, seed := range lifePinned {
		f.Add(encodeLifeOps(lifeOps(seed, lifeOpsPerSeq)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runLifecycle(t, decodeLifeOps(data))
	})
}
