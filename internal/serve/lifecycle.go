package serve

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/bio"
	"repro/internal/store"
)

// This file is the lifecycle table of the package doc, and the only
// code that writes a job's or a flight's state: a flight is opened,
// popped, abandoned or landed here, a job is attached, started,
// detached or ended here.

// event names an ending row of the lifecycle table.
type event uint8

const (
	evCancel  event = iota // caller, deadline, disconnect, shutdown casualty
	evFinish               // the flight's verdict reaches a rider
	evHit                  // a cache tier answered at admission
	evRestore              // journal replay: the journal already holds the outcome
)

// endRow is what an ending event does beyond what every ending does
// (stop the deadline timer, record the outcome, close Done).
type endRow struct {
	journal, count, publish bool
	log                     string // the job's own log line; "" logs none
}

var endRows = [...]endRow{
	evCancel:  {journal: true, count: true, publish: true, log: "job canceled"},
	evFinish:  {journal: true, count: true, publish: true}, // the flight logs once for its riders
	evHit:     {count: true, publish: true, log: "job served from cache"},
	evRestore: {},
}

// outcome is the terminal state a job ends in and what it carries.
type outcome struct {
	state State
	cause error   // failed or canceled: why
	res   *Result // done: the result (only its summary when restored)
	at    time.Time
}

// end makes jobs terminal by ev. The effects run in one order — stop
// the deadline timer, record the outcome, journal, count, publish the
// terminal event, close Done, log — each across every job before the
// next, so a flight's riders share one journal group and a job whose
// Done has closed is journaled and counted. A job that has already
// ended (a rider canceled while its flight ran) is skipped; end reports
// how many it ended.
func (s *Server) end(ev event, o outcome, jobs ...*Job) int {
	row := endRows[ev]
	var ended []*Job
	var from []State
	for _, j := range jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			if j.timer != nil {
				j.timer.Stop()
				j.timer = nil
			}
			from = append(from, j.state)
			ended = append(ended, j)
			j.state, j.finished, j.err = o.state, o.at, o.cause
			if o.res != nil {
				j.result = s.retainedResult(o.res)
				if j.Trace == "" { // a hit or a restored job: the computation's trace
					j.Trace = o.res.TraceID
				}
			}
			if ev == evHit {
				j.cached, j.started = true, o.at
				j.bus = s.newEventBus() // a one-event stream: /events of a hit still ends on done
			}
		}
		j.mu.Unlock()
	}
	if row.journal && s.journal != nil {
		recs := make([]store.Record, len(ended))
		for i, j := range ended {
			recs[i] = endRecord(j, o)
		}
		s.journalAppendBatch(recs)
	}
	if row.count {
		for i, j := range ended {
			switch {
			case o.state == StateDone:
				s.metrics.Completed.Inc()
			case o.state == StateFailed:
				s.metrics.Failed.Inc()
			case errors.Is(o.cause, errInterrupted):
				s.metrics.Interrupted.Inc()
				fallthrough
			default:
				s.metrics.Canceled.Inc()
			}
			if from[i] == StateQueued {
				s.metrics.QueueWait.Observe("canceled", o.at.Sub(j.Submitted).Seconds())
			}
		}
	}
	for _, j := range ended {
		if row.publish {
			s.publish(j.bus, terminalEvent(j.View()))
		}
		if ev == evHit {
			j.bus.Close()
		}
	}
	for _, j := range ended {
		close(j.done)
	}
	if row.log != "" {
		for _, j := range ended {
			args := []any{"job", j.ID, "key", j.Key, "trace", j.Trace}
			if o.cause != nil {
				args = append(args, "cause", o.cause)
			}
			s.log.Info(row.log, args...)
		}
	}
	return len(ended)
}

// endRecord is a job's terminal journal record. A cancellation whose
// cause is the shutdown itself is journaled as an interrupt, which
// carries no state: at replay it is a hint ("the last process stopped
// on purpose with this job still live"), not a terminal record, and the
// job re-enqueues from its submit record like a crash victim.
func endRecord(j *Job, o outcome) store.Record {
	if o.state == StateCanceled && errors.Is(o.cause, errInterrupted) {
		return store.Record{Type: store.RecInterrupt, Job: j.ID, Key: j.Key, Time: o.at}
	}
	errMsg := ""
	if o.cause != nil {
		errMsg = o.cause.Error()
	}
	return finishRecord(j.ID, j.Key, o.state, errMsg, o.res, o.at)
}

// newFlight opens a queued computation for key, holding one queue
// slot, with no job attached yet. Server.mu must be held.
func (s *Server) newFlight(key string, seqs []bio.Sequence, opts Resolved, now time.Time) *flight {
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	fl := &flight{
		key:      key,
		trace:    newTraceID(),
		seqs:     seqs,
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		bus:      s.newEventBus(),
		enqueued: now,
		state:    StateQueued,
	}
	s.inflight[key] = fl
	s.queued++
	return fl
}

// attach makes job a waiter of fl — its first, or a coalesced rider of
// the jobs already there — and records it. Server.mu must be held.
func (s *Server) attach(job *Job, fl *flight, now time.Time) {
	if len(fl.jobs) > 0 {
		job.coalesced = true
	}
	job.fl, job.Trace, job.bus = fl, fl.trace, fl.bus
	job.state = StateQueued
	if fl.state == StateRunning {
		// Never queued: it attached straight to a running flight. Riders
		// attached while the flight waits are observed as "dispatched"
		// with everyone else when it starts.
		job.state = StateRunning
		job.started = now
		s.metrics.QueueWait.Observe("coalesced", now.Sub(job.Submitted).Seconds())
	}
	fl.jobs = append(fl.jobs, job)
	s.rememberLocked(job)
}

// popLocked is a dispatcher taking the queue head: the flight and every
// rider go queued → running at once, and the flight gives its queue
// slot back, so holding a slot is exactly state == StateQueued. It
// returns the flight and the riders it started. Server.mu must be held.
func (s *Server) popLocked(now time.Time) (*flight, []*Job) {
	fl := s.fifo[0]
	s.fifo = s.fifo[1:]
	s.queued--
	fl.state = StateRunning
	for _, j := range fl.jobs {
		j.mu.Lock()
		j.state, j.started = StateRunning, now
		j.mu.Unlock()
		s.metrics.QueueWait.Observe("dispatched", now.Sub(j.Submitted).Seconds())
	}
	return fl, slices.Clone(fl.jobs)
}

// detachLocked takes j off its flight. A flight it leaves without a
// waiter before the verdict is returned for the caller to stop: a
// queued one is over here (canceled, out of the queue, its slot given
// back; queued is true), a running one unwinds once its context is
// canceled. Server.mu must be held.
func (s *Server) detachLocked(j *Job) (stop *flight, queued bool) {
	fl := j.fl
	if fl == nil {
		return nil, false
	}
	j.fl = nil
	fl.jobs = slices.DeleteFunc(fl.jobs, func(w *Job) bool { return w == j })
	if len(fl.jobs) > 0 || fl.state.Terminal() {
		return nil, false
	}
	if s.inflight[fl.key] == fl {
		delete(s.inflight, fl.key)
	}
	if fl.state != StateQueued {
		return fl, false
	}
	fl.state = StateCanceled
	fl.seqs = nil
	s.fifo = slices.DeleteFunc(s.fifo, func(q *flight) bool { return q == fl })
	s.queued--
	return fl, true
}

// cancelJob detaches one job from its flight and ends it canceled. The
// flight is stopped only when no other waiter still wants its result,
// so a thundering herd sharing one computation cannot be killed by a
// single impatient client.
func (s *Server) cancelJob(j *Job, cause error) bool {
	if cause == nil {
		cause = context.Canceled
	}
	s.mu.Lock()
	fl, queued := s.detachLocked(j)
	s.mu.Unlock()
	live := s.end(evCancel, outcome{state: StateCanceled, cause: cause, at: time.Now()}, j) > 0
	if fl != nil {
		fl.cancel(cause) // unwinds the rank world if running
		if queued {
			fl.bus.Close() // no dispatcher will ever run it: the stream ends here
		}
	}
	return live
}

// run journals the start of a popped flight as one group, executes it,
// and lands it with the executor's verdict.
func (s *Server) run(fl *flight, riders []*Job, started time.Time) {
	recs := make([]store.Record, len(riders))
	for i, j := range riders {
		recs[i] = store.Record{Type: store.RecStart, Job: j.ID, Key: fl.key, Time: started}
	}
	s.journalAppendBatch(recs)
	s.publish(fl.bus, Event{Type: eventStarted, Trace: fl.trace})

	res, err := s.execute(fl)
	elapsed := time.Since(started)
	s.metrics.RunSeconds.Observe(elapsed.Seconds())
	o := outcome{state: StateDone, res: res, at: time.Now()}
	switch {
	case err == nil:
		res.Elapsed = elapsed
		// Persist before landing: both tiers hold the result by the time
		// any rider, or a submission racing the in-flight map removal
		// below, looks for it.
		s.cache.Put(fl.key, res, res.sizeBytes())
		s.storePut(fl.key, res)
		s.storePutTrace(fl.key, res)
	case fl.ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The flight's own cancellation, whatever clothing the executor
		// put on it (closed communicators, peer death). Its recorded
		// cause says why: "client disconnected", "job deadline (2s)
		// exceeded" rather than just "context canceled".
		o.state, o.cause = StateCanceled, err
		if cause := context.Cause(fl.ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			o.cause = cause
		}
	default:
		o.state, o.cause = StateFailed, err
	}

	s.mu.Lock()
	if s.inflight[fl.key] == fl {
		delete(s.inflight, fl.key)
	}
	fl.state = o.state
	fl.tracer = nil // live-snapshot window over; the trace now lives in the result
	fl.seqs = nil
	riders = slices.Clone(fl.jobs)
	for _, j := range riders {
		s.detachLocked(j)
	}
	s.mu.Unlock()
	s.end(evFinish, o, riders...)
	if o.state == StateDone {
		s.log.Info("flight finished", "key", fl.key, "trace", fl.trace, "elapsed", elapsed, "jobs", len(riders))
	} else {
		s.log.Warn("flight ended without result", "key", fl.key, "trace", fl.trace,
			"state", string(o.state), "elapsed", elapsed, "err", o.cause)
	}
	fl.bus.Close() // ends every /events stream still riding this flight
	fl.cancel(nil) // release the context resources
}

// rememberLocked stores the job record, pruning the oldest terminal
// jobs beyond maxJobs: a live job is never dropped, whatever the cap,
// and neither is the job being remembered. Server.mu must be held.
func (s *Server) rememberLocked(job *Job) {
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	excess := len(s.order) - s.maxJobs
	// The oldest record is nearly always terminal: pop it off the head.
	for excess > 0 && s.order[0] != job.ID && s.dropIfTerminalLocked(s.order[0]) {
		s.order[0] = "" // the backing array outlives the reslice
		s.order = s.order[1:]
		excess--
	}
	if excess <= 0 {
		return
	}
	// A live job heads the table: look past it for terminal records.
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 && id != job.ID && s.dropIfTerminalLocked(id) {
			excess--
			continue
		}
		kept = append(kept, id)
	}
	clear(s.order[len(kept):])
	s.order = kept
}

// dropIfTerminalLocked deletes the record of job id if the job has
// finished, and reports whether it did. Server.mu must be held.
func (s *Server) dropIfTerminalLocked(id string) bool {
	j := s.jobs[id]
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		delete(s.jobs, id)
	}
	return terminal
}
