package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bio"
	"repro/internal/fasta"
	"repro/internal/store"
)

// This file is admission: the one way a live submission becomes a job.
// Submit is a batch of one; journal replay (persist.go) builds its
// flights through the same newFlight/attach transitions (lifecycle.go).

// BatchItem is one input of a batch submission: a parsed FASTA set and
// the options it should run under.
type BatchItem struct {
	Seqs []bio.Sequence
	Opts Options
}

// Submit validates, cache-checks, coalesces and enqueues one job. The
// returned job may already be terminal (cache or store hit) or riding
// an existing flight (identical in-flight submission). errOverloaded
// means the queue is at MaxQueued; *BadRequestError wraps client
// mistakes.
func (s *Server) Submit(seqs []bio.Sequence, o Options) (*Job, error) {
	jobs, _, err := s.admit([]BatchItem{{Seqs: seqs, Opts: o}})
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// SubmitBatch admits many independent submissions as one atomic unit.
// Each item behaves exactly like a single Submit — cache tiers answer
// hits instantly, identical in-flight computations (including
// duplicates inside the batch itself) coalesce — but admission is
// all-or-nothing: either every item that needs a queue slot gets one or
// the whole batch is rejected with errOverloaded and no state changes.
// The accepted batch is journaled as one commit group, so either every
// member is durable or none is. Returned jobs are in item order.
func (s *Server) SubmitBatch(items []BatchItem) ([]*Job, error) {
	if len(items) == 0 {
		return nil, badRequest("batch has no inputs")
	}
	jobs, bad, err := s.admit(items)
	switch {
	case bad >= 0:
		return nil, badRequest("input %d: %v", bad, err)
	case errors.Is(err, errClosed):
		return nil, err
	case err != nil:
		s.metrics.BatchRejected.Inc()
		return nil, err
	}
	s.metrics.BatchSubmitted.Inc()
	s.metrics.BatchJobs.Add(int64(len(jobs)))
	newFlights := 0
	for _, job := range jobs {
		if !job.cached && !job.coalesced {
			newFlights++
		}
	}
	s.log.Info("batch accepted", "jobs", len(jobs), "new_flights", newFlights)
	return jobs, nil
}

// validate resolves one item's options and checks its sequences.
func (s *Server) validate(it BatchItem) (Resolved, error) {
	// A fixed-size cluster's rank count enters resolution itself, so
	// limits and the cache key both see the procs the job actually uses.
	opts, err := resolve(it.Opts, s.cfg.Defaults, s.cfg.Limits, s.cfg.Executor.FixedProcs())
	if err != nil {
		return opts, &BadRequestError{Err: err}
	}
	if len(it.Seqs) == 0 {
		return opts, badRequest("no sequences in input")
	}
	seen := make(map[string]bool, len(it.Seqs))
	for _, sq := range it.Seqs {
		if seen[sq.ID] {
			return opts, badRequest("duplicate sequence id %q (ids must be unique)", sq.ID)
		}
		seen[sq.ID] = true
		if len(sq.Data) == 0 {
			return opts, badRequest("sequence %q is empty", sq.ID)
		}
	}
	return opts, nil
}

// admit turns items into jobs, in item order: validate everything,
// look every item up in the cache tiers, then — atomically against
// MaxQueued — coalesce onto in-flight computations or open new flights,
// journal the whole admission as one commit group, end the cache hits
// and enqueue. Nothing is admitted unless everything is. bad is the
// index of the item a validation error names, -1 for every other
// outcome.
func (s *Server) admit(items []BatchItem) (jobs []*Job, bad int, err error) {
	// Refuse everything — cache hits included — once draining or closed:
	// a drained server must stop mutating its job table and journal (a
	// record landing after the shutdown marker would make the next boot
	// misreport a crash).
	s.mu.Lock()
	stopped := s.closed || s.draining
	s.mu.Unlock()
	if stopped {
		return nil, -1, errClosed
	}
	now := time.Now()
	jobs = make([]*Job, len(items))
	for i, it := range items {
		opts, err := s.validate(it)
		if err != nil {
			return nil, i, err
		}
		jobs[i] = &Job{
			ID:        newJobID(),
			Key:       cacheKey(it.Seqs, opts),
			Opts:      opts,
			Submitted: now,
			NumSeqs:   len(it.Seqs),
			done:      make(chan struct{}),
		}
	}

	// Content-addressed fast path: identical input + options were already
	// aligned; a hit is answered from the cache tiers without queueing.
	hits := make([]*Result, len(jobs))
	for i, job := range jobs {
		hits[i], _ = s.lookupResult(job.Key)
	}

	// All-or-nothing admission: count the queue slots needed — one per
	// distinct content address that is neither a cache hit nor already in
	// flight — and take them atomically against MaxQueued.
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil, -1, errClosed
	}
	need := 0
	distinct := make(map[string]bool)
	for i, job := range jobs {
		if hits[i] == nil && s.inflight[job.Key] == nil && !distinct[job.Key] {
			distinct[job.Key] = true
			need++
		}
	}
	if need > 0 && s.queued+need > s.cfg.MaxQueued {
		s.mu.Unlock()
		s.metrics.Rejected.Inc()
		if need > 1 && need > s.cfg.MaxQueued { // can never fit: a client error, not overload
			return nil, -1, badRequest("batch needs %d queue slots but the server admits at most %d", need, s.cfg.MaxQueued)
		}
		return nil, -1, errOverloaded
	}
	var newFlights []*flight
	for i, job := range jobs {
		if hits[i] != nil {
			continue
		}
		// An identical computation already queued or running — possibly
		// opened by an earlier item of this same admission — is ridden
		// instead of duplicated; the rider takes no queue slot.
		fl := s.inflight[job.Key]
		if fl == nil {
			fl = s.newFlight(job.Key, items[i].Seqs, job.Opts, now)
			newFlights = append(newFlights, fl)
		}
		s.attach(job, fl, now)
	}
	s.mu.Unlock()

	// Metrics, logs, progress events and the journal group. The whole
	// admission rides one AppendBatch — a crash leaves either every member
	// replayable or none — and lands before any flight can be dispatched:
	// once the caller sees an accepted job, a crash must not lose it.
	var records []store.Record
	for i, job := range jobs {
		s.metrics.Submitted.Inc()
		switch {
		case hits[i] != nil:
			s.metrics.CacheHits.Inc()
		case job.coalesced:
			s.metrics.Coalesced.Inc()
			s.log.Info("job coalesced onto in-flight computation",
				"job", job.ID, "key", job.Key, "trace", job.Trace)
		default:
			s.metrics.CacheMisses.Inc()
			s.log.Info("job accepted", "job", job.ID, "key", job.Key, "trace", job.Trace,
				"procs", job.Opts.Procs, "aligner", job.Opts.Aligner, "num_seqs", job.NumSeqs)
		}
		if hits[i] == nil {
			s.publishQueued(job)
		}
		if s.journal == nil {
			continue
		}
		sd := submitData{Opts: job.Opts, NumSeqs: job.NumSeqs, Cached: hits[i] != nil, Coalesced: job.coalesced}
		if hits[i] != nil {
			// Terminal on arrival: a FASTA-less submit plus its finish, so
			// the job stays visible after a restart without being re-run.
			records = append(records, endRecord(job, outcome{state: StateDone, res: hits[i], at: now}))
		} else {
			// Options plus the full input: enough to re-run from a cold start.
			sd.FASTA = []byte(fasta.FormatString(items[i].Seqs))
		}
		records = append(records, submitRecord(job.ID, job.Key, job.Submitted, sd))
	}
	s.journalAppendBatch(records)
	for i, job := range jobs {
		if hits[i] != nil {
			s.end(evHit, outcome{state: StateDone, res: hits[i], at: now}, job)
		}
	}

	// Enqueue. A shutdown that raced the journal write makes the new
	// flights' riders shutdown casualties (the next boot re-enqueues them
	// like every other) instead of leaving them undispatched.
	var casualties []*Job
	s.mu.Lock()
	for i, job := range jobs {
		if hits[i] != nil {
			s.rememberLocked(job)
		}
	}
	for _, fl := range newFlights {
		switch {
		case fl.state != StateQueued:
			// Canceled while the group was being journaled; it was never
			// in the fifo, so nothing to remove.
		case s.closed:
			casualties = append(casualties, fl.jobs...)
		default:
			s.fifo = append(s.fifo, fl)
			s.cond.Signal()
		}
	}
	s.mu.Unlock()
	for _, j := range casualties {
		s.cancelJob(j, errInterrupted)
	}
	for _, job := range jobs {
		s.armDeadline(job, now)
	}
	return jobs, -1, nil
}

// publishQueued announces an attached job on its flight's stream.
func (s *Server) publishQueued(job *Job) {
	s.publish(job.bus, Event{Type: eventQueued, Job: job.ID, Trace: job.Trace,
		Coalesced: job.coalesced, Recovered: job.recovered})
}

// armDeadline schedules the job's deadline, counted from `from` (the
// submission — queueing time is the server's problem, not extra
// budget; recovered jobs restart their budget at replay).
func (s *Server) armDeadline(job *Job, from time.Time) {
	d := job.Opts.Timeout
	if d <= 0 {
		return
	}
	cause := fmt.Errorf("job deadline (%v) exceeded", d)
	fire := time.Until(from.Add(d))
	if fire < 0 {
		fire = 0
	}
	job.mu.Lock()
	if !job.state.Terminal() {
		job.timer = time.AfterFunc(fire, func() { s.cancelJob(job, cause) })
	}
	job.mu.Unlock()
}
