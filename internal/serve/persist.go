package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bio"
	"repro/internal/fasta"
	"repro/internal/store"
)

// This file is the glue between the job service and the store package:
// what goes into journal records, how a result is laid out on disk,
// and how a journal replay is folded back into server state.
//
// Journal schema (store.Record.Data by record type):
//
//	submit    submitData — resolved options, input FASTA (omitted for
//	          cache-hit submissions, which carry a finish record in the
//	          same commit group and are never re-run)
//	finish    finishData — terminal state done/failed/canceled, cause,
//	          result summary, and when the job started (if it ran and
//	          was no cache hit: a hit starts at its finish record's
//	          time, which replay reads for a submit marked cached;
//	          earlier builds wrote it for hits too, and replay reads it)
//	interrupt (no data) — a shutdown casualty; not terminal
//	shutdown  (no data) — clean server Close
//
// Journals written by earlier builds also hold "start" records, which
// replay ignores, and "cancel" records, which it reads as finish.
//
// Replay: a submit with no terminal record is re-enqueued (its FASTA
// is the input); one with a terminal record becomes a visible finished
// job. On open the journal is compacted: finished jobs keep only a
// FASTA-less submit + their finish record, pruned beyond maxJobs.

// submitData is the submit record payload.
type submitData struct {
	Opts      Resolved `json:"opts"`
	NumSeqs   int      `json:"num_seqs"`
	FASTA     []byte   `json:"fasta,omitempty"`
	Cached    bool     `json:"cached,omitempty"`
	Coalesced bool     `json:"coalesced,omitempty"`
}

// retiredInSubmit reports a retired option set in a journaled submit
// record: a build that still had the option wrote it, and Resolved no
// longer decodes the field.
func retiredInSubmit(data []byte) error {
	var sub struct {
		Opts map[string]json.RawMessage `json:"opts"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		return err
	}
	return refuseRetired(func(name string) string { return string(sub.Opts[name]) })
}

// replayInput reads a journaled job's input back. The pipeline a
// retired option asked for is gone and the job's key describes that
// pipeline, so a submit carrying one is an error, not a different job.
func replayInput(subData, text []byte) ([]bio.Sequence, error) {
	if err := retiredInSubmit(subData); err != nil {
		return nil, err
	}
	seqs, err := fasta.Read(bytes.NewReader(text))
	if err == nil && len(seqs) == 0 {
		err = errors.New("no sequences")
	}
	if err != nil {
		return nil, fmt.Errorf("journaled input unreadable: %w", err)
	}
	return seqs, nil
}

// finishData is the finish record payload.
type finishData struct {
	State   State     `json:"state"`
	Error   string    `json:"error,omitempty"`
	Summary *Result   `json:"summary,omitempty"` // a result file's meta block is this plus the trace (diskMeta)
	Started time.Time `json:"started,omitzero"`  // zero for a job that never ran or was a cache hit
}

// RecoveryInfo summarises what a journal replay reconstructed.
type RecoveryInfo struct {
	Enabled        bool `json:"enabled"`
	JournalRecords int  `json:"journal_records"` // intact records replayed
	Finished       int  `json:"finished"`        // terminal jobs restored to the job table
	Requeued       int  `json:"requeued"`        // unfinished jobs re-enqueued
	Interrupted    int  `json:"interrupted"`     // of Requeued: drain-timeout casualties of the previous shutdown
	CleanShutdown  bool `json:"clean_shutdown"`  // previous process closed cleanly
}

// Recovery reports what startup replay found. Zero value (Enabled
// false) without a DataDir.
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// openPersistence locks the data directory, opens the result store and
// the journal, replays the journal into server state and compacts it.
// Called from New before any dispatcher starts, so replay never races
// a live submission.
func (s *Server) openPersistence() error {
	dir := s.cfg.DataDir
	unlock, err := store.LockDir(dir)
	if err != nil {
		return err
	}
	s.unlockDir = unlock
	// Earlier builds kept traces in a second store; a trace now lives in
	// its result's file.
	old := filepath.Join(dir, "traces")
	if _, err := os.Stat(old); err == nil {
		s.log.Info("removed the trace store of an earlier build", "dir", old, "err", os.RemoveAll(old))
	}
	if s.cfg.StoreEntries >= 0 { // -1 disables the disk result tier; -1 bytes is unbounded
		s.results, err = store.OpenResults(filepath.Join(dir, "results"), s.cfg.StoreEntries, s.cfg.StoreBytes)
		if err != nil {
			s.unlockDir()
			s.unlockDir = nil
			return fmt.Errorf("serve: opening result store: %w", err)
		}
	}
	journal, recs, err := store.OpenJournalOptions(filepath.Join(dir, "journal.wal"), store.JournalOptions{
		OnFlush: func(records, bytes int64) {
			s.metrics.GroupRecords.Observe(float64(records))
		},
	})
	if err != nil {
		s.unlockDir()
		s.unlockDir = nil
		return fmt.Errorf("serve: opening journal: %w", err)
	}
	s.journal = journal
	s.recovery.Enabled = true
	s.recoverFromJournal(recs)
	return nil
}

// journalAppendBatch best-effort appends a record group covered by a
// single fsync (store.Journal.AppendBatch): either every record in it
// becomes durable or none does. A journal I/O error degrades
// durability, not service: it is logged and the jobs proceed.
func (s *Server) journalAppendBatch(recs []store.Record) {
	if s.journal == nil || len(recs) == 0 {
		return
	}
	if err := s.journal.AppendBatch(recs); err != nil {
		s.log.Warn("journal batch append failed", "records", len(recs), "err", err)
	}
}

func submitRecord(id, key string, at time.Time, sd submitData) store.Record {
	data, _ := json.Marshal(sd)
	return store.Record{Type: store.RecSubmit, Job: id, Key: key, Time: at, Data: data}
}

func finishRecord(id, key string, at time.Time, fd finishData) store.Record {
	data, _ := json.Marshal(fd)
	return store.Record{Type: store.RecFinish, Job: id, Key: key, Time: at, Data: data}
}

// diskMeta is a result file's meta block: the summary plus the span
// trace, which Result's own JSON leaves out so that journal records
// never carry one. A file written by an earlier build has no trace.
type diskMeta struct {
	Result
	Trace json.RawMessage `json:"trace,omitempty"`
}

// decodeMeta decodes the meta block of key's result file, logging one
// that will not decode.
func (s *Server) decodeMeta(key string, meta []byte) (*diskMeta, bool) {
	var m diskMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		s.log.Warn("result meta unreadable", "key", key, "err", err)
		return nil, false
	}
	return &m, true
}

// storePut persists a finished result and its trace content-addressed
// on disk, in one file, and reports whether the store took it.
func (s *Server) storePut(key string, res *Result) bool {
	if s.results == nil {
		return false
	}
	meta, err := json.Marshal(diskMeta{Result: *res, Trace: res.Trace})
	if err == nil {
		err = s.results.Put(key, meta, res.FASTA)
	}
	if err != nil {
		s.log.Warn("persisting result failed", "key", key, "err", err)
	}
	return err == nil
}

// recoverFromJournal folds replayed records into server state:
// finished jobs become visible job records, unfinished ones are
// re-enqueued (coalescing by content address, exactly like live
// submissions), and the journal is compacted to drop dead payloads.
// Runs single-threaded from New — no dispatchers, no HTTP yet.
func (s *Server) recoverFromJournal(recs []store.Record) {
	type rj struct {
		id, key     string
		submitted   time.Time
		sub         *submitData
		subData     []byte     // the submit record as journaled, for retiredInSubmit
		fin         finishData // the terminal record's payload; State is StateQueued until one arrives
		finished    time.Time
		interrupted bool // hard-canceled by the previous shutdown, not by a caller
	}
	var order []*rj
	byID := make(map[string]*rj)
	// A job's records usually appear submit → finish, but appends race
	// the server lock, so replay tolerates any order per job: records
	// merge into one entry keyed by job ID, and a terminal record wins
	// whenever it arrives.
	entry := func(rec store.Record) *rj {
		r := byID[rec.Job]
		if r == nil {
			r = &rj{id: rec.Job, key: rec.Key, submitted: rec.Time, fin: finishData{State: StateQueued}}
			byID[rec.Job] = r
			order = append(order, r)
		}
		return r
	}
	clean := true // an empty journal has nothing to have lost
	for _, rec := range recs {
		clean = rec.Type == store.RecShutdown
		switch rec.Type {
		case store.RecSubmit:
			var sd submitData
			if err := json.Unmarshal(rec.Data, &sd); err != nil {
				s.log.Warn("recovery: submit record unreadable", "job", rec.Job, "err", err)
				continue
			}
			r := entry(rec)
			r.sub, r.subData = &sd, rec.Data
			r.submitted = rec.Time
		case store.RecFinish, store.RecCancel:
			var fd finishData
			if err := json.Unmarshal(rec.Data, &fd); err != nil {
				s.log.Warn("recovery: finish record unreadable", "job", rec.Job, "err", err)
				continue
			}
			r := entry(rec)
			r.fin, r.finished = fd, rec.Time
		case store.RecInterrupt:
			// Deliberately NOT terminal: the previous shutdown killed
			// this job mid-flight, so it falls through to the requeue
			// path below exactly like a crash victim (unless a real
			// terminal record also exists, which wins).
			if r := entry(rec); !r.fin.State.Terminal() {
				r.interrupted = true
			}
		}
	}
	s.recovery.JournalRecords = len(recs)
	s.recovery.CleanShutdown = clean

	now := time.Now()
	for _, r := range order {
		if r.sub == nil {
			// A terminal or interrupt record whose submit half was torn
			// away by a crash (or whose submit JSON was unreadable):
			// nothing to restore or re-run.
			s.log.Warn("recovery: job has no submit record; dropped", "job", r.id)
			continue
		}
		job := &Job{
			ID:        r.id,
			Key:       r.key,
			Opts:      r.sub.Opts,
			Submitted: r.submitted,
			NumSeqs:   r.sub.NumSeqs,
			done:      make(chan struct{}),
			cached:    r.sub.Cached,
			coalesced: r.sub.Coalesced,
			recovered: !r.fin.State.Terminal(),
		}
		if job.recovered {
			if res, ok := s.lookupResult(r.key); ok {
				// The result already exists (crash after the store write
				// but before the finish record): restored, not re-run.
				job.cached = true
				r.fin.State, r.fin.Summary, r.finished = StateDone, summaryOf(res), now
			} else if len(r.sub.FASTA) == 0 {
				// No input to re-run: a cache-hit submit whose finish
				// half was torn away. The caller already got its answer
				// from the cache; resurrecting this as "failed" would
				// contradict what they saw, so drop it (and let
				// compaction shed it via the terminal-untracked path).
				s.log.Warn("recovery: job has no journaled input; dropped", "job", r.id)
				r.fin.State = StateCanceled
				continue
			} else if seqs, err := replayInput(r.subData, r.sub.FASTA); err == nil {
				// Re-enqueue under the original ID, coalescing by content
				// address like a live submission but with no MaxQueued
				// bound: these jobs were all admitted once already.
				fl := s.inflight[r.key]
				if fl == nil {
					fl = s.newFlight(r.key, seqs, r.sub.Opts, now)
					s.fifo = append(s.fifo, fl)
				}
				s.attach(job, fl, now)
				s.publishQueued(job)
				s.recovery.Requeued++
				if r.interrupted {
					s.recovery.Interrupted++
				}
				s.metrics.Recovered.Inc()
				continue
			} else {
				r.fin.State, r.finished = StateFailed, now
				r.fin.Error = fmt.Sprintf("recovery: %v", err)
			}
		}
		// Terminal in the journal (or just restored or failed above): a
		// visible finished job record, never re-run.
		o := outcome{state: r.fin.State, res: r.fin.Summary, at: r.finished}
		if r.fin.Error != "" {
			o.cause = errors.New(r.fin.Error)
		}
		job.started = r.fin.Started
		if job.started.IsZero() && r.sub.Cached {
			job.started = r.finished // a cache hit started when it finished
		}
		s.end(evRestore, o, job)
		s.rememberLocked(job)
		s.recovery.Finished++
	}

	// Compact: finished jobs shed their input payload (and are pruned
	// beyond maxJobs, in step with the job table); unfinished ones keep
	// the FASTA they will re-run from.
	var compact []store.Record
	for _, r := range order {
		if r.sub == nil {
			continue // dropped above: no submit half to carry forward
		}
		sd := *r.sub
		if !r.fin.State.Terminal() {
			compact = append(compact, submitRecord(r.id, r.key, r.submitted, sd))
			continue
		}
		if _, tracked := s.jobs[r.id]; !tracked {
			continue // pruned from the job table: prune from the journal too
		}
		sd.FASTA = nil
		compact = append(compact, submitRecord(r.id, r.key, r.submitted, sd), finishRecord(r.id, r.key, r.finished, r.fin))
	}
	if err := s.journal.Rewrite(compact); err != nil {
		s.log.Warn("journal compaction failed", "err", err)
	}

	// Recovered jobs restart their deadline budget at replay time — the
	// original submission clock includes the downtime, which is the
	// server's fault, not the caller's.
	for _, fl := range s.fifo {
		for _, job := range fl.jobs {
			s.armDeadline(job, now)
		}
	}
}
