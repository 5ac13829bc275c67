package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/bio"
	"repro/internal/fasta"
)

// maxRequestBytes bounds submit bodies (gzip-expanded FASTA included,
// since the limit applies to the wire bytes before decompression).
const maxRequestBytes = 128 << 20

// SubmitRequest is the JSON submit body. Raw FASTA bodies (text/*,
// application/octet-stream, or anything starting with '>' or the gzip
// magic) are accepted too, with options taken from query parameters.
type SubmitRequest struct {
	FASTA   string  `json:"fasta"`
	Options Options `json:"options"`
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs             submit (async) → 202 + job status JSON
//	POST   /v1/batch            submit many inputs in one request (JSON,
//	                            all-or-nothing admission, one journal
//	                            commit group) → per-input job statuses
//	GET    /v1/jobs/{id}        status JSON
//	GET    /v1/jobs/{id}/result aligned FASTA
//	GET    /v1/jobs/{id}/trace  span-tree JSON of the pipeline run (a live
//	                            snapshot with X-Trace-Incomplete while running)
//	GET    /v1/jobs/{id}/events live progress stream (Server-Sent Events);
//	                            disconnecting never cancels the job
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/align            submit + wait (sync) → aligned FASTA;
//	                            client disconnect cancels the job
//	GET    /healthz             liveness + queue stats
//	GET    /metrics             Prometheus text metrics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/align", s.handleAlignSync)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// submitError maps Submit errors onto status codes.
func submitError(w http.ResponseWriter, err error) {
	var bad *BadRequestError
	switch {
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// parseSubmit extracts the sequences and options from a submit body.
func parseSubmit(r *http.Request) ([]bio.Sequence, Options, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		return nil, Options{}, badRequest("reading body: %v", err)
	}
	if len(body) > maxRequestBytes {
		return nil, Options{}, badRequest("request body exceeds %d bytes", maxRequestBytes)
	}
	var o Options
	fastaText := body
	if isJSONSubmit(r, body) {
		var req SubmitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, Options{}, badRequest("decoding JSON body: %v", err)
		}
		o = req.Options
		fastaText = []byte(req.FASTA)
	}
	if err := optionsFromQuery(r, &o); err != nil {
		return nil, Options{}, err
	}
	// Gzip input would inflate inside fasta.Read, where the wire-byte
	// limit above cannot bound memory: inflate here with a cap on the
	// *expanded* size, or a small gzip bomb could OOM the server.
	if len(fastaText) >= 2 && fastaText[0] == 0x1f && fastaText[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(fastaText))
		if err != nil {
			return nil, Options{}, badRequest("gzip body: %v", err)
		}
		expanded, err := io.ReadAll(io.LimitReader(zr, maxRequestBytes+1))
		if err != nil {
			return nil, Options{}, badRequest("gzip body: %v", err)
		}
		if len(expanded) > maxRequestBytes {
			return nil, Options{}, badRequest("decompressed body exceeds %d bytes", maxRequestBytes)
		}
		fastaText = expanded
	}
	seqs, err := fasta.Read(bytes.NewReader(fastaText))
	if err != nil {
		return nil, Options{}, badRequest("parsing FASTA: %v", err)
	}
	return seqs, o, nil
}

func isJSONSubmit(r *http.Request, body []byte) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, _, err := mime.ParseMediaType(ct); err == nil {
			if mt == "application/json" {
				return true
			}
			if strings.HasPrefix(mt, "text/") || mt == "application/octet-stream" {
				return false
			}
		}
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n") // subslice, no copy
	return len(trimmed) > 0 && trimmed[0] == '{'
}

// optionsFromQuery overlays query parameters (?procs=8&aligner=clustal…)
// onto o; they win over JSON body options.
func optionsFromQuery(r *http.Request, o *Options) error {
	q := r.URL.Query()
	getInt := func(name string, dst *int) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return badRequest("query %s=%q: %v", name, v, err)
		}
		*dst = n
		return nil
	}
	if err := getInt("procs", &o.Procs); err != nil {
		return err
	}
	if err := getInt("workers", &o.Workers); err != nil {
		return err
	}
	if err := getInt("k", &o.K); err != nil {
		return err
	}
	if err := getInt("sample_size", &o.SampleSize); err != nil {
		return err
	}
	if err := refuseRetired(q.Get); err != nil {
		return &BadRequestError{Err: err}
	}
	if v := q.Get("aligner"); v != "" {
		o.Aligner = v
	}
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return badRequest("query timeout_ms=%q: %v", v, err)
		}
		o.TimeoutMs = ms
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	seqs, o, err := parseSubmit(r)
	if err != nil {
		submitError(w, err)
		return
	}
	job, err := s.Submit(seqs, o)
	if err != nil {
		submitError(w, err)
		return
	}
	v := job.View()
	code := http.StatusAccepted
	if v.State.Terminal() { // cache hit: done before the response left
		code = http.StatusOK
	}
	writeJSON(w, code, v)
}

// BatchRequest is the JSON body of POST /v1/batch: many FASTA inputs
// submitted in one request. Request-level Options apply to every input
// that does not set its own; query parameters overlay both.
type BatchRequest struct {
	Inputs  []SubmitRequest `json:"inputs"`
	Options Options         `json:"options"`
}

// BatchResponse lists the per-input jobs in input order.
type BatchResponse struct {
	Jobs []JobView `json:"jobs"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		submitError(w, badRequest("reading body: %v", err))
		return
	}
	if len(body) > maxRequestBytes {
		submitError(w, badRequest("request body exceeds %d bytes", maxRequestBytes))
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		submitError(w, badRequest("decoding JSON body: %v", err))
		return
	}
	if len(req.Inputs) == 0 {
		submitError(w, badRequest("batch has no inputs"))
		return
	}
	items := make([]BatchItem, len(req.Inputs))
	for i, in := range req.Inputs {
		o := in.Options
		if o == (Options{}) {
			o = req.Options
		}
		if err := optionsFromQuery(r, &o); err != nil {
			submitError(w, err)
			return
		}
		seqs, err := fasta.Read(strings.NewReader(in.FASTA))
		if err != nil {
			submitError(w, badRequest("input %d: parsing FASTA: %v", i, err))
			return
		}
		items[i] = BatchItem{Seqs: seqs, Opts: o}
	}
	jobs, err := s.SubmitBatch(items)
	if err != nil {
		submitError(w, err)
		return
	}
	resp := BatchResponse{Jobs: make([]JobView, len(jobs))}
	code := http.StatusOK
	for i, job := range jobs {
		resp.Jobs[i] = job.View()
		if !resp.Jobs[i].State.Terminal() {
			code = http.StatusAccepted // at least one job still pending
		}
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	s.writeResult(w, job)
}

// writeResult answers with a job's outcome: a done job's FASTA, served
// straight from the job record or the memory cache when the payload is
// already resident and otherwise streamed from the disk store, so peak
// memory never scales with alignment size; an error for a job that
// failed, was canceled, or has not finished.
func (s *Server) writeResult(w http.ResponseWriter, job *Job) {
	res, state, err := job.resultIfDone()
	switch state {
	case StateDone:
		if res != nil && res.FASTA != nil {
			writeFASTA(w, job, res.FASTA)
			return
		}
		if cres, ok := s.cache.Get(job.Key); ok {
			writeFASTA(w, job, cres.FASTA)
			return
		}
		if s.streamResult(w, job) {
			return
		}
		writeError(w, http.StatusGone, "result evicted from the cache; resubmit the job")
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %v", err)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled: %v", err)
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job is %s; retry later", state)
	}
}

// streamResult serves a done job's payload directly from the on-disk
// store via chunked transfer: no Content-Length, a small copy buffer,
// checksum verified as the bytes flow. A corrupt file aborts the
// response mid-stream (the client sees a truncated chunked body, never
// a clean EOF over bad data).
func (s *Server) streamResult(w http.ResponseWriter, job *Job) bool {
	if s.results == nil {
		return false
	}
	_, rc, _, ok := s.results.Open(job.Key)
	if !ok {
		return false
	}
	defer func() { _ = rc.Close() }() // read side; corruption already surfaced via Open
	writeFASTAHeaders(w, job)
	w.WriteHeader(http.StatusOK)
	// Commit the header now: with no Content-Length this locks the
	// response into chunked transfer, so nothing below ever buffers the
	// whole payload (net/http would otherwise synthesize a length for
	// small bodies).
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	// Copy by hand so read-side failures (corruption, disk faults) are
	// distinguishable from the client going away: the former must abort
	// the response — a chunked body must never terminate cleanly over
	// bad or truncated data — while the latter just ends the work.
	buf := make([]byte, 64<<10)
	for {
		n, rerr := rc.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client went away mid-stream
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			panic(http.ErrAbortHandler)
		}
	}
	s.metrics.Streamed.Inc()
	return true
}

// lookupTrace finds a done job's span tree: the job record first, then
// the memory cache's full result, then the on-disk trace store.
func (s *Server) lookupTrace(job *Job, res *Result) ([]byte, bool) {
	if res != nil && len(res.Trace) > 0 {
		return res.Trace, true
	}
	if cres, ok := s.cache.Get(job.Key); ok && len(cres.Trace) > 0 {
		return cres.Trace, true
	}
	if s.traces != nil {
		if _, payload, ok := s.traces.Get(job.Key); ok {
			return payload, true
		}
	}
	return nil, false
}

// handleTrace serves a job's span tree as indented JSON. A running job
// answers 200 with a live snapshot of the in-progress tree (unended
// spans carry zero durations) marked by an X-Trace-Incomplete header.
// Unknown job → 404; queued (no tracer yet) → 409; finished without a
// trace (tracing disabled, or a failed/canceled run) → 404; trace
// recorded but since evicted from every tier → 410.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	res, state, err := job.resultIfDone()
	switch state {
	case StateDone:
		doc, ok := s.lookupTrace(job, res)
		if !ok {
			// The trace ID outlives the trace itself: it still keys log
			// lines even when tracing is off, so distinguish "never
			// recorded" from "recorded but evicted" via cfg, not the ID.
			if s.cfg.NoTrace || job.Trace == "" {
				writeError(w, http.StatusNotFound, "no trace recorded for this job (tracing disabled)")
			} else {
				writeError(w, http.StatusGone, "trace evicted; resubmit the job")
			}
			return
		}
		var buf bytes.Buffer
		if json.Indent(&buf, doc, "", "  ") != nil {
			buf = *bytes.NewBuffer(doc) // serve verbatim if it will not re-indent
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Job-Id", job.ID)
		if job.Trace != "" {
			w.Header().Set("X-Trace-Id", job.Trace)
		}
		w.Write(buf.Bytes())
	case StateFailed:
		writeError(w, http.StatusNotFound, "job failed; no trace: %v", err)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled: %v", err)
	default:
		if tr := s.liveTracer(job); tr != nil {
			doc, derr := json.MarshalIndent(tr.Document(), "", "  ")
			if derr == nil {
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("X-Job-Id", job.ID)
				w.Header().Set("X-Trace-Id", job.Trace)
				w.Header().Set("X-Trace-Incomplete", "1")
				w.Write(doc)
				return
			}
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job is %s; trace is available once done", state)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	live, err := s.Cancel(id, errors.New("canceled by client request"))
	if errors.Is(err, errNotFound) {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "canceled": live})
}

// handleAlignSync is submit + wait in one request. The job is bound to
// the request: if the client disconnects, the context cancellation
// propagates into the running alignment and frees its workers.
func (s *Server) handleAlignSync(w http.ResponseWriter, r *http.Request) {
	seqs, o, err := parseSubmit(r)
	if err != nil {
		submitError(w, err)
		return
	}
	job, err := s.Submit(seqs, o)
	if err != nil {
		submitError(w, err)
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		s.cancelJob(job, errors.New("client disconnected"))
		return // client is gone; nothing to write
	}
	s.writeResult(w, job)
}

func writeFASTAHeaders(w http.ResponseWriter, job *Job) {
	w.Header().Set("Content-Type", "text/x-fasta; charset=utf-8")
	w.Header().Set("X-Job-Id", job.ID)
	w.Header().Set("X-Cache-Key", job.Key)
	if job.View().Cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
}

func writeFASTA(w http.ResponseWriter, job *Job, payload []byte) {
	writeFASTAHeaders(w, job)
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":   "ok",
		"executor": s.cfg.Executor.Name(),
		"uptime_s": int64(time.Since(s.started).Seconds()),
		"queue":    s.Stats(),
	}
	if rec := s.Recovery(); rec.Enabled {
		body["persistence"] = map[string]any{
			"data_dir": s.cfg.DataDir,
			"recovery": rec,
		}
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var persist *PersistGauges
	if s.journal != nil || s.results != nil {
		persist = &PersistGauges{}
		if s.results != nil {
			persist.StoreEntries = int64(s.results.Len())
			persist.StoreBytes = s.results.Bytes()
			persist.StoreEvictions = s.results.Evictions()
		}
		if s.journal != nil {
			persist.JournalRecords = s.journal.Records()
			persist.JournalBytes = s.journal.Bytes()
			persist.JournalFsyncs = s.journal.Flushes()
			persist.JournalFlushedRecords = s.journal.FlushedRecords()
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.metrics.Render(s.Stats(), s.cache.Evictions(), persist))
}
