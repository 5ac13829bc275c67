package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	samplealign "repro"
	"repro/internal/fasta"
	"repro/internal/msa"
	"repro/internal/rose"
)

// serve_mix drives a real durable server over loopback HTTP with a
// closed loop of serveClients clients, one keep-alive connection each:
// a client sends its next request only after the previous one
// completed. One step is
//
//	1 cold  POST /v1/align            (a body the server has never seen)
//	16 hits POST /v1/align            (bodies from the client's last serveWindow steps)
//	1 fetch GET  /v1/jobs/{id}/result (a job from the same window)
//
// and one op is serveSteps steps per client against a freshly booted
// server, so every op does the same work and returns the same bytes. Jobs are small (8 sequences of length
// 100, ≈ 3 ms of alignment) so that admission, journal, queue, cache,
// store and respond carry a large share of the op.
const (
	serveClients = 2
	serveSteps   = 240
	serveWindow  = 16
	serveHits    = 16
	serveSampled = 5 // cold jobs per op recomputed locally and compared byte for byte
)

var serveMix = workload{
	name: "serve_mix",
	setup: func(cfg runConfig) (runner, error) {
		steps := serveSteps
		if cfg.quick {
			steps = 6
		}
		r, err := newServeRunner(subSeed(cfg.seed, "serve_mix"), steps)
		if err != nil {
			return nil, err
		}
		if _, err := r.op(); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		return r, nil
	},
}

// serveStep is one client's step: its cold job and which earlier steps
// (of the same client, ≤ this one) it resubmits and fetches.
type serveStep struct {
	data  *dataset // the cold job's 8-sequence family and its q_score pair
	body  []byte   // the job as FASTA
	hits  [serveHits]int
	fetch int
}

// serveSamples are client-side latencies by request class, in seconds.
type serveSamples struct {
	cold, hit, fetch []float64
	rejected         int // HTTP 429 responses
}

type serveRunner struct {
	plan    [serveClients][]serveStep
	sampled [][2]int // (client, step) of the jobs recomputed locally

	replies [serveClients][][]byte // last op: cold response bodies by client and step
	samples serveSamples           // last op
	scrape  [2]string              // last op: /metrics before and after the timed block
}

func newServeRunner(seed int64, steps int) (*serveRunner, error) {
	rng := rand.New(rand.NewSource(seed))
	r := &serveRunner{}
	for c := range r.plan {
		for s := 0; s < steps; s++ {
			data, err := fromFamilies([]rose.Config{{N: 8, MeanLen: 100, Relatedness: 400, Seed: rng.Int63()}}, 1, rng)
			if err != nil {
				return nil, err
			}
			var body bytes.Buffer
			if err := fasta.Write(&body, data.seqs); err != nil {
				return nil, err
			}
			st := serveStep{data: data, body: body.Bytes()}
			lo := max(0, s-serveWindow+1)
			for h := range st.hits {
				st.hits[h] = lo + rng.Intn(s-lo+1)
			}
			st.fetch = lo + rng.Intn(s-lo+1)
			r.plan[c] = append(r.plan[c], st)
		}
	}
	for i := 0; i < serveSampled; i++ {
		r.sampled = append(r.sampled, [2]int{rng.Intn(serveClients), rng.Intn(steps)})
	}
	return r, nil
}

// op runs the block against a server that keeps everything in memory:
// with a data directory every request waits for several fsyncs, and on
// a shared disk their latency swings severalfold between runs, which
// no bound survives. The traced pass runs the same block against a
// durable server and reports its fsyncs as counts.
func (r *serveRunner) op() (opResult, error) { return r.run("") }

// run boots a server (durable when dataDir is set), drives the block
// through it, stops it and checks what it served.
func (r *serveRunner) run(dataDir string) (opResult, error) {
	srv, err := samplealign.NewServer(samplealign.ServerConfig{DefaultProcs: 2, MaxConcurrent: 2, DataDir: dataDir})
	if err != nil {
		return opResult{}, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return opResult{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()
	base := "http://" + ln.Addr().String()

	var clients [serveClients]*serveClient
	for c := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[c] = &serveClient{http: &http.Client{Transport: tr}, base: base, plan: r.plan[c]}
	}
	if r.scrape[0], err = clients[0].metrics(); err != nil {
		return opResult{}, err
	}

	w := startWatch()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.err = cl.run()
		}()
	}
	wg.Wait()
	wall, cpu := w.stop()

	if r.scrape[1], err = clients[0].metrics(); err != nil {
		return opResult{}, err
	}
	r.samples = serveSamples{}
	h := sha256.New()
	for c, cl := range clients {
		r.samples.cold = append(r.samples.cold, cl.samples.cold...)
		r.samples.hit = append(r.samples.hit, cl.samples.hit...)
		r.samples.fetch = append(r.samples.fetch, cl.samples.fetch...)
		r.samples.rejected += cl.samples.rejected
		if cl.err != nil {
			return opResult{}, fmt.Errorf("client %d: %w", c, cl.err)
		}
		r.replies[c] = cl.replies
		for _, body := range cl.replies {
			h.Write(body)
		}
	}
	for _, cs := range r.sampled {
		st := r.plan[cs[0]][cs[1]]
		aln, _, err := samplealign.Align(st.data.seqs, 2)
		if err != nil {
			return opResult{}, err
		}
		var want bytes.Buffer
		if err := samplealign.WriteFASTA(&want, aln.Seqs); err != nil {
			return opResult{}, err
		}
		if !bytes.Equal(want.Bytes(), r.replies[cs[0]][cs[1]]) {
			return opResult{}, fmt.Errorf("client %d step %d: served bytes differ from samplealign.Align(seqs, 2)", cs[0], cs[1])
		}
	}
	res := opResult{wall: wall, cpu: cpu}
	h.Sum(res.hash[:0])
	return res, nil
}

// qScore is the mean Q over the last op's cold jobs, one seeded
// intra-family pair per job; it also runs the alignment checks on
// every served job.
func (r *serveRunner) qScore() (float64, error) {
	var sum float64
	n := 0
	for c := range r.plan {
		for s, st := range r.plan[c] {
			rows, err := fasta.Read(bytes.NewReader(r.replies[c][s]))
			if err != nil {
				return 0, err
			}
			aln := &msa.Alignment{Seqs: rows}
			if err := checkAlignment(aln, st.data.seqs); err != nil {
				return 0, fmt.Errorf("client %d step %d: %w", c, s, err)
			}
			q, err := st.data.qScore(aln)
			if err != nil {
				return 0, err
			}
			sum += q
			n++
		}
	}
	return sum / float64(n), nil
}

// serveClient is one closed-loop client.
type serveClient struct {
	http *http.Client
	base string
	plan []serveStep

	replies [][]byte // cold response body per step
	jobIDs  []string // cold job ID per step
	samples serveSamples
	err     error
}

func (c *serveClient) run() error {
	for s, st := range c.plan {
		body, id, err := c.align(st.body, "miss", &c.samples.cold)
		if err != nil {
			return fmt.Errorf("step %d cold: %w", s, err)
		}
		c.replies = append(c.replies, body)
		c.jobIDs = append(c.jobIDs, id)
		for _, prev := range st.hits {
			body, _, err := c.align(c.plan[prev].body, "hit", &c.samples.hit)
			if err != nil {
				return fmt.Errorf("step %d resubmit of step %d: %w", s, prev, err)
			}
			if !bytes.Equal(body, c.replies[prev]) {
				return fmt.Errorf("step %d: cache hit for step %d returned different bytes", s, prev)
			}
		}
		t0 := time.Now()
		body, _, err = c.do(http.MethodGet, "/v1/jobs/"+c.jobIDs[st.fetch]+"/result", nil)
		c.samples.fetch = append(c.samples.fetch, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("step %d fetch of step %d: %w", s, st.fetch, err)
		}
		if !bytes.Equal(body, c.replies[st.fetch]) {
			return fmt.Errorf("step %d: fetched result of step %d differs from its submit response", s, st.fetch)
		}
	}
	return nil
}

// align posts one body to the synchronous endpoint, times it into
// samples and checks the cache verdict the server reports.
func (c *serveClient) align(body []byte, wantCache string, samples *[]float64) (reply []byte, jobID string, err error) {
	t0 := time.Now()
	reply, hdr, err := c.do(http.MethodPost, "/v1/align", body)
	*samples = append(*samples, time.Since(t0).Seconds())
	if err != nil {
		return nil, "", err
	}
	if got := hdr.Get("X-Cache"); got != wantCache {
		return nil, "", fmt.Errorf("X-Cache: %q, want %q", got, wantCache)
	}
	return reply, hdr.Get("X-Job-Id"), nil
}

func (c *serveClient) do(method, path string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		c.samples.rejected++
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, resp.Header, nil
}

func (c *serveClient) metrics() (string, error) {
	body, _, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", errors.Join(errors.New("scraping /metrics"), err)
	}
	return string(body), nil
}
