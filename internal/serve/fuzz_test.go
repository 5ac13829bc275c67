package serve

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"testing"
	"time"
)

var hexKeyRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// FuzzSubmitJSON drives arbitrary bytes through the full submit path —
// body sniffing (raw FASTA vs JSON vs gzip), query-parameter overlay,
// option resolution, and cache keying — and checks the invariants the
// HTTP API depends on:
//
//   - parseSubmit never panics, and every rejection is a BadRequestError
//     (anything else would surface as a 500 for client-controlled input);
//   - resolve is deterministic: the same parsed submission resolves to
//     the same Resolved;
//   - cacheKey is stable across calls and blind to Workers and Timeout,
//     the documented result-neutral options — a key that moved with
//     either would split (or worse, alias) cache entries.
func FuzzSubmitJSON(f *testing.F) {
	f.Add([]byte(">a\nACDEFG\n>b\nACDEFH\n"), "text/plain", "")
	f.Add([]byte(`{"fasta":">a\nACDEFG\n>b\nACDEFH\n","options":{"procs":2,"aligner":"muscle"}}`),
		"application/json", "")
	f.Add([]byte(`{"fasta":">a\nAC\n","options":{"k":3,"sample_size":5,"no_finetune":false}}`),
		"application/json", "procs=3&workers=2")
	f.Add([]byte(`{"fasta":">a\nAC\n","options":{"timeout_ms":-1}}`), "application/json", "")
	f.Add([]byte(`{"fasta":"","options":{}}`), "", "aligner=nosuch&kernel=banana")
	f.Add([]byte("not fasta at all"), "application/octet-stream", "procs=notanumber")
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(">z\nWYV\n"))
	zw.Close()
	f.Add(gz.Bytes(), "", "full_alphabet=true")

	f.Fuzz(func(t *testing.T, body []byte, contentType, query string) {
		target := "/v1/jobs"
		if query != "" {
			target += "?" + query
		}
		u, err := url.ParseRequestURI(target)
		if err != nil {
			t.Skip("unparsable query string")
		}
		// Built by hand rather than httptest.NewRequest: the latter
		// round-trips through an HTTP/1.0 request line and panics on
		// bytes that are merely unusual, not invalid, for a URL.
		req := &http.Request{
			Method: "POST",
			URL:    u,
			Header: make(http.Header),
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}

		seqs, opts, err := parseSubmit(req)
		if err != nil {
			var bad *BadRequestError
			if !errors.As(err, &bad) {
				t.Fatalf("parseSubmit rejection is not a BadRequestError: %v", err)
			}
			return
		}

		r1, err := resolve(opts, defaultOpts, Limits{}, 0)
		if err != nil {
			return // invalid option combination: rejected before any work
		}
		r2, err := resolve(opts, defaultOpts, Limits{}, 0)
		if err != nil || r1 != r2 {
			t.Fatalf("resolve is unstable: %+v / %+v (err=%v)", r1, r2, err)
		}

		k1 := cacheKey(seqs, r1)
		if !hexKeyRe.MatchString(k1) {
			t.Fatalf("cache key %q is not 64 hex chars", k1)
		}
		if k2 := cacheKey(seqs, r1); k2 != k1 {
			t.Fatalf("cache key unstable across calls: %s vs %s", k1, k2)
		}
		neutral := r1
		neutral.Workers++
		neutral.Timeout += time.Second
		if k3 := cacheKey(seqs, neutral); k3 != k1 {
			t.Fatalf("cache key depends on a result-neutral option: %s vs %s", k1, k3)
		}
		affecting := r1
		affecting.Procs++
		if k4 := cacheKey(seqs, affecting); k4 == k1 {
			t.Fatalf("cache key ignores procs, which changes the alignment")
		}
	})
}
