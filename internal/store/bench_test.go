package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// BenchmarkJournalAppendParallel measures durable append throughput and
// how well group commit amortizes fsyncs: fsyncs/rec is the number of
// write+fsync cycles divided by records appended (1.0 means no
// batching; TestJournalConcurrentAppendsGroupCommit holds 8 writers
// under ½, and bench/ reports store.fsyncs_per_record_conc2). The
// journal runs with production-default options — no MaxWait — so any
// batching shown here comes purely from appenders piling up behind
// in-flight flushes.
func BenchmarkJournalAppendParallel(b *testing.B) {
	for _, conc := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("conc=%d", conc), func(b *testing.B) {
			j, _, err := OpenJournalOptions(filepath.Join(b.TempDir(), "journal.wal"), JournalOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			rec := testRecord(RecSubmit, "bench-job", 1)
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < conc; g++ {
				n := b.N / conc
				if g < b.N%conc {
					n++
				}
				if n == 0 {
					continue
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if err := j.Append(rec); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
			b.StopTimer()
			if recs := j.FlushedRecords(); recs > 0 {
				b.ReportMetric(float64(j.Flushes())/float64(recs), "fsyncs/rec")
				b.ReportMetric(float64(recs)/b.Elapsed().Seconds(), "rec/s")
			}
		})
	}
}
