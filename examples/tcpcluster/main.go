// tcpcluster demonstrates a real multi-process-style cluster run: four
// ranks connected over TCP loopback, each holding a shard of the input —
// the same wire protocol a physical cluster would use, in one process
// for convenience. Run with:
//
//	go run ./examples/tcpcluster
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"

	samplealign "repro"
	"repro/internal/core"
)

const procs = 4

func main() {
	seqs, err := samplealign.GenerateDiverseSet(64, 90, 11)
	if err != nil {
		log.Fatal(err)
	}
	// Shard the input block-wise, like the paper's pre-placed node files.
	shards, _ := core.SplitBlocks(seqs, procs)

	// Reserve loopback ports for every rank.
	addrs := make([]string, procs)
	listeners := make([]net.Listener, procs)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}

	ctx := context.Background()
	fmt.Printf("starting %d TCP ranks on %v\n", procs, addrs)
	var (
		wg    sync.WaitGroup
		final *samplealign.Alignment
		mu    sync.Mutex
	)
	for rank := 0; rank < procs; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			aln, err := samplealign.AlignTCPContext(ctx,
				samplealign.TCPRankConfig{Rank: rank, Addrs: addrs},
				shards[rank],
			)
			if err != nil {
				log.Fatalf("rank %d: %v", rank, err)
			}
			if rank == 0 {
				mu.Lock()
				final = aln
				mu.Unlock()
			}
		}(rank)
	}
	wg.Wait()

	fmt.Printf("rank 0 received the glued alignment: %d rows x %d columns\n",
		final.NumSeqs(), final.Width())
	fmt.Printf("SP score: %.1f\n", samplealign.SPScore(final))
	for _, row := range final.Seqs[:3] {
		fmt.Printf("  %-10s %.60s...\n", row.ID, row.Data)
	}
	fmt.Printf("  ... and %d more rows\n", final.NumSeqs()-3)
}
