package main

import (
	"fmt"
	"io"
	"math"
)

// selfcheck mirrors how the benchmark itself is judged: two sets of K
// full runs of the same binary, labelled A and B and run alternately,
// run i of either set on seed+i. For every workload and end-to-end
// metric it prints both medians, their relative gap, each set's spread
// (interquartile distance over the median, as the driver computes it;
// quartiles of fewer than minSpreadRuns values say nothing and are
// left out) and the bound; it fails when a gap or a spread exceeds its
// bound.
const minSpreadRuns = 5

func selfcheck(o options, sp *spec, out io.Writer) (bool, error) {
	o.trace = "0"
	// values[workload][metric][set] are the K values of one set.
	values := map[string]map[string]*[2][]float64{}
	for i := 0; i < o.selfcheck; i++ {
		for set, label := range []string{"A", "B"} {
			fmt.Fprintf(out, "## selfcheck run %s%d (seed %d)\n", label, i+1, o.seed+int64(i))
			run := o
			run.seed += int64(i)
			for _, w := range workloads {
				res, err := runChild(run, w.name, out)
				if err != nil {
					return false, err
				}
				if !res.Correct {
					return false, fmt.Errorf("%s: run %s%d failed its output checks", w.name, label, i+1)
				}
				if values[w.name] == nil {
					values[w.name] = map[string]*[2][]float64{}
				}
				for name, v := range res.Metrics {
					if values[w.name][name] == nil {
						values[w.name][name] = &[2][]float64{}
					}
					values[w.name][name][set] = append(values[w.name][name][set], v.Value)
				}
			}
		}
	}

	ok := true
	fmt.Fprintf(out, "\n%-12s %-12s %12s %12s %8s %9s %9s %7s\n", "workload", "metric", "median(A)", "median(B)", "gap", "spread(A)", "spread(B)", "bound")
	for _, w := range workloads {
		for _, d := range sp.EndToEnd {
			v := values[w.name][d.Name]
			a, b := median(v[0]), median(v[1])
			gap := math.Abs(b-a) / a
			verdict := ""
			if gap > d.Bound {
				verdict, ok = "  GAP OVER BOUND", false
			}
			spread := [2]string{"-", "-"}
			for set := range spread {
				if len(v[set]) < minSpreadRuns {
					continue
				}
				q1, q3 := quartiles(v[set])
				sp := (q3 - q1) / median(v[set])
				spread[set] = fmt.Sprintf("%.2f%%", 100*sp)
				// setup_s is held to its bound by the medians only.
				if sp > d.Bound && d.Name != "setup_s" {
					verdict, ok = "  SPREAD OVER BOUND", false
				}
			}
			fmt.Fprintf(out, "%-12s %-12s %12.5g %12.5g %7.2f%% %9s %9s %6.1f%%%s\n",
				w.name, d.Name, a, b, 100*gap, spread[0], spread[1], 100*d.Bound, verdict)
		}
	}
	return ok, nil
}
