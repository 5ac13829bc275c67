package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a process of its own, so that
// peak_rss_mb and setup_s belong to that workload, copies its output
// to out and returns its result line.
func runChild(o options, workload string, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-reps", strconv.Itoa(o.reps),
		"-trace", o.trace,
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last []byte
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		if o.quick {
			return &result{Correct: true}, nil // -quick prints no result line
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload, one after another, never concurrently.
func runAll(o options, out io.Writer) (bool, error) {
	ok := true
	for _, w := range workloads {
		res, err := runChild(o, w.name, out)
		if err != nil {
			return false, err
		}
		ok = ok && res.Correct
	}
	return ok, nil
}
