package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child runs one workload once in a fresh process (so every run starts
// from the same process state) and parses its result line.
//
// A signal to this process cancels ctx, which asks the child to
// terminate (so that it stops its own subprocesses) and waits for it.
func child(ctx context.Context, self, workload string, seed uint64, trace int, o options) (*result, error) {
	cmd := exec.CommandContext(ctx, self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", o.out)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: no result (%v, %v)", workload, seed, runErr, err)
	}
	if runErr != nil || !res.Correct {
		return &res, fmt.Errorf("%s seed %d: correctness check failed", workload, seed)
	}
	return &res, nil
}

// runAll is the one command: every workload once, untraced, and with
// trace also the separate traced run; every metric is printed by name
// with its unit (by each child, on standard error) and saved.
func runAll(ctx context.Context, self string, spec *benchSpec, o options) error {
	var firstErr error
	for _, w := range spec.Workloads {
		saved := map[string]*result{}
		for trace, kind := range []string{"end_to_end", "per_layer"} {
			if trace > 0 && o.trace == 0 {
				break
			}
			res, err := child(ctx, self, w.Name, o.seed, trace, o)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			saved[kind] = res
		}
		b, _ := json.MarshalIndent(saved, "", " ")
		if err := os.WriteFile(filepath.Join(o.out, "result-"+w.Name+".json"), b, 0o644); err != nil {
			return err
		}
	}
	return firstErr
}

// metricSet is one A/A set: workload → metric → one value per run.
type metricSet map[string]map[string][]float64

// aaRuns is how many runs, each with another seed, one A/A set holds per
// workload: what the acceptance procedure takes its quartiles from.
const aaRuns = 10

// runAA is the acceptance procedure run locally: two sets of runs of
// the same code on the same seeds. For every workload and end-to-end
// metric it prints each set's median and quartile spread and how much
// worse the second median is than the first, against the metric's
// bound; any breach (or any failed operation) makes it return an error.
func runAA(ctx context.Context, self string, spec *benchSpec, o options) error {
	sets := [2]metricSet{{}, {}}
	failedOps := 0
	for k := range sets {
		for _, w := range spec.Workloads {
			sets[k][w.Name] = map[string][]float64{}
			for i := 0; i < aaRuns; i++ {
				res, err := child(ctx, self, w.Name, o.seed+uint64(i), 0, o)
				if err != nil {
					return err
				}
				failedOps += res.Failed
				for name, mv := range res.Metrics {
					sets[k][w.Name][name] = append(sets[k][w.Name][name], mv.Value)
				}
			}
		}
		b, _ := json.MarshalIndent(aaFile{Seed: o.seed, Runs: aaRuns, Seconds: o.seconds, Values: sets[k]}, "", " ")
		if err := os.WriteFile(filepath.Join(o.out, fmt.Sprintf("aa-set%d.json", k+1)), b, 0o644); err != nil {
			return err
		}
	}
	breaches := compareSets(os.Stdout, spec, sets[0], sets[1])
	if breaches > 0 || failedOps > 0 {
		return fmt.Errorf("A/A: %d bound breaches, %d failed operations", breaches, failedOps)
	}
	return nil
}

// aaFile is one recorded A/A set.
type aaFile struct {
	Seed    uint64    `json:"seed"`
	Runs    int       `json:"runs"`
	Seconds float64   `json:"seconds"`
	Values  metricSet `json:"values"`
}

// compareSets prints the A/A table and returns the number of breaches:
// a spread above the bound (set-up time excepted, as in the acceptance
// procedure) or a second median worse than the first by more than it.
func compareSets(out *os.File, spec *benchSpec, a, b metricSet) int {
	breaches := 0
	fmt.Fprintf(out, "%-18s %-17s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "median1", "spread1", "median2", "spread2", "worse", "bound")
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := a[w.Name][ms.Name], b[w.Name][ms.Name]
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if ms.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(va), spread(vb)
			verdict := ""
			if worse > ms.Bound || (ms.Name != "setup_s" && (sa > ms.Bound || sb > ms.Bound)) {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-18s %-17s %12.5g %7.1f%% %12.5g %7.1f%% %7.1f%% %5.0f%%%s\n",
				w.Name, ms.Name, ma, 100*sa, mb, 100*sb, 100*worse, 100*ms.Bound, verdict)
		}
	}
	return breaches
}
