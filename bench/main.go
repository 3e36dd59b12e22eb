// Command bench is the repository's performance benchmark: the workloads,
// end-to-end metrics and per-layer metrics that BENCHMARK.json names.
//
//	go run ./bench --workload view_churn --seed 1 --seconds 6 --trace 0
//
// runs one workload and prints its metrics, the last line as one JSON
// object. --trace 1 prints the per-layer metrics instead, from a run that
// stages the commit and read paths through the packages' exported calls
// and records a span at every layer boundary. With no --workload every
// workload runs, untraced then traced, into one report file, and
// -compare A.json B.json holds two such reports against the bounds.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, into -out)")
		seed     = flag.Int64("seed", 1, "seeds the data generator and the op generator")
		seconds  = flag.Float64("seconds", 6, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: run the traced pipeline and report per-layer metrics")
		runs     = flag.Int("runs", 1, "all-workloads mode: untraced runs per workload")
		out      = flag.String("out", "", "all-workloads mode: report file (default <outdir>/report.json)")
		outdir   = flag.String("outdir", "bench/out", "directory for traces, reports and scratch state")
		compare  = flag.Bool("compare", false, "compare two report files: -compare A.json B.json")
	)
	flag.Parse()
	run := func() error {
		decl, err := loadDeclaration("BENCHMARK.json")
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two report files")
			}
			return compareReports(decl, flag.Arg(0), flag.Arg(1))
		}
		// The load shape: at most two cores, whatever the host has.
		runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
		cfg := &config{seed: *seed, seconds: *seconds, setupReps: 5, outdir: *outdir, shrink: 1}
		if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
			return err
		}
		if *workload != "" {
			return runOne(decl, cfg, *workload, *trace != 0)
		}
		if *out == "" {
			*out = cfg.outdir + "/report.json"
		}
		return runAll(decl, cfg, *runs, *out)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload the way the driver asks for it: every metric
// by name, then as the last line one JSON object with exactly four keys.
func runOne(decl *declaration, cfg *config, workload string, traced bool) error {
	sp := specByName(workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	res, err := runChecked(decl, sp, cfg, traced)
	if err != nil {
		return err
	}
	printResult(res)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops and checks failed", sp.name, res.Failed, res.Attempted)
	}
	return nil
}

// runChecked runs one workload once, or twice when the host's speed
// drifted by more than a tenth across the first run, and requires the
// result to carry exactly the metrics BENCHMARK.json declares.
func runChecked(decl *declaration, sp *spec, cfg *config, traced bool) (*result, error) {
	var res *result
	for attempt := 0; attempt < 2; attempt++ {
		before := calibrate()
		var err error
		if traced {
			res, err = runTraced(sp, cfg, before)
		} else {
			res, err = runUntraced(sp, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		drift := calibDrift(before, calibrate())
		if traced {
			res.set("host.calib_drift", drift, "ratio")
		}
		res.Noisy = drift > 0.10
		if !res.Noisy {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: host speed drifted %.0f%% across the run\n", sp.name, 100*drift)
	}
	if err := decl.conforms(res); err != nil {
		return nil, err
	}
	return res, nil
}

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s (traced=%v, %d ops in the window, noisy=%v)\n", res.Workload, res.Traced, res.Samples, res.Noisy)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %16.4f %s\n", n, m.Value, m.Unit)
	}
	for _, e := range res.Errors {
		fmt.Printf("FAILED: %s\n", e)
	}
}
