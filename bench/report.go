package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// report is one set of runs: what -out writes and -compare reads.
type report struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

// header says what was measured on what, so that two sets can be told
// comparable before their numbers are compared.
type header struct {
	Commit          string                `json:"commit"`
	GoVersion       string                `json:"go"`
	NProc           int                   `json:"nproc"`
	GOMAXPROCS      int                   `json:"gomaxprocs"`
	Seed            int64                 `json:"seed"`
	Seconds         float64               `json:"seconds"`
	Fsync           string                `json:"fsync"`
	CheckpointEvery int                   `json:"checkpoint_every"`
	Workloads       map[string]specHeader `json:"workloads"`
	Claim           *string               `json:"claim"` // a benchmark-defining change claims no gain
}

type specHeader struct {
	Scale     int `json:"scale"`
	Views     int `json:"views"`
	WarmupOps int `json:"warmup_ops"`
	ChunkOps  int `json:"chunk_ops"`
}

func newHeader(cfg *config) header {
	h := header{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: cfg.seed, Seconds: cfg.seconds,
		Fsync: fsyncPolicy, CheckpointEvery: checkpointEvery, Workloads: map[string]specHeader{}}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	for _, sp := range specs() {
		h.Workloads[sp.name] = specHeader{sp.scale, len(sp.views), sp.warmup, sp.chunk}
	}
	return h
}

// runAll runs every workload — untraced runs times, then traced once —
// and writes the set to out.
func runAll(decl *declaration, cfg *config, runs int, out string) error {
	rep := report{Header: newHeader(cfg)}
	failed := 0
	for _, sp := range specs() {
		for i := 0; i <= runs; i++ {
			res, err := runChecked(decl, sp, cfg, i == runs)
			if err != nil {
				return err
			}
			printResult(res)
			rep.Runs = append(rep.Runs, res)
			failed += res.Failed
		}
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d ops and checks failed", failed)
	}
	return nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// values gathers a metric's value from every untraced run of a workload.
func (r *report) values(workload, name string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if m, ok := run.Metrics[name]; ok && run.Workload == workload && !run.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives; 0 for fewer than two values, where no spread can be told.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}

// compareReports prints one row per workload and end-to-end metric and
// fails if any metric got worse by more than its bound.
func compareReports(decl *declaration, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Header.Seed == b.Header.Seed
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "workload\tmetric\tA (%.7s)\tB (%.7s)\tB/A\tspread A\tspread B\tbound\tverdict\t\n", a.Header.Commit, b.Header.Commit)
	worse := 0
	for _, wl := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%.2f\tmissing\t\n", wl.Name, m.Name, m.Bound)
				worse++
				continue
			}
			ma, mb, sa, sb := median(va), median(vb), spread(va), spread(vb)
			change := mb/ma - 1 // positive is worse
			if m.Better == "higher" {
				change = ma/mb - 1
			}
			verdict := "ok"
			switch {
			case m.Name == "state_rows" && sameSeed && ma != mb:
				verdict = "worse" // a count taken at a fixed op index repeats exactly
			case change > m.Bound:
				verdict = "worse"
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			}
			if verdict == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.3f\t%.3f\t%.3f\t%.2f\t%s\t\n",
				wl.Name, m.Name, ma, mb, mb/ma, sa, sb, m.Bound, verdict)
		}
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d metrics are worse in %s than in %s by more than their bound", worse, pathB, pathA)
	}
	return nil
}
