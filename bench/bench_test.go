package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpans requires a well-formed span forest: every child inside its
// parent, no negative self time, one root per op.
func checkSpans(spans []span) error {
	children := make([]int64, len(spans))
	roots := map[int]int{}
	for i, sp := range spans {
		if sp.End < sp.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, sp.Name)
		}
		if sp.Parent < 0 {
			roots[sp.Op]++
			continue
		}
		if sp.Parent >= i {
			return fmt.Errorf("span %d (%s) precedes its parent %d", i, sp.Name, sp.Parent)
		}
		p := spans[sp.Parent]
		if p.Op != sp.Op || sp.Start < p.Start || sp.End > p.End {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, sp.Name, sp.Parent, p.Name)
		}
		children[sp.Parent] += sp.End - sp.Start
	}
	for i, sp := range spans {
		if children[i] > sp.End-sp.Start {
			return fmt.Errorf("span %d (%s) has negative self time", i, sp.Name)
		}
		if roots[sp.Op] != 1 {
			return fmt.Errorf("op %d has %d roots", sp.Op, roots[sp.Op])
		}
	}
	return nil
}

// TestSmoke runs every workload, untraced and traced, on a small graph
// for a fraction of a second, and holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclaration(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	all := specs()
	if len(decl.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(decl.Workloads), len(all))
	}
	for _, m := range append(append([]declMetric{}, decl.EndToEnd...), decl.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
	}
	cfg := &config{seed: 1, seconds: 0.15, setupReps: 1, outdir: t.TempDir(), shrink: 10}
	for i, sp := range all {
		if decl.Workloads[i].Name != sp.name {
			t.Fatalf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, decl.Workloads[i].Name, sp.name)
		}
		t.Run(sp.name, func(t *testing.T) {
			untraced, err := runUntraced(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(sp, cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			traced.set("host.calib_drift", 0, "ratio") // the caller's to measure
			for _, res := range []*result{untraced, traced} {
				if err := decl.conforms(res); err != nil {
					t.Error(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Errorf("traced=%v: %d of %d ops and checks failed: %v", res.Traced, res.Failed, res.Attempted, res.Errors)
				}
			}
			data, err := os.ReadFile(filepath.Join(cfg.outdir, "trace-"+sp.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 {
				t.Fatal("the trace holds no span")
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Error(err)
			}
			if tf.Anatomy.Attributed < 0.5 {
				t.Errorf("named spans cover only %.0f%% of the op", 100*tf.Anatomy.Attributed)
			}
		})
	}
}

func TestSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if got, want := spread([]float64{16, 1, 4, 2, 8}), (12.0-1.5)/4; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
