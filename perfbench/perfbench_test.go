package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, workload string, trace bool) *runConfig {
	t.Helper()
	return &runConfig{workload: workload, seed: 7, seconds: 1, trace: trace, sz: tinySizes,
		workDir: t.TempDir(), setupReps: 2}
}

func runWorkload(t *testing.T, cfg *runConfig) *outcome {
	t.Helper()
	var out *outcome
	var err error
	switch cfg.workload {
	case "dispute-mem":
		out, _, err = runDispute(cfg, false)
	case "dispute-ooc":
		out, _, err = runDispute(cfg, true)
	case "registry-audit":
		out, _, err = runAudit(cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func loadSpec(t *testing.T) *interactions {
	t.Helper()
	var spec interactions
	if err := json.Unmarshal(interactionsJSON, &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// Every workload runs end to end at the tiny scale, with correct
// verdicts, and measures every end-to-end metric in its declared unit.
func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := runWorkload(t, tinyConfig(t, w.Name, false))
			if err := out.verdictErr(); err != nil {
				t.Fatalf("%v: %v", err, out.errs)
			}
			for _, ms := range spec.EndToEnd {
				v, ok := out.metrics[ms.Name]
				if !ok || v.Unit != ms.Unit || v.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", ms.Name, v, ms.Unit)
				}
			}
		})
	}
}

// The traced run reports the prover mode each dispute workload names.
func TestTracedSpillMode(t *testing.T) {
	for workload, want := range map[string]float64{"dispute-mem": 0, "dispute-ooc": 1} {
		out := runWorkload(t, tinyConfig(t, workload, true))
		if err := out.verdictErr(); err != nil {
			t.Fatal(err)
		}
		if got := out.metrics.get("engine.spill_proves_frac"); got != want {
			t.Errorf("%s: engine.spill_proves_frac = %v, want %v", workload, got, want)
		}
		if out.metrics.get("trace.unattributed_frac") >= 0.5 {
			t.Errorf("%s: half the dispute time is outside every layer span", workload)
		}
	}
}

// A forged proof filed as a genuine claim fails the run.
func TestForgedLabelledGenuineFails(t *testing.T) {
	cfg := tinyConfig(t, "registry-audit", false)
	cfg.mislabel = true
	out := runWorkload(t, cfg)
	if out.verdictErr() == nil {
		t.Fatal("a mislabelled forgery passed the verdict gate")
	}
}

// A run in which every prove fails still ends at its deadline and
// reports the failures.
func TestFailingProvesEndRun(t *testing.T) {
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"dispute-mem", false}, {"dispute-ooc", true}} {
		cfg := tinyConfig(t, tc.workload, tc.trace)
		cfg.breakProve = true
		type ended struct {
			out *outcome
			err error
		}
		done := make(chan ended, 1)
		go func() {
			out, _, err := runDispute(cfg, tc.workload == "dispute-ooc")
			done <- ended{out, err}
		}()
		select {
		case e := <-done:
			if e.err != nil {
				t.Fatal(e.err)
			}
			if out := e.out; out.verdictErr() == nil || out.failed != out.attempted || out.attempted < 2 {
				t.Errorf("%s: %d of %d disputes failed, want every dispute of both classes to fail",
					tc.workload, out.failed, out.attempted)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s: the run did not end", tc.workload)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the
// benchmark measures.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t)
	if len(bench.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads declared, %d measured", len(bench.Workloads), len(spec.Workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d: %s declared, %s measured", i, w.Name, spec.Workloads[i].Name)
		}
	}
	same := func(kind string, declared, measured []metricSpec) {
		if len(declared) != len(measured) {
			t.Fatalf("%s: %d declared, %d measured", kind, len(declared), len(measured))
		}
		for i := range declared {
			if declared[i].Name != measured[i].Name || declared[i].Unit != measured[i].Unit {
				t.Errorf("%s %d: %s [%s] declared, %s [%s] measured", kind, i,
					declared[i].Name, declared[i].Unit, measured[i].Name, measured[i].Unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, spec.EndToEnd)
	same("per_layer", bench.PerLayer, spec.PerLayer)
}
