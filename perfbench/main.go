// Command perfbench is the repository's workload benchmark. It runs one
// workload for a fixed time, checks every verdict against an independent
// reference, and prints one JSON result line:
//
//	perfbench --workload dispute-mem --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	dispute-mem     the model owner's dispute loop with keys in memory
//	dispute-ooc     the same disputes fully out-of-core (key, CSR and
//	                witness on disk; memory tier dropped per dispute)
//	registry-audit  auditors verifying and aggregating ownership proofs
//	                through the client → service HTTP path on loopback
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run times each layer from outside, by
// calling its public functions inside benchmark-side spans, and reports
// the per-layer metrics. interactions.json names, for every metric, the
// end-to-end metric and workload it should move. run.sh builds the
// benchmark inside the checkout and runs it.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

//go:embed interactions.json
var interactionsJSON []byte

type metricSpec struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Moves []string `json:"moves,omitempty"`
}

type interactions struct {
	Workloads []struct {
		Name     string   `json:"name"`
		Why      string   `json:"why"`
		Bypasses []string `json:"bypasses"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// setupReps is the number of set-ups per run; setup_s is their median.
const setupReps = 3

type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	sz        sizes
	workDir   string
	setupReps int
	// mislabel (self-test) files one forged proof as a genuine claim.
	mislabel bool
	// breakProve (self-test) binds every suspect with its public inputs
	// dropped, so every prove fails.
	breakProve bool
}

func (c *runConfig) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name, unit string, v float64) { m[name] = metricValue{v, unit} }
func (m metricSet) get(name string) float64          { return m[name].Value }

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// wrongAccept marks a forged proof the system accepted.
	wrongAccept bool
	errs        []string
	metrics     metricSet
	samples     string
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}} }

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, msg)
	}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// repeatSetup builds the workload's set-up cfg.setupReps times from the
// same seed, keeps the last and reports the median set-up time.
func repeatSetup[T any](cfg *runConfig, build func(rep int) (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	var times []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		start := time.Now()
		s, err := build(rep)
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if rep > 0 {
			closeFn(last)
		}
		last = s
	}
	return last, median(times), nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "dispute-mem, dispute-ooc or registry-audit")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 15, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		workDir  = flag.String("workdir", ".bench_build/work", "scratch directory for spilled keys, CSR and witness files")
	)
	flag.Parse()
	var spec interactions
	if err := json.Unmarshal(interactionsJSON, &spec); err != nil {
		return fmt.Errorf("interactions.json: %w", err)
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workDir, *workload+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := &runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sz: benchSizes, workDir: dir, setupReps: setupReps}

	var out *outcome
	var tr *tracer
	switch *workload {
	case "dispute-mem":
		out, tr, err = runDispute(cfg, false)
	case "dispute-ooc":
		out, tr, err = runDispute(cfg, true)
	case "registry-audit":
		out, tr, err = runAudit(cfg)
	default:
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		// The spans stay beside the scratch directory for inspection.
		path := filepath.Join(filepath.Dir(cfg.workDir), fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %s; %d attempted, %d failed\n", *workload, *seed, out.samples, out.attempted, out.failed)
	for _, e := range out.errs {
		fmt.Fprintln(os.Stderr, "  failed:", e)
	}

	metrics := spec.EndToEnd
	if cfg.trace {
		metrics = spec.PerLayer
	}
	res := result{Correct: out.failed == 0 && !out.wrongAccept, Attempted: out.attempted, Failed: out.failed, Metrics: metricSet{}}
	for _, ms := range metrics {
		v, ok := out.metrics[ms.Name]
		switch {
		case ok && v.Unit != ms.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", ms.Name, v.Unit, ms.Unit)
		case !ok && !cfg.trace:
			return fmt.Errorf("end-to-end metric %s was not measured", ms.Name)
		}
		// A per-layer metric the workload never reached is a layer it
		// bypasses: it reads 0.
		res.Metrics.set(ms.Name, ms.Unit, v.Value)
	}
	if cfg.trace {
		printInteractions(&spec, *workload, res.Metrics)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return out.verdictErr()
}

// verdictErr fails the run on any failed operation or wrong verdict.
func (o *outcome) verdictErr() error {
	switch {
	case o.wrongAccept:
		return errors.New("a forged proof was accepted")
	case o.failed > 0:
		return fmt.Errorf("%d of %d operations failed or returned a wrong verdict", o.failed, o.attempted)
	}
	return nil
}

// printInteractions writes each per-layer metric with the end-to-end
// metric and workloads it should move to standard error.
func printInteractions(spec *interactions, workload string, m metricSet) {
	for _, w := range spec.Workloads {
		if w.Name == workload {
			fmt.Fprintf(os.Stderr, "%s: %s\n  bypasses (predicted not to move): %v\n", w.Name, w.Why, w.Bypasses)
		}
	}
	names := make([]string, 0, len(spec.PerLayer))
	byName := map[string]metricSpec{}
	for _, ms := range spec.PerLayer {
		names = append(names, ms.Name)
		byName[ms.Name] = ms
	}
	sort.Strings(names)
	for _, n := range names {
		ms := byName[n]
		target := "not a target (count, size, trace quality or client-side figure)"
		if len(ms.Moves) > 0 {
			target = fmt.Sprintf("moves %v", ms.Moves)
		}
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %-6s %s\n", n, m[n].Value, ms.Unit, target)
	}
}
