// Command perfbench is the repository's end-to-end benchmark. It boots
// the hilightd service (service.New + Handler) on loopback inside its own
// process, drives one closed-loop workload of QASM compile requests over
// HTTP, checks every output, and prints one JSON line of metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the line holds the end-to-end metrics of the timed run.
// With --trace 1 the timed run is followed by a replay of its first round
// against a fresh server: after each HTTP call the benchmark calls, in the
// handler's order, the public function of every layer the response says
// ran (ParseQASM, Fingerprint, Compile or RecompileFrom with their pass
// trace, the binary codec, the JSON encoder), and the line holds the
// per-layer metrics. The program is observed from outside only: HTTP,
// GET /metrics deltas, the response's pass trace, and exported functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times a run boots and warms a server; setup_s is
// the median, and the last server serves the timed phase.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scratch  string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's requests are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the first round with per-layer spans and prints per-layer metrics")
	flag.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "run"), "directory for the journal and response spool")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.scratch, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp, err := newSpool(filepath.Join(dir, "spool"))
	if err != nil {
		return nil, err
	}
	defer sp.close()

	in, err := newInputs(o.seed, wl)
	if err != nil {
		return nil, err
	}
	logf("workload %s seed %d: GOMAXPROCS=%d NumCPU=%d %s", o.workload, o.seed,
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	// Set-up: boot and warm a fresh server several times; the median is
	// setup_s and the last server serves the timed phase.
	var setupS []float64
	var w *world
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			if err := w.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		w, err = boot(wl, in, filepath.Join(dir, fmt.Sprintf("boot%d", i)), sp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	runtime.GC()

	ph, err := timedPhase(w, time.Duration(o.seconds)*time.Second)
	stopErr := w.stop()
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	logf("timed phase: %d calls, %d rounds on connection 0, %.2fs", len(ph.all()), len(ph.roundDur[0]), ph.elapsed.Seconds())

	tc := time.Now()
	k := newChecker(sp)
	k.run(w.scripts, w.setup, ph.conns)
	logf("output checks: %.2fs", time.Since(tc).Seconds())

	res := &result{Attempted: len(ph.all()), Failed: ph.failed()}
	logFailures(ph)
	if !o.trace {
		res.Metrics = endToEnd(ph, setupS, k, wl.tail)
	} else {
		tw, err := boot(wl, in, filepath.Join(dir, "replay"), sp)
		if err != nil {
			return nil, fmt.Errorf("replay set-up: %w", err)
		}
		rp, err := replayPhase(tw)
		stopErr := tw.stop()
		if err != nil {
			return nil, err
		}
		if stopErr != nil {
			return nil, stopErr
		}
		rk := newChecker(sp)
		rk.run(tw.scripts, tw.setup, rp.conns)
		// The replayed round is the timed phase's first round on a fresh
		// server, so its outputs must be the same schedules.
		if k.round0 != rk.round0 {
			k.failf("replayed round differs from the timed run: cycles/resutil %v vs %v", rk.round0, k.round0)
		}
		k.errs = append(k.errs, rk.errs...)
		res.Metrics = perLayer(ph, rp)
	}
	if err := checkDeclared(res.Metrics, o.trace); err != nil {
		return nil, err
	}
	res.Correct = len(k.errs) == 0 && res.Failed == 0
	for i, e := range k.errs {
		if i == 20 {
			logf("... %d more check failures", len(k.errs)-i)
			break
		}
		logf("CHECK FAILED: %s", e)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	return res, nil
}

// checkDeclared verifies that the metrics printed are exactly the ones
// BENCHMARK.json declares for the mode, with the declared units.
func checkDeclared(got map[string]metric, trace bool) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := decl.EndToEnd
	if trace {
		want = decl.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("printing %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok || m.Unit != w.Unit {
			return fmt.Errorf("metric %s (%s) declared in BENCHMARK.json is not printed with that unit", w.Name, w.Unit)
		}
	}
	return nil
}

// logFailures reports the first failed calls of a phase.
func logFailures(p *phase) {
	n := 0
	for _, c := range p.all() {
		if c.ok() {
			continue
		}
		if n++; n > 5 {
			logf("... %d failed calls in all", p.failed())
			return
		}
		body, _ := p.sp.load(c.ref)
		logf("FAILED round %d feed=%v: status %d %v: %.300s", c.round, c.feed, c.status, c.err, body)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
