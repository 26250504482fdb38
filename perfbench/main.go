// Command perfbench is the repository's end-to-end benchmark: it builds
// the `unihub -peers alpha,beta,gamma` deployment in process (three hub
// members behind one federation router on a loopback TCP listener, 64
// homes of a TV and a lamp) and drives it with two closed-loop phones,
// each a core.Proxy with a device.Phone bound as input and output.
//
//	perfbench --workload interact|roam|rebalance|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured from the
// client side. With --trace 1 it runs half the time untraced and half
// traced, and reports the per-layer metrics cut from the benchmark's own
// spans and the program's counters, plus the tracing overhead. The last
// line of standard output is one JSON object; the lines before it print
// every metric by its descriptive name, unit and sample count.
//
// The run checks its outputs: after every roam visit, every rebalance
// resume and at the end of a run, each connected client's framebuffer
// must show its home's display, and every token redial must be
// honoured. A mismatch, a refused resume, an error or a timeout counts
// as a failed operation; a mismatch or a refused resume makes the
// result's correct field false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"uniint/internal/metrics"
)

// spec describes a workload and how its figures map onto the reported
// metric names.
type spec struct {
	name  string
	setup func(*deployment, int64) (runner, error)
	// main and second are the operation kinds behind main_p50_ms /
	// main_p90_ms and second_p50_ms; the names are their descriptive
	// names in the report.
	main, second                 string
	p50Name, p90Name, secondName string
	opsName, bytesName           string
}

var specs = []spec{
	{
		name: "interact", setup: setupInteract,
		main: opInteraction, second: opActivation,
		p50Name: "interact_p50_ms", p90Name: "interact_p90_ms", secondName: "activation_p50_ms",
		opsName: "interactions_per_s", bytesName: "down_bytes_per_interaction",
	},
	{
		name: "roam", setup: setupRoam,
		main: opResume, second: opJoin,
		p50Name: "resume_p50_ms", p90Name: "resume_p90_ms", secondName: "join_p50_ms",
		opsName: "visits_per_s", bytesName: "resync_bytes_per_resume",
	},
	{
		name: "rebalance", setup: setupRebalance,
		main: opCycle, second: opMigratedResume,
		p50Name: "rebalance_ms", p90Name: "rebalance_p90_ms", secondName: "migrated_resume_p50_ms",
		opsName: "rebalances_per_s", bytesName: "mig_bytes_per_home",
	},
}

// setupRounds is how many times a run builds its deployment; setup_s is
// the median, and the last build is the one measured.
const setupRounds = 7

// warmup runs the workload before measuring, so caches fill and lazy
// set-up finishes.
const warmup = time.Second

// measureWindows splits the measured time into equal windows. Latencies
// and rates are the median over the windows, so a burst of load from
// outside the benchmark moves one window rather than the run.
const measureWindows = 10

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "interact, roam, rebalance, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spanDir := flag.String("spans", ".bench_build/perfbench", "directory for the span files of traced runs")
	flag.Parse()
	if *seconds < 2 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 2 and --trace 0 or 1")
		os.Exit(2)
	}
	var run []spec
	for _, s := range specs {
		if *name == s.name || *name == "all" {
			run = append(run, s)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fmt.Printf("perfbench seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s transport=loopback TCP (127.0.0.1; not a real link)\n",
		*seed, *seconds, *traceFlag, nproc, runtime.GOMAXPROCS(0), runtime.Version())
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range run {
		var res result
		var err error
		if *traceFlag == 1 {
			res, err = runTraced(s, *seed, time.Duration(*seconds)*time.Second, *spanDir)
		} else {
			res, err = runUntraced(s, *seed, time.Duration(*seconds)*time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(run) > 1 {
				k = s.name + "." + k // the workloads share metric names
			}
			total.Metrics[k] = v
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !total.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: OUTPUTS WRONG: a client screen differed from its home's display or a resume was refused (see correct and failed)")
	}
	// A run that measured exits 0 whatever its verdict: the verdict is the
	// result's correct field, and failed counts the operations behind it.
	fmt.Println(string(out))
}

// setUp builds the deployment and the workload setupRounds times and
// returns the last pair with the median build time in seconds.
func setUp(s spec, seed int64, tr *tracer) (*deployment, runner, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		d, err := deploy(tr)
		if err != nil {
			return nil, nil, 0, err
		}
		r, err := s.setup(d, seed)
		if err != nil {
			d.close()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setupRounds-1 {
			return d, r, median(times), nil
		}
		r.close()
		d.close()
	}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(s spec, seed int64, dur time.Duration) (result, error) {
	d, r, setup, err := setUp(s, seed, nil)
	if err != nil {
		return result{}, err
	}
	warm := r.phase(warmup)
	windows := make([]*tally, measureWindows)
	t := newTally()
	for i := range windows {
		windows[i] = r.phase(dur / measureWindows)
		t.merge(windows[i])
		t.elapsed += windows[i].elapsed
	}
	checks := r.check()
	heap := liveHeapMB()
	r.close()
	d.close()

	all := newTally()
	all.merge(warm)
	all.merge(t)
	all.merge(checks)
	res := settle(s, all)
	m := res.Metrics
	main, second := t.op(s.main), t.op(s.second)
	perWindow := func(f func(w *tally) float64) float64 {
		xs := make([]float64, len(windows))
		for i, w := range windows {
			xs[i] = f(w)
		}
		return median(xs)
	}
	p50 := perWindow(func(w *tally) float64 { return w.op(s.main).p(0.5) })
	p90 := perWindow(func(w *tally) float64 { return w.op(s.main).p(0.9) })
	second50 := perWindow(func(w *tally) float64 { return w.op(s.second).p(0.5) })
	ops := perWindow(func(w *tally) float64 { return float64(w.units) / w.elapsed.Seconds() })
	bytes := ratio(t.bytes, t.byteOps)
	m["setup_s"] = metric{setup, "s"}
	m["main_p50_ms"] = metric{p50, "ms"}
	m["main_p90_ms"] = metric{p90, "ms"}
	m["second_p50_ms"] = metric{second50, "ms"}
	m["ops_per_s"] = metric{ops, "1/s"}
	m["bytes_per_op"] = metric{bytes, "B"}
	m["heap_mb"] = metric{heap, "MB"}

	attempted, failed := all.attempts()
	fmt.Printf("%s: end-to-end, seed %d, measured %.1fs in %d windows (latencies and rates are medians over the windows)\n",
		s.name, seed, t.elapsed.Seconds(), measureWindows)
	line("setup_s", setup, "s", fmt.Sprintf("median of %d set-ups", setupRounds))
	line("failed_ratio", ratio(int64(failed), int64(attempted)), "ratio", fmt.Sprintf("%d of %d operations", failed, attempted))
	line("heap_mb", heap, "MB", "live heap after a forced GC")
	latency(s.p50Name, p50, main)
	latency(s.p90Name, p90, main)
	latency(s.secondName, second50, second)
	tail(s.main, main)
	tail(s.second, second)
	line(s.opsName, ops, "1/s", fmt.Sprintf("n=%d", t.units))
	line(s.bytesName, bytes, "B", fmt.Sprintf("n=%d", t.byteOps))
	for k, v := range m {
		if v.Value == 0 {
			return res, fmt.Errorf("end-to-end metric %s is 0: the workload did not exercise it", k)
		}
	}
	return res, nil
}

// runTraced measures the per-layer metrics: an untraced half, then a
// traced half of the same deployment.
func runTraced(s spec, seed int64, dur time.Duration, spanDir string) (result, error) {
	tr := newTracer()
	d, r, _, err := setUp(s, seed, tr)
	if err != nil {
		return result{}, err
	}
	warm := r.phase(warmup)
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	un := r.phase(dur / 2)
	runtime.ReadMemStats(&mem1)
	m0 := metrics.Default().Snapshot()
	tr.on.Store(true)
	tt := r.phase(dur / 2)
	tr.on.Store(false)
	m1 := metrics.Default().Snapshot()
	checks := r.check()
	r.close()
	d.close()

	all := newTally()
	for _, t := range []*tally{warm, un, tt, checks} {
		all.merge(t)
	}
	res := settle(s, all)
	layers := perLayer(s, un, tt, tr, m0, m1, &mem0, &mem1)
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: per layer, seed %d, untraced %.1fs then traced %.1fs\n", s.name, seed, un.elapsed.Seconds(), tt.elapsed.Seconds())
	for _, k := range names {
		line(k, layers[k].Value, layers[k].Unit, "")
		res.Metrics[k] = layers[k]
	}
	path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", spanDir, s.name, seed)
	if err := tr.write(path); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("  spans written to %s\n", path)
	return res, nil
}

// settle turns a run's tally into the result's verdict and counts. The
// outputs are correct when every screen check passed and no token redial
// was refused.
func settle(s spec, all *tally) result {
	attempted, failed := all.attempts()
	for name, o := range all.ops {
		if o.failed > 0 {
			fmt.Printf("%s: %d of %d %s operations failed, first: %v\n", s.name, o.failed, o.attempted, name, o.firstErr)
		}
	}
	wrong := all.op(opCheck).failed
	for _, op := range []string{opResume, opMigratedResume} {
		wrong += all.op(op).failed
	}
	return result{Correct: wrong == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
}

func line(name string, v float64, unit, note string) {
	fmt.Printf("  %-40s %14.4f %-6s %s\n", name, v, unit, note)
}

func latency(name string, v float64, o *opStats) {
	line(name, v, "ms", fmt.Sprintf("n=%d failed=%d", len(o.ms), o.failed))
}

// tail prints the highest percentile with at least ten samples beyond it.
func tail(name string, o *opStats) {
	p := tailPercentile(len(o.ms))
	if p == 0 {
		return
	}
	line(fmt.Sprintf("%s_ms@p%g", name, p), o.p(p/100), "ms", fmt.Sprintf("n=%d, whole run (highest percentile with >=10 samples beyond)", len(o.ms)))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
