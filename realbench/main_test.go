package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// printed are the metrics every run prints, with their units: the
// untraced end-to-end set, then the traced per-layer set.
var printed = map[string]string{
	"setup_s": "s", "throughput_ops": "ops/s", "op_p50_ms": "ms", "op_p99_ms": "ms",
	"write_p50_ms": "ms", "write_p99_ms": "ms", "read_p50_ms": "ms", "read_p99_ms": "ms",
	"fail_ratio": "ratio", "cpu_us_per_op": "us", "alloc_kb_per_op": "kB", "heap_mb": "MB", "peak_rss_mb": "MB",
	"unavail_ms": "ms",

	"server.edge_us":         "us",
	"core.admission_wait_us": "us", "core.exec_us": "us", "core.request_us": "us", "core.ops_per_commit": "count",
	"core.checkpoints": "count", "core.checkpoint_pause_ms": "ms", "core.checkpoint_build_ms": "ms",
	"core.promotion_ms": "ms", "core.rebuild_ms": "ms", "core.resyncs": "count", "core.rejoin_ms": "ms",
	"trace.delta_bytes_per_op": "bytes", "trace.delta_events_per_op": "count", "trace.elided_per_op": "count",
	"paxos.commit_us": "us", "paxos.propose_commit_us": "us", "paxos.persist_records_per_batch": "count",
	"paxos.nacks": "count", "paxos.elections": "count",
	"transport.msgs_per_op": "count", "transport.bytes_per_op": "bytes", "transport.send_us_p99": "us",
	"transport.drops":        "count",
	"storage.appends_per_op": "count", "storage.records_per_append": "count", "storage.append_us_p50": "us",
	"storage.append_us_p99": "us", "storage.busy_frac": "ratio", "storage.fsyncs_per_op": "count",
	"storage.rewrite_ms_max": "ms", "storage.snapshot_save_ms": "ms", "storage.snapshot_kb": "kB",
	"sched.replay_wait_us": "us", "sched.replay_waits_per_op": "count", "sched.replay_lag_us": "us",
	"readpath.lin_read_us_p50": "us", "readpath.session_read_us_p50": "us", "readpath.lease_frac": "ratio",
	"readpath.barrier_reads": "count", "readpath.follower_frac": "ratio", "readpath.read_wait_us": "us",
	"readpath.read_timeouts": "count",
	"overload.sheds":         "count",
	"loadgen.late_ms_p99":    "ms",
}

// TestSmoke runs every workload briefly, traced, and checks the output.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three replicas per workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			// failover needs 2 s per cluster for one kill and its rejoin.
			seconds := "2"
			if w.killEvery > 0 {
				seconds = "6"
			}
			args := []string{"-workload", w.name, "-seed", "7", "-seconds", seconds, "-trace", "1", "-out", t.TempDir()}
			if code := realMain(args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
			}
			values := make(map[string]float64)
			for name, unit := range printed {
				re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `\s+(\S+) ` + regexp.QuoteMeta(unit) + `$`)
				m := re.FindStringSubmatch(out.String())
				if m == nil {
					t.Errorf("metric %s with unit %s not printed", name, unit)
					continue
				}
				v, err := strconv.ParseFloat(m[1], 64)
				if err != nil {
					t.Errorf("metric %s: %v", name, err)
				}
				values[name] = v
			}
			if w.killEvery == 0 {
				if values["fail_ratio"] != 0 {
					t.Errorf("fail_ratio = %v, want 0", values["fail_ratio"])
				}
				if values["paxos.elections"] != 0 {
					t.Errorf("paxos.elections = %v in the window, want 0", values["paxos.elections"])
				}
			}

			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the JSON summary: %v", err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("summary correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayerJSON) {
				t.Errorf("summary has %d metrics, want %d", len(res.Metrics), len(perLayerJSON))
			}
			for _, n := range perLayerJSON {
				if m, ok := res.Metrics[n]; !ok || m.Unit != printed[n] {
					t.Errorf("summary metric %s = %+v", n, m)
				}
			}
		})
	}
}

func TestUnionNs(t *testing.T) {
	spans := []span{{start: 10, end: 20}, {start: 0, end: 5}, {start: 15, end: 30}, {start: 30, end: 31}}
	if got := unionNs(spans); got != 26 {
		t.Fatalf("unionNs = %d, want 26", got)
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := valueFor(3, 1, 42)
	if len(v) != valueBytes {
		t.Fatalf("value is %d bytes", len(v))
	}
	if seq, ok := parseSeq(1, v); !ok || seq != 42 {
		t.Fatalf("parseSeq = %d, %v", seq, ok)
	}
	if _, ok := parseSeq(0, v); ok {
		t.Fatal("another client's value parsed")
	}
	if k := keyName(12345); len(k) != 16 {
		t.Fatalf("key %q is not 16 bytes", k)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and run.sh in step with what the
// command implements.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d declared as %+v, implemented as %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, declared []entry, names []string) {
		if len(declared) != len(names) {
			t.Errorf("%s: %d declared, %d reported", kind, len(declared), len(names))
			return
		}
		for i, e := range declared {
			if e.Name != names[i] || e.Unit != printed[names[i]] {
				t.Errorf("%s %d declared as %s (%s), reported as %s (%s)", kind, i, e.Name, e.Unit, names[i], printed[names[i]])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndJSON)
	check("per_layer", spec.PerLayer, perLayerJSON)

	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if loop := "for w in " + strings.Join(names, " ") + "; do"; !strings.Contains(string(script), loop) {
		t.Errorf("run.sh does not run every workload with %q", loop)
	}
}
