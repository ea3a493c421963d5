package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one named, measured value.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEndJSON and perLayerJSON are the metrics BENCHMARK.json declares:
// the first set is reported by untraced runs, the second by traced ones.
// Every run prints more than these (see README.md). The end-to-end set
// keeps the metrics that repeat closely enough from run to run to gate a
// change on; the per-layer set leaves out times that read 0 on some
// workload.
var endToEndJSON = []string{
	"setup_s", "throughput_ops", "op_p50_ms",
	"cpu_us_per_op", "alloc_kb_per_op", "heap_mb", "peak_rss_mb",
}

var perLayerJSON = []string{
	"server.edge_us",
	"core.admission_wait_us", "core.exec_us", "core.request_us", "core.ops_per_commit", "core.checkpoints", "core.resyncs",
	"trace.delta_bytes_per_op", "trace.delta_events_per_op", "trace.elided_per_op",
	"paxos.commit_us", "paxos.propose_commit_us", "paxos.persist_records_per_batch", "paxos.elections", "paxos.nacks",
	"transport.msgs_per_op", "transport.bytes_per_op", "transport.send_us_p99", "transport.drops",
	"storage.appends_per_op", "storage.records_per_append", "storage.append_us_p50", "storage.append_us_p99",
	"storage.busy_frac", "storage.fsyncs_per_op",
	"sched.replay_wait_us", "sched.replay_waits_per_op", "sched.replay_lag_us",
	"readpath.lease_frac", "readpath.barrier_reads", "readpath.follower_frac", "readpath.read_timeouts",
	"overload.sheds",
}

// quantile is the q-quantile of ds (nearest rank), 0 when empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samples gathers every client's latency samples and counts.
type samples struct {
	writes, lin, sess, reads, all, attempts, late []time.Duration
	acks                                          []ack
	attempted, failed, retries                    int
}

func (win *window) samples() samples {
	var s samples
	for _, c := range win.clients {
		s.writes = append(s.writes, c.writeLat...)
		s.lin = append(s.lin, c.linLat...)
		s.sess = append(s.sess, c.sessLat...)
		s.attempts = append(s.attempts, c.attemptLat...)
		s.late = append(s.late, c.late...)
		s.acks = append(s.acks, c.acks...)
		s.attempted += c.attempted
		s.failed += c.failed
		s.retries += c.retries
	}
	s.reads = append(append(s.reads, s.lin...), s.sess...)
	s.all = append(append(s.all, s.writes...), s.reads...)
	return s
}

// unavailability is, per kill, the time from the kill to the first write
// acknowledged from an attempt sent after it.
func (win *window) unavailability(acks []ack) []time.Duration {
	var out []time.Duration
	for _, k := range win.kills {
		best := time.Duration(-1)
		for _, a := range acks {
			if a.sent.After(k.kill) {
				if d := a.done.Sub(k.kill); best < 0 || d < best {
					best = d
				}
			}
		}
		if best >= 0 {
			out = append(out, best)
		}
	}
	return out
}

// endToEnd is what a user of the cluster sees over the window.
func endToEnd(win *window, setups []time.Duration) []metric {
	s := win.samples()
	done := float64(len(s.all))
	return []metric{
		{"setup_s", median(setups).Seconds(), "s"},
		{"throughput_ops", done / win.seconds(), "ops/s"},
		{"op_p50_ms", ms(quantile(s.all, 0.5)), "ms"},
		{"op_p99_ms", ms(quantile(s.all, 0.99)), "ms"},
		{"write_p50_ms", ms(quantile(s.writes, 0.5)), "ms"},
		{"write_p99_ms", ms(quantile(s.writes, 0.99)), "ms"},
		{"read_p50_ms", ms(quantile(s.reads, 0.5)), "ms"},
		{"read_p99_ms", ms(quantile(s.reads, 0.99)), "ms"},
		{"fail_ratio", ratio(float64(s.failed), float64(s.attempted)), "ratio"},
		{"cpu_us_per_op", ratio(us(win.cpu), done), "us"},
		{"alloc_kb_per_op", ratio(float64(win.alloc)/1024, done), "kB"},
		{"heap_mb", ratio(float64(win.heap)/(1<<20), float64(win.windows)), "MB"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
		{"unavail_ms", ms(median(win.unavailability(s.acks))), "ms"},
	}
}

// perLayer splits the window along the program's packages. Per-op ratios
// are per acknowledged write, the ops that cross consensus.
func perLayer(win *window) []metric {
	s := win.samples()
	d := win.d
	writes := float64(len(s.writes))
	perWrite := func(v float64) float64 { return ratio(v, writes) }

	byKind := byKind(win.spans)
	durs := func(k spanKind) []time.Duration {
		out := make([]time.Duration, len(byKind[k]))
		for i, sp := range byKind[k] {
			out[i] = time.Duration(sp.end - sp.start)
		}
		return out
	}
	args := func(k spanKind) float64 {
		var t float64
		for _, sp := range byKind[k] {
			t += float64(sp.arg)
		}
		return t
	}
	maxDur := func(k spanKind) time.Duration {
		var m time.Duration
		for _, x := range durs(k) {
			m = max(m, x)
		}
		return m
	}
	// Busy fraction of the WAL: the union of append spans per replica over
	// the window, averaged over the replicas.
	var busy float64
	for r := 0; r < replicas; r++ {
		var mine []span
		for _, sp := range byKind[spanAppend] {
			if int(sp.actor) == r {
				mine = append(mine, sp)
			}
		}
		busy += float64(unionNs(mine)) / 1e9 / win.seconds() / replicas
	}
	var rejoins []time.Duration
	for _, k := range win.kills {
		rejoins = append(rejoins, k.rejoin)
	}
	leaseReads, barrierReads := d.total("rex_lease_reads_total"), d.total("rex_lease_confirm_reads_total")
	// Admission waits are observed only for requests that waited; spread
	// them over every admitted request.
	admissionUs := ratio(d.total("rex_admission_wait_seconds")*1e6, d.total("rex_requests_admitted_total"))
	requestUs := d.mean("rex_request_latency_seconds") * 1e6
	return []metric{
		{"server.edge_us", us(meanOf(s.attempts)) - admissionUs - requestUs, "us"},
		{"core.admission_wait_us", admissionUs, "us"},
		{"core.exec_us", d.mean("rex_exec_latency_seconds") * 1e6, "us"},
		{"core.request_us", requestUs, "us"},
		{"core.ops_per_commit", ratio(d.total("rex_requests_admitted_total"), d.count("rex_propose_commit_seconds")), "count"},
		{"core.checkpoints", d.count("rex_checkpoint_pause_seconds"), "count"},
		{"core.checkpoint_pause_ms", d.mean("rex_checkpoint_pause_seconds") * 1e3, "ms"},
		{"core.checkpoint_build_ms", d.mean("rex_checkpoint_build_seconds") * 1e3, "ms"},
		{"core.promotion_ms", d.mean("rex_promotion_seconds") * 1e3, "ms"},
		{"core.rebuild_ms", d.mean("rex_rebuild_seconds") * 1e3, "ms"},
		{"core.resyncs", d.total("rex_resync_total"), "count"},
		{"core.rejoin_ms", ms(median(rejoins)), "ms"},
		{"trace.delta_bytes_per_op", perWrite(d.total("rex_delta_bytes")), "bytes"},
		{"trace.delta_events_per_op", perWrite(d.total("rex_delta_events")), "count"},
		{"trace.elided_per_op", perWrite(d.total("rex_elided_ops_total")), "count"},
		{"paxos.commit_us", d.mean("rex_paxos_commit_latency_seconds") * 1e6, "us"},
		{"paxos.propose_commit_us", d.mean("rex_propose_commit_seconds") * 1e6, "us"},
		{"paxos.persist_records_per_batch", ratio(d.total("rex_paxos_persist_batch_records"), d.count("rex_paxos_persist_batch_records")), "count"},
		{"paxos.nacks", d.total("rex_paxos_nacks_received_total"), "count"},
		{"paxos.elections", d.total("rex_paxos_elections_total"), "count"},
		{"transport.msgs_per_op", perWrite(float64(len(byKind[spanSend]))), "count"},
		{"transport.bytes_per_op", perWrite(args(spanSend)), "bytes"},
		{"transport.send_us_p99", us(quantile(durs(spanSend), 0.99)), "us"},
		{"transport.drops", d.total("tcp_drops_total"), "count"},
		{"storage.appends_per_op", perWrite(float64(len(byKind[spanAppend]))), "count"},
		{"storage.records_per_append", ratio(args(spanAppend), float64(len(byKind[spanAppend]))), "count"},
		{"storage.append_us_p50", us(quantile(durs(spanAppend), 0.5)), "us"},
		{"storage.append_us_p99", us(quantile(durs(spanAppend), 0.99)), "us"},
		{"storage.busy_frac", busy, "ratio"},
		{"storage.fsyncs_per_op", perWrite(d.total("rex_wal_fsyncs_total")), "count"},
		{"storage.rewrite_ms_max", ms(maxDur(spanRewrite)), "ms"},
		{"storage.snapshot_save_ms", ms(meanOf(durs(spanSnapSave))), "ms"},
		{"storage.snapshot_kb", ratio(args(spanSnapSave)/1024, float64(len(byKind[spanSnapSave]))), "kB"},
		{"sched.replay_wait_us", d.mean("rex_replay_wait_seconds") * 1e6, "us"},
		{"sched.replay_waits_per_op", perWrite(d.total("rex_replay_waited_total")), "count"},
		{"sched.replay_lag_us", d.mean("rex_replay_commit_lag_seconds") * 1e6, "us"},
		{"readpath.lin_read_us_p50", us(quantile(s.lin, 0.5)), "us"},
		{"readpath.session_read_us_p50", us(quantile(s.sess, 0.5)), "us"},
		{"readpath.lease_frac", ratio(leaseReads, leaseReads+barrierReads), "ratio"},
		{"readpath.barrier_reads", barrierReads, "count"},
		{"readpath.follower_frac", ratio(d.total("rex_follower_reads_total"), float64(len(s.reads))), "ratio"},
		{"readpath.read_wait_us", d.mean("rex_read_wait_seconds") * 1e6, "us"},
		{"readpath.read_timeouts", d.total("rex_read_wait_timeouts_total"), "count"},
		{"overload.sheds", d.total("rex_shed_total"), "count"},
		{"loadgen.late_ms_p99", ms(quantile(s.late, 0.99)), "ms"},
	}
}

func meanOf(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

// printMetrics prints one line per metric: name, value, unit.
func printMetrics(w io.Writer, prefix string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s%-34s %14.4f %s\n", prefix, m.name, m.value, m.unit)
	}
}

// printBusy prints each span kind's count and busy time (the union of its
// spans) over the window. Layer spans have no children, so self time
// equals busy time.
func printBusy(w io.Writer, win *window) {
	fmt.Fprintf(w, "%-24s %10s %12s %12s %10s\n", "span", "count", "sum_ms", "busy_ms", "busy_frac")
	for k, ss := range byKind(win.spans) {
		var sum int64
		for _, sp := range ss {
			sum += sp.end - sp.start
		}
		u := unionNs(ss)
		fmt.Fprintf(w, "%-24s %10d %12.1f %12.1f %10.4f\n", spanNames[k], len(ss),
			float64(sum)/1e6, float64(u)/1e6, float64(u)/1e9/win.seconds())
	}
}

// pick returns the named metrics, in the order of names.
func pick(ms []metric, names []string) []metric {
	byName := make(map[string]metric, len(ms))
	for _, m := range ms {
		byName[m.name] = m
	}
	out := make([]metric, 0, len(names))
	for _, n := range names {
		out = append(out, byName[n])
	}
	return out
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}
