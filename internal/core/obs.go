package core

import (
	"rex/internal/obs"
	"rex/internal/paxos"
	"rex/internal/sched"
)

// replicaMetrics bundles every series a replica records, together with the
// registry they are exported in. The series are always allocated — when
// Config.Metrics is nil the replica keeps a private registry — so hot
// paths never nil-check.
//
// Units follow the registry conventions: *_seconds histograms, *_total
// counters. See DESIGN.md "Observability" for the full catalogue.
type replicaMetrics struct {
	reg *obs.Registry

	reqsAdmitted  *obs.Counter
	reqsCompleted *obs.Counter
	execLatency   *obs.Histogram // admission → handler done (primary)
	reqLatency    *obs.Histogram // admission → response release (includes commit)
	ckptPause     *obs.Histogram // primary pause while placing a checkpoint mark
	ckptBuild     *obs.Histogram // snapshot serialization on the designated secondary
	promoteDur    *obs.Histogram // leader win → serving as primary
	rebuildDur    *obs.Histogram // rollback/recovery rebuild duration

	// Recovery-bound series: how often replicas fall back to a checkpoint
	// re-sync, how much work each rebuild folds in, and how often the
	// log-growth checkpoint floor fires (DESIGN.md "Recovery bounds").
	resyncs       *obs.Counter       // desync detected → rebuild scheduled
	rebuilds      *obs.Counter       // rebuilds completed (any cause)
	rebuildDeltas *obs.SizeHistogram // chosen instances folded per rebuild
	ckptFloor     *obs.Counter       // checkpoints forced by the log-growth floor
	applyBacklog  *obs.Gauge         // committed instances queued behind apply

	// Commit-path series: per-proposal delta shape and the end-to-end
	// propose → commit-applied latency at the primary.
	proposeCommit *obs.Histogram     // pump Propose → instance applied
	deltaBytes    *obs.SizeHistogram // encoded bytes per proposed delta
	deltaEvents   *obs.SizeHistogram // sync events per proposed delta

	// Read-path series (DESIGN.md "Read path"): how linearizable reads
	// were confirmed (lease fast path vs consensus barrier), how many
	// reads secondaries served, and how long reads waited on admission
	// (pending drain, barrier commit, or session-frontier catch-up).
	leaseReads    *obs.Counter   // linearizable reads confirmed by the lease
	confirmReads  *obs.Counter   // linearizable reads confirmed by a barrier
	followerReads *obs.Counter   // session/eventual reads served as secondary
	readWait      *obs.Histogram // admission wait per read that waited
	readTimeouts  *obs.Counter   // reads abandoned at ReadWaitTimeout

	// Overload-protection series (DESIGN.md "Overload & admission
	// control"): the admission gate's queue shape and everything shed
	// instead of queued.
	admissionWait      *obs.Histogram // time writes waited at the admission gate
	admissionThrottled *obs.Counter   // writes that waited on a lagging voter (flow control)
	admissionWaiters   *obs.Gauge     // submitters currently blocked at the gate
	admissionPressure  *obs.Gauge     // degradation level in force (0/1/2)
	shedTotal          *obs.Counter   // everything shed, any cause
	shedWrites         *obs.Counter   // writes shed by the CoDel gate
	shedReads          *obs.Counter   // reads shed under pressure (any level)
	deadlineExceeded   *obs.Counter   // requests failed fast on an expired deadline
	degradedReads      *obs.Counter   // linearizable reads served lease-only under pressure

	paxos  *paxos.Metrics
	replay *sched.ReplayObs
}

func newReplicaMetrics(reg *obs.Registry) *replicaMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &replicaMetrics{
		reg:           reg,
		reqsAdmitted:  reg.Counter("rex_requests_admitted_total"),
		reqsCompleted: reg.Counter("rex_requests_completed_total"),
		execLatency:   reg.Histogram("rex_exec_latency_seconds"),
		reqLatency:    reg.Histogram("rex_request_latency_seconds"),
		ckptPause:     reg.Histogram("rex_checkpoint_pause_seconds"),
		ckptBuild:     reg.Histogram("rex_checkpoint_build_seconds"),
		promoteDur:    reg.Histogram("rex_promotion_seconds"),
		rebuildDur:    reg.Histogram("rex_rebuild_seconds"),
		resyncs:       reg.Counter("rex_resync_total"),
		rebuilds:      reg.Counter("rex_rebuild_total"),
		rebuildDeltas: reg.SizeHistogram("rex_rebuild_deltas"),
		ckptFloor:     reg.Counter("rex_checkpoint_floor_total"),
		applyBacklog:  reg.Gauge("rex_apply_backlog"),
		proposeCommit: reg.Histogram("rex_propose_commit_seconds"),
		deltaBytes:    reg.SizeHistogram("rex_delta_bytes"),
		deltaEvents:   reg.SizeHistogram("rex_delta_events"),
		leaseReads:    reg.Counter("rex_lease_reads_total"),
		confirmReads:  reg.Counter("rex_lease_confirm_reads_total"),
		followerReads: reg.Counter("rex_follower_reads_total"),
		readWait:      reg.Histogram("rex_read_wait_seconds"),
		readTimeouts:  reg.Counter("rex_read_wait_timeouts_total"),

		admissionWait:      reg.Histogram("rex_admission_wait_seconds"),
		admissionThrottled: reg.Counter("rex_admission_throttled_total"),
		admissionWaiters:   reg.Gauge("rex_admission_waiters"),
		admissionPressure:  reg.Gauge("rex_admission_pressure"),
		shedTotal:          reg.Counter("rex_shed_total"),
		shedWrites:         reg.Counter("rex_shed_writes_total"),
		shedReads:          reg.Counter("rex_shed_reads_total"),
		deadlineExceeded:   reg.Counter("rex_deadline_exceeded_total"),
		degradedReads:      reg.Counter("rex_degraded_reads_total"),

		paxos:  paxos.NewMetrics(),
		replay: sched.NewReplayObs(),
	}
	m.paxos.Register(reg)
	m.replay.Register(reg)
	return m
}

// Metrics returns a point-in-time snapshot of every metric the replica
// records: stage latencies, Paxos counters, replay wait histograms, and
// checkpoint/promotion durations.
func (r *Replica) Metrics() obs.Snapshot {
	return r.obs.reg.Snapshot()
}
