package paxos

import (
	"rex/internal/obs"
)

// Metrics holds the consensus counters and the agree-stage latency
// histogram. All fields are always allocated (NewNode substitutes a
// private set when Config.Metrics is nil) so the event loop never
// nil-checks individual series.
type Metrics struct {
	Elections  *obs.Counter // Prepare rounds started by this node
	LeaderWins *obs.Counter // elections this node won
	NacksSent  *obs.Counter // Nacks sent to stale ballots
	NacksRecv  *obs.Counter // Nacks received for our ballots
	LearnReqs  *obs.Counter // catch-up Learn requests sent
	Commits    *obs.Counter // instances committed (learned chosen)
	Proposals  *obs.Counter // phase-2 instances opened at the leader
	Heartbeats *obs.Counter // leader beacons broadcast
	EpochNacks *obs.Counter // stale-epoch rejections sent
	Reconfigs  *obs.Counter // membership changes scheduled (chosen)

	LeaseGrants     *obs.Counter // read-lease grants sent by this voter
	LeaseSuppressed *obs.Counter // prepares dropped while a grant was live

	// CommitLatency is propose→commit at the leader: from opening phase 2
	// for an instance until a majority of Accepteds closes it.
	CommitLatency *obs.Histogram

	// PersistBatch is the number of durable records retired per WAL
	// AppendBatch — how well the event loop amortizes fsyncs when draining
	// its inbox (mean > 1 under load means N messages cost < N fsyncs).
	PersistBatch *obs.SizeHistogram
}

// NewMetrics allocates all series.
func NewMetrics() *Metrics {
	return &Metrics{
		Elections:       obs.NewCounter(),
		LeaderWins:      obs.NewCounter(),
		NacksSent:       obs.NewCounter(),
		NacksRecv:       obs.NewCounter(),
		LearnReqs:       obs.NewCounter(),
		Commits:         obs.NewCounter(),
		Proposals:       obs.NewCounter(),
		Heartbeats:      obs.NewCounter(),
		EpochNacks:      obs.NewCounter(),
		Reconfigs:       obs.NewCounter(),
		LeaseGrants:     obs.NewCounter(),
		LeaseSuppressed: obs.NewCounter(),
		CommitLatency:   obs.NewHistogram(),
		PersistBatch:    obs.NewSizeHistogram(),
	}
}

// Register exports the series into reg under rex_paxos_* names.
func (m *Metrics) Register(reg *obs.Registry) {
	reg.RegisterCounter("rex_paxos_elections_total", m.Elections)
	reg.RegisterCounter("rex_paxos_leader_wins_total", m.LeaderWins)
	reg.RegisterCounter("rex_paxos_nacks_sent_total", m.NacksSent)
	reg.RegisterCounter("rex_paxos_nacks_received_total", m.NacksRecv)
	reg.RegisterCounter("rex_paxos_learn_requests_total", m.LearnReqs)
	reg.RegisterCounter("rex_paxos_commits_total", m.Commits)
	reg.RegisterCounter("rex_paxos_proposals_total", m.Proposals)
	reg.RegisterCounter("rex_paxos_heartbeats_total", m.Heartbeats)
	reg.RegisterCounter("rex_paxos_epoch_nacks_total", m.EpochNacks)
	reg.RegisterCounter("rex_paxos_reconfigs_total", m.Reconfigs)
	reg.RegisterCounter("rex_lease_grants_total", m.LeaseGrants)
	reg.RegisterCounter("rex_lease_suppressed_prepares_total", m.LeaseSuppressed)
	reg.RegisterHistogram("rex_paxos_commit_latency_seconds", m.CommitLatency)
	reg.RegisterSizeHistogram("rex_paxos_persist_batch_records", m.PersistBatch)
}
