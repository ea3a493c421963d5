package shard

import (
	"fmt"
	"strconv"

	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/storage"
	"rex/internal/transport"
)

// NodeConfig assembles one process's share of a sharded deployment: one
// core.Replica per group the map places on this node, all multiplexed
// over a single node-level endpoint.
type NodeConfig struct {
	Env      env.Env
	Map      *ShardMap
	Node     int
	Endpoint transport.Endpoint // node-level attachment (one listener, one peer mesh)

	// Disk returns the disk group g keeps its WAL and snapshots on
	// (storage.OpenStores) — a per-group directory in a real process, so
	// groups never share a WAL or a snapshot store. The default is a fresh
	// in-memory disk per group.
	Disk func(g int) storage.Disk

	// Template seeds every group's core.Config through ReplicaConfig. The
	// per-replica fields — ID, N, Env, Endpoint, Log, Snapshots, Metrics
	// and ReplicaConfig's group fields — are overwritten; everything else
	// (Factory, Workers, Timers, tuning) passes through unchanged.
	Template core.Config

	// Metrics, when set, receives each group's full series set (its WAL's
	// included) under a group="<g>" label, plus the node-wide rex_shard_*
	// aggregates.
	Metrics *obs.Registry

	// RebalanceWrap, when set, wraps each hosted group's factory with the
	// live-rebalance ownership layer (rebalance.WrapFactory, injected
	// here to keep shard free of a dependency cycle). Setting it marks
	// the node rebalance-enabled: servers then serve the live map from
	// group 0's replicated state instead of the static bootstrap map.
	RebalanceWrap func(group int, inner core.Factory) core.Factory
}

// Node hosts this process's replicas. One Node = one process in the
// deployment; its groups fail independently (stopping one group's replica
// does not touch the node endpoint or the other groups).
type Node struct {
	cfg  NodeConfig
	mux  *NodeMux
	gids []int
	reps map[int]*core.Replica
	wals map[int]*storage.FileLog
}

// NewNode builds (but does not start) the node's replicas.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.Node < 0 || cfg.Node >= cfg.Map.Nodes {
		return nil, fmt.Errorf("shard: node %d outside map's %d nodes", cfg.Node, cfg.Map.Nodes)
	}
	gids := cfg.Map.GroupsOn(cfg.Node)
	if len(gids) == 0 {
		return nil, fmt.Errorf("shard: map places no groups on node %d", cfg.Node)
	}
	if cfg.Disk == nil {
		cfg.Disk = func(int) storage.Disk { return storage.NewMemDisk() }
	}
	n := &Node{
		cfg:  cfg,
		mux:  NewNodeMux(cfg.Endpoint, cfg.Map, cfg.Node),
		gids: gids,
		reps: make(map[int]*core.Replica, len(gids)),
		wals: make(map[int]*storage.FileLog, len(gids)),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("rex_shard_groups").Set(int64(len(gids)))
		cfg.Metrics.Gauge("rex_shard_map_version").Set(int64(cfg.Map.Version))
		cfg.Metrics.Gauge("rex_shard_node").Set(int64(cfg.Node))
	}
	for _, g := range gids {
		rc := ReplicaConfig(cfg.Template, g, cfg.Map.ReplicaOn(g, cfg.Node))
		rc.Env = cfg.Env
		rc.N = cfg.Map.Replicas(g)
		rc.Endpoint = n.mux.Endpoint(g)
		wal, snaps, err := storage.OpenStores(cfg.Env, cfg.Disk(g))
		if err != nil {
			return nil, fmt.Errorf("shard: group %d durable state: %w", g, err)
		}
		n.wals[g] = wal
		rc.Log, rc.Snapshots = wal, snaps
		if cfg.Metrics != nil {
			rc.Metrics = cfg.Metrics.Labeled("group", strconv.Itoa(g))
			walObs := storage.NewLogMetrics()
			walObs.Register(rc.Metrics)
			wal.SetMetrics(walObs)
		}
		if cfg.RebalanceWrap != nil {
			rc.Factory = cfg.RebalanceWrap(g, rc.Factory)
		}
		rep, err := core.NewReplica(rc)
		if err != nil {
			return nil, fmt.Errorf("shard: group %d replica: %w", g, err)
		}
		n.reps[g] = rep
	}
	return n, nil
}

// ReplicaConfig derives replica id of group g from a template. Every
// host of a sharded deployment — NewNode in a process, cluster.NewMulti
// in the simulator — builds its replicas through it, so both stamp the
// same group state.
func ReplicaConfig(tmpl core.Config, g, id int) core.Config {
	rc := tmpl
	rc.ID = id
	rc.Group = g // session tokens are per-group; stamp the id
	// Decorrelate per-group randomness (election jitter above all):
	// identical seeds would make colocated groups' timers fire in
	// lockstep. Paxos mixes the replica id into its own stream.
	rc.Seed = tmpl.Seed + int64(g)*1009
	// The map's preferred primary (replica 0) gets half the election
	// timeout — Paxos picks base + rand(0..base), so its whole jitter
	// range sits below the others' and each group's primary lands where
	// the placement rotation put it, spreading leader load over the nodes.
	if id == 0 {
		if rc.ElectionTimeout <= 0 {
			rc.ElectionTimeout = core.DefaultElectionTimeout
		}
		rc.ElectionTimeout /= 2
	}
	return rc
}

// Start brings every hosted replica up.
func (n *Node) Start() error {
	for _, g := range n.gids {
		if err := n.reps[g].Start(); err != nil {
			return fmt.Errorf("shard: start group %d: %w", g, err)
		}
	}
	return nil
}

// Stop shuts every hosted replica down, then the node endpoint, then
// closes the WALs.
func (n *Node) Stop() {
	for _, g := range n.gids {
		n.reps[g].Stop()
	}
	n.mux.Close()
	for _, g := range n.gids {
		n.wals[g].Close()
	}
}

// WAL returns group g's write-ahead log, or nil if the map does not place
// g here.
func (n *Node) WAL(g int) *storage.FileLog { return n.wals[g] }

// Groups lists the hosted group ids, ascending.
func (n *Node) Groups() []int { return append([]int(nil), n.gids...) }

// Replica returns the hosted replica for group g, or nil if the map does
// not place g here.
func (n *Node) Replica(g int) *core.Replica { return n.reps[g] }

// Map returns the shard map the node was built from.
func (n *Node) Map() *ShardMap { return n.cfg.Map }

// RebalanceEnabled reports whether the node's groups run under the
// live-rebalance ownership layer.
func (n *Node) RebalanceEnabled() bool { return n.cfg.RebalanceWrap != nil }
