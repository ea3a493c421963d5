package cluster

import (
	"errors"
	"fmt"
	"time"

	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/rebalance"
	"rex/internal/shard"
	"rex/internal/transport"
)

// MultiCluster runs a sharded in-process deployment: one node-level
// network over the shard map's nodes, a shard.NodeMux per node, and one
// Cluster per replica group attached through the muxes. Groups colocated
// on a node share that node's simulated machine (its CPU cores), exactly
// like colocated replica processes share a server.
type MultiCluster struct {
	Env    env.Env
	Map    *shard.ShardMap
	Net    *transport.Network // node-level fabric, indexed by node id
	Muxes  []*shard.NodeMux   // one per node
	Groups []*Cluster         // one per group
	// Live is set when the deployment was built with
	// Options.LiveRebalance: routers speak the rebalance envelope and the
	// authoritative map lives in group 0's replicated state (Map is only
	// the bootstrap version).
	Live bool
}

// NewMulti builds (but does not start) a multi-group cluster over m.
// opts applies per group; Replicas is taken from the map, every replica's
// config is derived from opts.Template by shard.ReplicaConfig (the
// derivation sharded processes use: group id, per-group seed, replica 0's
// shortened election timeout).
func NewMulti(e env.Env, factory core.Factory, m *shard.ShardMap, opts Options) (*MultiCluster, error) {
	if opts.LiveRebalance {
		m.EnsureRanges()
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	mc := &MultiCluster{
		Env:  e,
		Map:  m,
		Net:  transport.NewNetwork(e, m.Nodes, netDelay, opts.Template.Seed),
		Live: opts.LiveRebalance,
	}
	nodeMachines := make([]int, m.Nodes)
	for n := range nodeMachines {
		nodeMachines[n] = -1
	}
	if me, ok := e.(machineEnv); ok {
		for n := range nodeMachines {
			nodeMachines[n] = me.AddMachine(me.Cores())
		}
	}
	for n := 0; n < m.Nodes; n++ {
		mc.Muxes = append(mc.Muxes, shard.NewNodeMux(mc.Net.Endpoint(n), m, n))
	}
	for g := 0; g < m.Groups(); g++ {
		g := g
		og := opts
		og.Replicas = m.Replicas(g)
		og.Endpoints = func(i int) transport.Endpoint {
			return mc.Muxes[m.Placement[g][i]].Endpoint(g)
		}
		og.Machines = make([]int, og.Replicas)
		for i := range og.Machines {
			og.Machines[i] = nodeMachines[m.Placement[g][i]]
		}
		og.Derive = func(cfg core.Config) core.Config { return shard.ReplicaConfig(cfg, g, cfg.ID) }
		fg := factory
		if opts.LiveRebalance {
			fg = rebalance.WrapFactory(factory, m, g, g == 0)
		}
		mc.Groups = append(mc.Groups, New(e, fg, og))
	}
	return mc, nil
}

// Start brings every group up.
func (mc *MultiCluster) Start() error {
	for g, c := range mc.Groups {
		if err := c.Start(); err != nil {
			return fmt.Errorf("cluster: start group %d: %w", g, err)
		}
	}
	return nil
}

// Stop shuts every group down, then the node muxes.
func (mc *MultiCluster) Stop() {
	for _, c := range mc.Groups {
		c.Stop()
	}
	for _, nm := range mc.Muxes {
		nm.Close()
	}
}

// Primary returns group g's current primary index within the group, or -1.
func (mc *MultiCluster) Primary(g int) int { return mc.Groups[g].Primary() }

// WaitAllPrimaries polls until every group has a primary, under one
// shared deadline.
func (mc *MultiCluster) WaitAllPrimaries(timeout time.Duration) error {
	deadline := mc.Env.Now() + timeout
	for g, c := range mc.Groups {
		for c.Primary() < 0 {
			if mc.Env.Now() >= deadline {
				return fmt.Errorf("cluster: group %d has no primary in time", g)
			}
			mc.Env.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// CrashGroupPrimary crashes group g's current primary and returns its
// in-group index. Other groups — including ones hosting replicas on the
// same node — keep running: only the one replica stops, not the node.
func (mc *MultiCluster) CrashGroupPrimary(g int) (int, error) {
	p := mc.Groups[g].Primary()
	if p < 0 {
		return -1, errors.New("cluster: group has no primary to crash")
	}
	mc.Groups[g].Crash(p)
	return p, nil
}

// NewRouter returns a keyed router backed by one fresh client per group.
// Client ids are idBase+group (plus idBase+groups for the map-fetch
// client under LiveRebalance); callers running several routers (or extra
// per-group clients) must space their id ranges so ids stay unique
// within each group.
//
// Under LiveRebalance the router speaks the rebalance envelope: it
// carries each request's range epoch, follows wrong-group/stale NACKs by
// refetching the authoritative map from group 0 with jittered backoff,
// and treats client.ErrPermanent as "reroute", transient errors as the
// caller's problem.
func (mc *MultiCluster) NewRouter(idBase uint64) *shard.Router {
	clients := make([]shard.GroupClient, mc.Map.Groups())
	for g := range clients {
		clients[g] = mc.Groups[g].NewClient(idBase + uint64(g))
	}
	r, err := shard.NewRouter(mc.Map, clients)
	if err != nil {
		panic(err) // impossible: one client per map group by construction
	}
	if mc.Live {
		r.Map = mc.Map.Clone() // refetch must not swap the map under other routers
		r.Enveloped = true
		r.Sleep = mc.Env.Sleep
		r.ClientID = idBase
		home := &rebalance.Coordinator{Groups: []shard.GroupClient{mc.Groups[0].NewClient(idBase + uint64(mc.Map.Groups()))}}
		r.Fetch = func() (*shard.ShardMap, error) {
			m, _, err := home.FetchMap()
			return m, err
		}
	}
	return r
}

// NewCoordinator returns a rebalance coordinator over fresh per-group
// clients (ids idBase+group — space id ranges as for NewRouter). Only
// valid under LiveRebalance.
func (mc *MultiCluster) NewCoordinator(idBase uint64, reg *obs.Registry) *rebalance.Coordinator {
	clients := make([]shard.GroupClient, mc.Map.Groups())
	for g := range clients {
		clients[g] = mc.Groups[g].NewClient(idBase + uint64(g))
	}
	return &rebalance.Coordinator{Groups: clients, Home: 0, Clock: mc.Env, Metrics: reg}
}
