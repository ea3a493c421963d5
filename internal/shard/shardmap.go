// Package shard runs N independent Rex replica groups across one set of
// processes and routes client requests by key (partitioned parallel SMR:
// Marandi & Pedone). Each group is a full Rex cluster — Consensus,
// Determinism, and Prefix hold per group exactly as before — and the
// key→group mapping is static and conflict-free, so no cross-group
// ordering is ever needed. The pieces:
//
//   - ShardMap: the static, versioned placement of N groups × M replicas
//     over P nodes, with each group's preferred primary rotated across
//     nodes so leaders (and their WAL fsync load) spread over all
//     machines.
//   - NodeMux: multiplexes one replica endpoint per hosted group over a
//     single node-level transport endpoint.
//   - Router: hashes an application-supplied key to a group and forwards
//     the request to that group's client, which follows per-group
//     `not primary` hints independently.
//   - Node: hosts one core.Replica per hosted group inside one process,
//     with per-group storage and per-group-labeled metrics.
package shard

import (
	"fmt"
	"hash/fnv"

	"rex/internal/wire"
)

// ShardMap is the versioned key→group→replica placement. It is identical
// on every node (distributed out of band or fetched over the client
// protocol) and never changes within a version; live rebalancing
// (internal/rebalance) installs successor versions through the map
// consensus sequence, which is why every routed request carries the map
// version (range epoch) it was routed under.
type ShardMap struct {
	// Version identifies this placement; nodes reject requests routed
	// under a different version.
	Version uint64
	// Nodes is the number of processes the groups are placed over.
	Nodes int
	// Placement[g][r] is the node hosting replica r of group g. Replica 0
	// is the group's preferred primary; NewShardMap rotates it across
	// nodes so per-group primaries spread over all machines.
	Placement [][]int
	// Ranges partitions the 64-bit key-hash space into contiguous ranges,
	// sorted ascending by Start with Ranges[0].Start == 0; range i covers
	// [Ranges[i].Start, Ranges[i+1].Start) (the last range runs to the top
	// of the hash space). Empty means the legacy static hash%groups
	// routing; rebalance-enabled deployments seed ranges with
	// EnsureRanges.
	Ranges []Range
}

// Range is one contiguous span of the key-hash space owned by a group.
type Range struct {
	// Start is the first hash value in the range.
	Start uint64
	// Group owns the range.
	Group int
	// Epoch is the map version at which this group last acquired the
	// range (move) or at which the range's boundaries were last fused
	// (merge). Routed requests carry it as a fence: a replica whose
	// replicated ownership state has not yet reached the epoch NACKs
	// instead of serving a stale view. Splits inherit the parent epoch —
	// ownership is unchanged, so no fence blip.
	Epoch uint64
}

// NewShardMap builds the canonical rotated placement: replica r of group
// g lands on node (g+r) mod nodes, so group g's preferred primary sits on
// node g mod nodes.
func NewShardMap(version uint64, groups, nodes, replicasPerGroup int) (*ShardMap, error) {
	if groups < 1 {
		return nil, fmt.Errorf("shard: need at least one group, got %d", groups)
	}
	if replicasPerGroup < 1 {
		return nil, fmt.Errorf("shard: need at least one replica per group, got %d", replicasPerGroup)
	}
	if nodes < replicasPerGroup {
		return nil, fmt.Errorf("shard: %d replicas per group need at least that many nodes, got %d",
			replicasPerGroup, nodes)
	}
	m := &ShardMap{Version: version, Nodes: nodes, Placement: make([][]int, groups)}
	for g := range m.Placement {
		row := make([]int, replicasPerGroup)
		for r := range row {
			row[r] = (g + r) % nodes
		}
		m.Placement[g] = row
	}
	return m, nil
}

// Groups returns the number of replica groups.
func (m *ShardMap) Groups() int { return len(m.Placement) }

// Replicas returns the number of replicas in group g.
func (m *ShardMap) Replicas(g int) int { return len(m.Placement[g]) }

// HashKey hashes a key into the 64-bit range space. The hash is FNV-64a
// run through a 64-bit finalizer — fixed and seedless, so the same key
// maps to the same hash on every node, in every process, across
// restarts. The finalizer matters: raw FNV barely avalanches the high
// bits for short, similar keys, and range partitioning splits on the
// high bits (plain hash%groups only ever looked at the low ones).
func HashKey(key []byte) uint64 {
	f := fnv.New64a()
	f.Write(key)
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// GroupFor hashes a key to its group: by range lookup when the map has
// ranges, by hash%groups otherwise (the legacy static layout).
func (m *ShardMap) GroupFor(key []byte) int {
	h := HashKey(key)
	if len(m.Ranges) > 0 {
		return m.Ranges[m.RangeIndexFor(h)].Group
	}
	return int(h % uint64(len(m.Placement)))
}

// RangeIndexFor returns the index of the range covering hash h. The map
// must have ranges.
func (m *ShardMap) RangeIndexFor(h uint64) int {
	lo, hi := 0, len(m.Ranges)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if m.Ranges[mid].Start <= h {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// RangeBounds returns range i's span as an inclusive [lo, hi] pair.
func (m *ShardMap) RangeBounds(i int) (lo, hi uint64) {
	lo = m.Ranges[i].Start
	if i+1 < len(m.Ranges) {
		return lo, m.Ranges[i+1].Start - 1
	}
	return lo, ^uint64(0)
}

// EnsureRanges seeds the map with one equal-width range per group (range
// g owned by group g, epoch = the map version) if it has none. Rebalance-
// enabled deployments call this once at bootstrap; static deployments
// never do and keep hash%groups routing.
func (m *ShardMap) EnsureRanges() {
	if len(m.Ranges) > 0 {
		return
	}
	g := uint64(len(m.Placement))
	step := ^uint64(0)/g + 1 // 0 (i.e. 2^64) when g == 1; Start math still lands on 0
	for i := uint64(0); i < g; i++ {
		m.Ranges = append(m.Ranges, Range{Start: i * step, Group: int(i), Epoch: m.Version})
	}
}

// Clone returns a deep copy of the map.
func (m *ShardMap) Clone() *ShardMap {
	c := &ShardMap{Version: m.Version, Nodes: m.Nodes}
	for _, row := range m.Placement {
		c.Placement = append(c.Placement, append([]int(nil), row...))
	}
	c.Ranges = append([]Range(nil), m.Ranges...)
	return c
}

// WithSplit returns a successor map (version+1) in which the range
// containing hash `at` is split at `at`. Both halves keep the owner and
// epoch of the parent, so routing and fencing are unchanged — a split is
// pure metadata.
func (m *ShardMap) WithSplit(at uint64) (*ShardMap, error) {
	if len(m.Ranges) == 0 {
		return nil, fmt.Errorf("shard: map v%d has no ranges (rebalancing disabled)", m.Version)
	}
	i := m.RangeIndexFor(at)
	if m.Ranges[i].Start == at {
		return nil, fmt.Errorf("shard: hash %#x is already a range boundary", at)
	}
	c := m.Clone()
	c.Version++
	nr := Range{Start: at, Group: c.Ranges[i].Group, Epoch: c.Ranges[i].Epoch}
	c.Ranges = append(c.Ranges[:i+1], append([]Range{nr}, c.Ranges[i+1:]...)...)
	return c, nil
}

// WithMerge returns a successor map (version+1) in which the range
// starting exactly at `boundary` is fused into its left neighbor. Both
// ranges must be owned by the same group; the fused range's epoch is the
// new version (the owner's replicated ownership state is fused by a
// MergeOwned control op at the same version).
func (m *ShardMap) WithMerge(boundary uint64) (*ShardMap, error) {
	if len(m.Ranges) == 0 {
		return nil, fmt.Errorf("shard: map v%d has no ranges (rebalancing disabled)", m.Version)
	}
	i := m.RangeIndexFor(boundary)
	if i == 0 || m.Ranges[i].Start != boundary {
		return nil, fmt.Errorf("shard: hash %#x is not an interior range boundary", boundary)
	}
	if m.Ranges[i-1].Group != m.Ranges[i].Group {
		return nil, fmt.Errorf("shard: ranges around %#x are owned by groups %d and %d; move first",
			boundary, m.Ranges[i-1].Group, m.Ranges[i].Group)
	}
	c := m.Clone()
	c.Version++
	c.Ranges[i-1].Epoch = c.Version
	c.Ranges = append(c.Ranges[:i], c.Ranges[i+1:]...)
	return c, nil
}

// WithMove returns a successor map (version+1) in which the range
// containing hash `at` is reassigned to group dest, with its epoch bumped
// to the new version (the ownership fence for the migration).
func (m *ShardMap) WithMove(at uint64, dest int) (*ShardMap, error) {
	if len(m.Ranges) == 0 {
		return nil, fmt.Errorf("shard: map v%d has no ranges (rebalancing disabled)", m.Version)
	}
	if dest < 0 || dest >= m.Groups() {
		return nil, fmt.Errorf("shard: destination group %d out of range [0,%d)", dest, m.Groups())
	}
	i := m.RangeIndexFor(at)
	if m.Ranges[i].Group == dest {
		return nil, fmt.Errorf("shard: range at %#x is already owned by group %d", at, dest)
	}
	c := m.Clone()
	c.Version++
	c.Ranges[i].Group = dest
	c.Ranges[i].Epoch = c.Version
	return c, nil
}

// ReplicaOn returns the index within group g of the replica hosted on
// node, or -1 if the group has no replica there.
func (m *ShardMap) ReplicaOn(g, node int) int {
	for r, n := range m.Placement[g] {
		if n == node {
			return r
		}
	}
	return -1
}

// GroupsOn lists the groups with a replica on node, ascending.
func (m *ShardMap) GroupsOn(node int) []int {
	var out []int
	for g := range m.Placement {
		if m.ReplicaOn(g, node) >= 0 {
			out = append(out, g)
		}
	}
	return out
}

// Validate checks structural invariants: non-empty groups, placement
// within node bounds, and no group with two replicas on one node.
func (m *ShardMap) Validate() error {
	if len(m.Placement) == 0 {
		return fmt.Errorf("shard: map has no groups")
	}
	if m.Nodes < 1 {
		return fmt.Errorf("shard: map has %d nodes", m.Nodes)
	}
	for g, row := range m.Placement {
		if len(row) == 0 {
			return fmt.Errorf("shard: group %d has no replicas", g)
		}
		seen := make(map[int]bool, len(row))
		for r, n := range row {
			if n < 0 || n >= m.Nodes {
				return fmt.Errorf("shard: group %d replica %d placed on unknown node %d", g, r, n)
			}
			if seen[n] {
				return fmt.Errorf("shard: group %d has two replicas on node %d", g, n)
			}
			seen[n] = true
		}
	}
	for i, r := range m.Ranges {
		if i == 0 && r.Start != 0 {
			return fmt.Errorf("shard: first range starts at %#x, not 0", r.Start)
		}
		if i > 0 && r.Start <= m.Ranges[i-1].Start {
			return fmt.Errorf("shard: range %d start %#x not above predecessor", i, r.Start)
		}
		if r.Group < 0 || r.Group >= len(m.Placement) {
			return fmt.Errorf("shard: range %d owned by unknown group %d", i, r.Group)
		}
		if r.Epoch > m.Version {
			return fmt.Errorf("shard: range %d epoch %d above map version %d", i, r.Epoch, m.Version)
		}
	}
	return nil
}

// Encode appends the map to e.
func (m *ShardMap) Encode(e *wire.Encoder) {
	e.Uvarint(m.Version)
	e.Uvarint(uint64(m.Nodes))
	e.Uvarint(uint64(len(m.Placement)))
	for _, row := range m.Placement {
		e.Uvarint(uint64(len(row)))
		for _, n := range row {
			e.Uvarint(uint64(n))
		}
	}
	e.Uvarint(uint64(len(m.Ranges)))
	for _, r := range m.Ranges {
		e.Uvarint(r.Start)
		e.Uvarint(uint64(r.Group))
		e.Uvarint(r.Epoch)
	}
}

// EncodeBytes returns the map's wire encoding.
func (m *ShardMap) EncodeBytes() []byte {
	e := wire.NewEncoder(nil)
	m.Encode(e)
	return e.Bytes()
}

// minRangeBytes is the smallest encoded range: start, group, epoch.
const minRangeBytes = 3

// DecodeShardMap reads a map written by Encode and validates it.
func DecodeShardMap(d *wire.Decoder) (*ShardMap, error) {
	m := &ShardMap{Version: d.Uvarint(), Nodes: int(d.Uvarint())}
	// Every count is bounded by the unread input (a row is at least its
	// length byte, a replica or a range field one byte each), so a short
	// map cannot announce an allocation it does not carry.
	groups := d.Count(1)
	const maxGroups = 1 << 16
	if d.Err() == nil && (groups == 0 || groups > maxGroups) {
		return nil, fmt.Errorf("shard: implausible group count %d", groups)
	}
	for g := 0; g < groups && d.Err() == nil; g++ {
		n := d.Count(1)
		if d.Err() == nil && n > m.Nodes {
			return nil, fmt.Errorf("shard: group %d lists %d replicas over %d nodes", g, n, m.Nodes)
		}
		row := make([]int, 0, n)
		for r := 0; r < n && d.Err() == nil; r++ {
			row = append(row, int(d.Uvarint()))
		}
		m.Placement = append(m.Placement, row)
	}
	nr := d.Count(minRangeBytes)
	const maxRanges = 1 << 20
	if d.Err() == nil && nr > maxRanges {
		return nil, fmt.Errorf("shard: implausible range count %d", nr)
	}
	for i := 0; i < nr && d.Err() == nil; i++ {
		m.Ranges = append(m.Ranges, Range{
			Start: d.Uvarint(),
			Group: int(d.Uvarint()),
			Epoch: d.Uvarint(),
		})
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("shard: decode map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeShardMapBytes decodes a map from its EncodeBytes form.
func DecodeShardMapBytes(b []byte) (*ShardMap, error) {
	return DecodeShardMap(wire.NewDecoder(b))
}

// String renders the placement compactly for logs and rexctl.
func (m *ShardMap) String() string {
	s := fmt.Sprintf("shardmap v%d: %d groups over %d nodes", m.Version, m.Groups(), m.Nodes)
	for g, row := range m.Placement {
		s += fmt.Sprintf("\n  group %d: nodes %v (preferred primary on node %d)", g, row, row[0])
	}
	for i, r := range m.Ranges {
		_, hi := m.RangeBounds(i)
		s += fmt.Sprintf("\n  range [%#016x, %#016x] -> group %d (epoch %d)", r.Start, hi, r.Group, r.Epoch)
	}
	return s
}
