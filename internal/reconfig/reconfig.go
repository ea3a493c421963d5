// Package reconfig defines the versioned cluster membership that Rex
// commits through its own consensus stream to add, remove, and replace
// replicas without downtime (horizon-based, α-bounded reconfiguration).
//
// A membership change is an ordinary consensus value: the primary proposes
// the encoded next Membership at some instance i, and once chosen it takes
// effect at instance i+α. Every instance in [i, i+α) still uses the quorum
// of the epoch that proposed it; every instance ≥ i+α uses the new quorum.
// Rex keeps one consensus instance open at a time, so the proposer always
// picks DefaultAlpha; each membership value still carries its own α.
//
// Members come in two flavors: voters participate in promise/accept/election
// quorums; learners receive commits (and snapshots) but never vote. A fresh
// joiner enters as a learner, catches up via the existing checkpoint-transfer
// and chosen-log paths, and is promoted to voter by a second committed
// change once its lag is within a bound.
package reconfig

import (
	"fmt"
	"sort"

	"rex/internal/wire"
)

// valueMagic is the first byte of an encoded membership value. Trace deltas
// — the only other value kind in the consensus stream — begin with their
// format version byte (currently 2), so the magic makes the two
// unambiguous. 0xC7 ("C7onfig") is far from any plausible delta version.
const valueMagic = 0xC7

// encVersion is the membership encoding version, bumped on layout changes.
const encVersion = 1

// DefaultAlpha is the activation horizon the primary proposes every
// membership change with.
const DefaultAlpha = 10

// Membership is one epoch of cluster configuration. Epochs are assigned
// consecutively; exactly one change (epoch e → e+1) may be in flight at a
// time, serialized by the primary.
type Membership struct {
	Epoch    uint64
	Voters   []int          // replica ids with promise/accept/election rights
	Learners []int          // non-voting members catching up
	Addrs    map[int]string // replication address per member (TCP deployments; empty in-process)
	Alpha    uint64         // activation horizon: chosen at i → effective at i+Alpha
}

// Initial returns the epoch-0 membership for a cluster of n voters with ids
// 0..n-1, matching the static paxos.Config.N world.
func Initial(n int) Membership {
	m := Membership{Epoch: 0, Alpha: DefaultAlpha}
	for i := 0; i < n; i++ {
		m.Voters = append(m.Voters, i)
	}
	return m
}

// Joiner returns the bootstrap view of a node started with the intent of
// joining (rexd -join): the n peers it was pointed at are assumed voters,
// except itself, which it deliberately leaves out entirely. The view stays
// at epoch 0 so the cluster's real committed membership — learned from
// epoch-nacks and the chosen log — always supersedes it. Not listing self
// matters twice over: the joiner must never count itself a voter before
// the cluster admits it, and it must not think it was ever a member — a
// catching-up node activates every historical config on its way to the
// present, and absence from those must read as "not admitted yet", never
// as "removed".
func Joiner(n, self int) Membership {
	m := Membership{Epoch: 0, Alpha: DefaultAlpha}
	for i := 0; i < n; i++ {
		if i != self {
			m.Voters = append(m.Voters, i)
		}
	}
	return m
}

// Clone returns a deep copy.
func (m Membership) Clone() Membership {
	c := m
	c.Voters = append([]int(nil), m.Voters...)
	c.Learners = append([]int(nil), m.Learners...)
	if m.Addrs != nil {
		c.Addrs = make(map[int]string, len(m.Addrs))
		for id, a := range m.Addrs {
			c.Addrs[id] = a
		}
	}
	return c
}

// IsVoter reports whether id votes in this epoch.
func (m Membership) IsVoter(id int) bool {
	for _, v := range m.Voters {
		if v == id {
			return true
		}
	}
	return false
}

// IsLearner reports whether id is a non-voting member.
func (m Membership) IsLearner(id int) bool {
	for _, v := range m.Learners {
		if v == id {
			return true
		}
	}
	return false
}

// IsMember reports whether id is a voter or learner.
func (m Membership) IsMember(id int) bool { return m.IsVoter(id) || m.IsLearner(id) }

// Members returns all member ids (voters then learners), sorted.
func (m Membership) Members() []int {
	out := append(append([]int(nil), m.Voters...), m.Learners...)
	sort.Ints(out)
	return out
}

// Quorum returns the majority size over the voters.
func (m Membership) Quorum() int { return len(m.Voters)/2 + 1 }

// Validate checks structural invariants: at least one voter, no duplicate
// ids, no id both voter and learner, non-negative ids, Alpha ≥ 1.
func (m Membership) Validate() error {
	if len(m.Voters) == 0 {
		return fmt.Errorf("reconfig: membership epoch %d has no voters", m.Epoch)
	}
	if m.Alpha == 0 {
		return fmt.Errorf("reconfig: membership epoch %d has zero alpha", m.Epoch)
	}
	seen := make(map[int]bool)
	for _, id := range append(append([]int(nil), m.Voters...), m.Learners...) {
		if id < 0 {
			return fmt.Errorf("reconfig: negative member id %d", id)
		}
		if seen[id] {
			return fmt.Errorf("reconfig: duplicate member id %d", id)
		}
		seen[id] = true
	}
	return nil
}

func (m Membership) String() string {
	return fmt.Sprintf("epoch=%d voters=%v learners=%v alpha=%d", m.Epoch, m.Voters, m.Learners, m.Alpha)
}

// next clones m with the epoch advanced — the starting point for every
// change constructor.
func (m Membership) next() Membership {
	c := m.Clone()
	c.Epoch++
	return c
}

// WithAdd returns the next epoch with id joined as a non-voting learner at
// addr (addr may be empty in-process). Fails if id is already a member.
func (m Membership) WithAdd(id int, addr string) (Membership, error) {
	if m.IsMember(id) {
		return Membership{}, fmt.Errorf("reconfig: id %d is already a member", id)
	}
	c := m.next()
	c.Learners = append(c.Learners, id)
	sort.Ints(c.Learners)
	if addr != "" {
		if c.Addrs == nil {
			c.Addrs = make(map[int]string)
		}
		c.Addrs[id] = addr
	}
	return c, nil
}

// WithRemove returns the next epoch with id removed (voter or learner).
func (m Membership) WithRemove(id int) (Membership, error) {
	if !m.IsMember(id) {
		return Membership{}, fmt.Errorf("reconfig: id %d is not a member", id)
	}
	c := m.next()
	c.Voters = without(c.Voters, id)
	c.Learners = without(c.Learners, id)
	delete(c.Addrs, id)
	if len(c.Voters) == 0 {
		return Membership{}, fmt.Errorf("reconfig: removing id %d would leave no voters", id)
	}
	return c, nil
}

// WithPromote returns the next epoch with learner id promoted to voter.
func (m Membership) WithPromote(id int) (Membership, error) {
	if !m.IsLearner(id) {
		return Membership{}, fmt.Errorf("reconfig: id %d is not a learner", id)
	}
	c := m.next()
	c.Learners = without(c.Learners, id)
	c.Voters = append(c.Voters, id)
	sort.Ints(c.Voters)
	return c, nil
}

func without(ids []int, id int) []int {
	out := ids[:0]
	for _, v := range ids {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// IsValue reports whether val is an encoded membership (as opposed to a
// trace delta). Safe on arbitrary bytes.
func IsValue(val []byte) bool { return len(val) > 0 && val[0] == valueMagic }

// paddingMagic marks the no-op consensus value a leader proposes to push
// the instance counter across a pending activation horizon when client
// traffic alone would not (a chosen-but-idle cluster must still activate).
const paddingMagic = 0xC8

// PaddingValue returns a no-op consensus value.
func PaddingValue() []byte { return []byte{paddingMagic} }

// IsPadding reports whether val is a no-op padding value (bare padding or
// an id-carrying read barrier — both are no-ops for the state machine).
func IsPadding(val []byte) bool { return len(val) >= 1 && val[0] == paddingMagic }

// BarrierValue returns a no-op consensus value carrying a read-barrier
// id: committing one proves the proposer was still the leader at commit
// time, which is what an unleased linearizable read needs. To every
// consumer except the issuing replica it is ordinary padding.
func BarrierValue(id uint64) []byte {
	e := wire.NewEncoder(make([]byte, 0, 11))
	e.Byte(paddingMagic)
	e.Uvarint(id)
	return e.Bytes()
}

// BarrierID extracts the read-barrier id from a padding value; ok is
// false for bare padding or non-padding values.
func BarrierID(val []byte) (id uint64, ok bool) {
	if len(val) < 2 || val[0] != paddingMagic {
		return 0, false
	}
	d := wire.NewDecoder(val[1:])
	id = d.Uvarint()
	if d.Err() != nil {
		return 0, false
	}
	return id, true
}

// IsMeta reports whether val is consensus metadata (a membership or a
// padding no-op) rather than an application trace delta.
func IsMeta(val []byte) bool { return IsValue(val) || IsPadding(val) }

// EncodeValue encodes m as a consensus value.
func EncodeValue(m Membership) []byte {
	enc := wire.NewEncoder(nil)
	enc.Byte(valueMagic)
	enc.Byte(encVersion)
	enc.Uvarint(m.Epoch)
	enc.Uvarint(m.Alpha)
	enc.Uvarint(uint64(len(m.Voters)))
	for _, id := range m.Voters {
		enc.Uvarint(uint64(id))
	}
	enc.Uvarint(uint64(len(m.Learners)))
	for _, id := range m.Learners {
		enc.Uvarint(uint64(id))
	}
	ids := make([]int, 0, len(m.Addrs))
	for id := range m.Addrs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		enc.Uvarint(uint64(id))
		enc.String(m.Addrs[id])
	}
	return enc.Bytes()
}

// DecodeValue decodes a membership encoded by EncodeValue.
func DecodeValue(val []byte) (Membership, error) {
	if !IsValue(val) {
		return Membership{}, fmt.Errorf("reconfig: not a membership value")
	}
	dec := wire.NewDecoder(val)
	dec.Byte() // magic, checked above
	if v := dec.Byte(); v != encVersion && dec.Err() == nil {
		return Membership{}, fmt.Errorf("reconfig: unknown membership encoding version %d", v)
	}
	var m Membership
	m.Epoch = dec.Uvarint()
	m.Alpha = dec.Uvarint()
	// Counts are bounded by the unread input (wire.Count), and every loop
	// stops at the first decode error.
	nv := dec.Count(1)
	for i := 0; i < nv && dec.Err() == nil; i++ {
		m.Voters = append(m.Voters, int(dec.Uvarint()))
	}
	nl := dec.Count(1)
	for i := 0; i < nl && dec.Err() == nil; i++ {
		m.Learners = append(m.Learners, int(dec.Uvarint()))
	}
	na := dec.Count(2) // id, address length
	for i := 0; i < na && dec.Err() == nil; i++ {
		id := int(dec.Uvarint())
		addr := dec.String()
		if m.Addrs == nil {
			m.Addrs = make(map[int]string)
		}
		m.Addrs[id] = addr
	}
	if err := dec.Err(); err != nil {
		return Membership{}, fmt.Errorf("reconfig: decode membership: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Membership{}, err
	}
	return m, nil
}

// Scheduled pairs a membership with the instance it takes effect at: every
// instance ≥ FromInst uses M's quorum and epoch.
type Scheduled struct {
	FromInst uint64
	M        Membership
}

// EncodeSchedule encodes a config schedule (for snapshots and WAL records).
func EncodeSchedule(s []Scheduled) []byte {
	enc := wire.NewEncoder(nil)
	enc.Uvarint(uint64(len(s)))
	for _, sc := range s {
		enc.Uvarint(sc.FromInst)
		enc.BytesVal(EncodeValue(sc.M))
	}
	return enc.Bytes()
}

// DecodeSchedule decodes an EncodeSchedule blob.
func DecodeSchedule(b []byte) ([]Scheduled, error) {
	dec := wire.NewDecoder(b)
	n := dec.Count(2) // activation instance, membership length
	out := make([]Scheduled, 0, n)
	for i := 0; i < n; i++ {
		from := dec.Uvarint()
		mv := dec.BytesVal()
		if dec.Err() != nil {
			break
		}
		m, err := DecodeValue(mv)
		if err != nil {
			return nil, err
		}
		out = append(out, Scheduled{FromInst: from, M: m})
	}
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("reconfig: decode schedule: %w", err)
	}
	return out, nil
}
