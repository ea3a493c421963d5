package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind enumerates nemesis operations.
type Kind int

const (
	// KindCrashReplica crashes replica I (skipped if it would break the
	// majority).
	KindCrashReplica Kind = iota
	// KindCrashPrimary crashes whichever replica is currently primary.
	KindCrashPrimary
	// KindRestartAll restarts every crashed or faulted replica.
	KindRestartAll
	// KindPartition symmetrically cuts replica I off from the others.
	KindPartition
	// KindPartitionAsym cuts only the one-way link I -> J.
	KindPartitionAsym
	// KindHeal clears partitions, loss, and delay injections.
	KindHeal
	// KindLossBurst drops messages with probability P until the next heal.
	KindLossBurst
	// KindDelayBurst adds Min..Max delay on the links between I and J
	// (both directions) until the next heal.
	KindDelayBurst
	// KindWALFault arms replica I's disk to fail its next K writes; the
	// replica crash-stops on the first one that reaches its WAL.
	KindWALFault

	numKinds int = iota
)

// kindNames names the kinds for logs and metric names.
var kindNames = [numKinds]string{"crash_replica", "crash_primary", "restart_all", "partition",
	"partition_asym", "heal", "loss_burst", "delay_burst", "wal_fault"}

// String names the kind for logs and metric names.
func (k Kind) String() string {
	if k >= 0 && int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind_%d", int(k))
}

// Step is one timed nemesis operation.
type Step struct {
	At       time.Duration // offset from schedule start (virtual time)
	Kind     Kind
	I, J     int
	K        int
	P        float64
	Min, Max time.Duration
}

// String renders the step for verdict output.
func (st Step) String() string {
	switch st.Kind {
	case KindCrashReplica, KindPartition:
		return fmt.Sprintf("%v %s(%d)", st.At, st.Kind, st.I)
	case KindPartitionAsym:
		return fmt.Sprintf("%v %s(%d->%d)", st.At, st.Kind, st.I, st.J)
	case KindLossBurst:
		return fmt.Sprintf("%v %s(p=%.2f)", st.At, st.Kind, st.P)
	case KindDelayBurst:
		return fmt.Sprintf("%v %s(%d<->%d %v..%v)", st.At, st.Kind, st.I, st.J, st.Min, st.Max)
	case KindWALFault:
		return fmt.Sprintf("%v %s(%d k=%d)", st.At, st.Kind, st.I, st.K)
	}
	return fmt.Sprintf("%v %s", st.At, st.Kind)
}

// Schedule is a declarative fault plan, reproducible from its seed.
type Schedule struct {
	Seed  int64
	Steps []Step
}

// Generate derives a random schedule for an n-replica cluster from the
// seed. Faults land in the first 70% of the duration; the tail is left
// healed and fully restarted so the cluster can quiesce before checking.
func Generate(seed int64, n int, duration time.Duration) Schedule {
	rng := rand.New(rand.NewSource(seed))
	s := Schedule{Seed: seed}
	end := duration * 7 / 10
	at := duration / 20
	for at < end {
		st := Step{At: at}
		switch r := rng.Intn(100); {
		case r < 14:
			st.Kind = KindCrashReplica
			st.I = rng.Intn(n)
		case r < 27:
			st.Kind = KindCrashPrimary
		case r < 45:
			st.Kind = KindRestartAll
		case r < 55:
			st.Kind = KindPartition
			st.I = rng.Intn(n)
		case r < 64:
			st.Kind = KindPartitionAsym
			st.I = rng.Intn(n)
			st.J = (st.I + 1 + rng.Intn(n-1)) % n
		case r < 78:
			st.Kind = KindHeal
		case r < 85:
			st.Kind = KindLossBurst
			st.P = 0.05 + 0.2*rng.Float64()
		case r < 93:
			st.Kind = KindDelayBurst
			st.I = rng.Intn(n)
			st.J = (st.I + 1 + rng.Intn(n-1)) % n
			st.Min = time.Duration(1+rng.Intn(3)) * time.Millisecond
			st.Max = st.Min + time.Duration(1+rng.Intn(8))*time.Millisecond
		default:
			st.Kind = KindWALFault
			st.I = rng.Intn(n)
			st.K = 1 + rng.Intn(2)
		}
		s.Steps = append(s.Steps, st)
		at += time.Duration(40+rng.Intn(160)) * time.Millisecond
	}
	s.Steps = append(s.Steps,
		Step{At: end, Kind: KindHeal},
		Step{At: end + 20*time.Millisecond, Kind: KindRestartAll})
	return s
}
