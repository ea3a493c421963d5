package chaos

import (
	"fmt"
	"math/rand"

	"rex/internal/apps/hashdb"
	"rex/internal/apps/lockserver"
	"rex/internal/apps/memcache"
	"rex/internal/check"
	"rex/internal/core"
)

// appSpec binds one application to its chaos workload and its sequential
// model. The workloads use a deliberately small key space with unique
// values per write, so the history is dense enough for the checker to
// have teeth.
type appSpec struct {
	name    string
	timers  int
	factory core.Factory
	model   check.Model
	// gen produces the next request body. seq is a per-client counter
	// used to make written values unique.
	gen func(rng *rand.Rand, client uint64, seq int) []byte
}

const (
	chaosKeys      = 8
	chaosLockNames = 6
)

// Apps lists the applications the chaos runner supports.
func Apps() []string { return []string{"hashdb", "memcache", "lockserver"} }

func specFor(name string) (appSpec, error) {
	switch name {
	case "hashdb":
		return appSpec{
			name:    name,
			timers:  hashdb.Timers(),
			factory: hashdb.New(hashdb.DefaultOptions()),
			model:   check.KVModel(false),
			gen: func(rng *rand.Rand, client uint64, seq int) []byte {
				return hashdbOp(rng, fmt.Sprintf("k%d", rng.Intn(chaosKeys)), fmt.Sprintf("c%d-n%d", client, seq))
			},
		}, nil
	case "memcache":
		// DefaultOptions' capacity (256k items) is never reached by an
		// 8-key workload, but the model still forgives eviction misses.
		return appSpec{
			name:    name,
			timers:  memcache.Timers(),
			factory: memcache.New(memcache.DefaultOptions()),
			model:   check.KVModel(true),
			gen: func(rng *rand.Rand, client uint64, seq int) []byte {
				key := fmt.Sprintf("k%d", rng.Intn(chaosKeys))
				switch r := rng.Intn(100); {
				case r < 45:
					return memcache.GetReq(key)
				case r < 90:
					return memcache.SetReq(key, []byte(fmt.Sprintf("c%d-n%d", client, seq)))
				default:
					return memcache.DelReq(key)
				}
			},
		}, nil
	case "lockserver":
		return appSpec{
			name:    name,
			timers:  0,
			factory: lockserver.New(lockserver.DefaultOptions()),
			model:   check.LockModel(),
			gen: func(rng *rand.Rand, client uint64, seq int) []byte {
				name := fmt.Sprintf("lk%d", rng.Intn(chaosLockNames))
				switch r := rng.Intn(100); {
				case r < 40:
					return lockserver.RenewReq(name, client)
				case r < 65:
					return lockserver.CreateReq(name, client, []byte(fmt.Sprintf("c%d-n%d", client, seq)))
				case r < 80:
					return lockserver.UpdateReq(name, client, []byte(fmt.Sprintf("c%d-n%d", client, seq)))
				default:
					return lockserver.InfoReq(name)
				}
			},
		}, nil
	}
	return appSpec{}, fmt.Errorf("chaos: unknown app %q (have %v)", name, Apps())
}
