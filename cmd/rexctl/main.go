// Command rexctl drives a rexd cluster from the command line.
//
//	rexctl -servers 127.0.0.1:8000,127.0.0.1:8001,127.0.0.1:8002 \
//	       -app lsmkv put mykey myvalue
//	rexctl -servers ... -app lsmkv get mykey
//	rexctl -servers ... -app lsmkv -query -replica 1 get mykey
//	rexctl -servers ... -app lsmkv -level session get mykey
//
// Against a sharded cluster (rexd -shards N), -sharded fetches the shard
// map and routes the command by key (default: the command's first
// argument); `shardmap` prints the deployment's map and `status` prints
// every group's role/leader/progress:
//
//	rexctl -servers ... -app hashdb -sharded put mykey myvalue
//	rexctl -servers ... shardmap
//	rexctl -servers ... status
//
// Cluster operations (see the README runbook): `members` prints the
// committed membership, and `reconfig` proposes a change (the request is
// routed to the group's primary; -group targets one group of a sharded
// deployment):
//
//	rexctl -servers ... members
//	rexctl -servers ... reconfig add 3 127.0.0.1:7003
//	rexctl -servers ... reconfig remove 1
//	rexctl -servers ... reconfig replace 1 3 127.0.0.1:7003
//
// Live rebalancing (rexd -shards N -rebalance): `rebalance` drives
// consensus-committed shard-map changes while the deployment serves
// traffic. Points are uint64 hashes (0x... accepted) or, for anything
// that doesn't parse as a number, a literal key whose hash is used.
// With -live, keyed commands route through the envelope-speaking router
// that follows map changes:
//
//	rexctl -servers ... rebalance status
//	rexctl -servers ... rebalance split 0x4000000000000000
//	rexctl -servers ... rebalance move mykey 1
//	rexctl -servers ... rebalance merge 0x4000000000000000
//	rexctl -servers ... -app hashdb -sharded -live put mykey myvalue
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"

	"rex/internal/apps"
	"rex/internal/core"
	"rex/internal/readpath"
	"rex/internal/server"
	"rex/internal/shard"
)

func roleName(r core.Role) string {
	switch r {
	case core.RolePrimary:
		return "primary"
	case core.RoleSecondary:
		return "secondary"
	case core.RoleFaulted:
		return "faulted"
	case core.RoleRemoved:
		return "removed"
	}
	return fmt.Sprintf("role-%d", r)
}

// parsePoint reads a range-space point: a uint64 (decimal or 0x hex),
// or a literal key whose hash is used.
func parsePoint(s string) uint64 {
	if h, err := strconv.ParseUint(s, 0, 64); err == nil {
		return h
	}
	return shard.HashKey([]byte(s))
}

// runRebalance parses and drives one live shard-map change:
// `status`, `split <at>`, `merge <boundary>`, or `move <at> <dest>`.
func runRebalance(id uint64, m *shard.ShardMap, addrs []string, args []string) error {
	cd, err := server.NewCoordinator(id, m, addrs)
	if err != nil {
		return err
	}
	cd.Logf = log.Printf
	if len(args) == 0 {
		return fmt.Errorf("rebalance needs a subcommand: status|split|merge|move")
	}
	switch args[0] {
	case "status":
		cur, pending, err := cd.FetchMap()
		if err != nil {
			return err
		}
		fmt.Printf("map (pending=%v):\n%s\n", pending, cur)
		for g := 0; g < cur.Groups(); g++ {
			st, err := cd.Status(g)
			if err != nil {
				fmt.Printf("group %d: unreachable: %v\n", g, err)
				continue
			}
			fmt.Printf("group %d: %s\n", g, st)
		}
		return nil
	case "split":
		if len(args) != 2 {
			return fmt.Errorf("usage: rebalance split <at>")
		}
		nm, err := cd.Split(parsePoint(args[1]))
		if err != nil {
			return err
		}
		fmt.Printf("split committed: map v%d\n", nm.Version)
		return nil
	case "merge":
		if len(args) != 2 {
			return fmt.Errorf("usage: rebalance merge <boundary>")
		}
		nm, err := cd.Merge(parsePoint(args[1]))
		if err != nil {
			return err
		}
		fmt.Printf("merge committed: map v%d\n", nm.Version)
		return nil
	case "move":
		if len(args) != 3 {
			return fmt.Errorf("usage: rebalance move <at> <dest-group>")
		}
		dest, err := strconv.Atoi(args[2])
		if err != nil || dest < 0 {
			return fmt.Errorf("bad destination group %q", args[2])
		}
		nm, err := cd.Move(parsePoint(args[1]), dest)
		if err != nil {
			return err
		}
		fmt.Printf("move committed: map v%d\n", nm.Version)
		return nil
	}
	return fmt.Errorf("unknown rebalance subcommand %q", args[0])
}

// runReconfig parses and submits one membership-change command:
// `add <id> <addr>`, `remove <id>`, or `replace <oldID> <newID> <addr>`.
// addr may be "-" for in-process deployments with no TCP addresses.
func runReconfig(cl *server.Client, args []string) error {
	atoi := func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad replica id %q", s)
		}
		return n, nil
	}
	addrArg := func(s string) string {
		if s == "-" {
			return ""
		}
		return s
	}
	if len(args) == 0 {
		return fmt.Errorf("reconfig needs a subcommand: add|remove|replace")
	}
	switch args[0] {
	case "add":
		if len(args) != 3 {
			return fmt.Errorf("usage: reconfig add <id> <addr>")
		}
		nid, err := atoi(args[1])
		if err != nil {
			return err
		}
		return cl.AddMember(nid, addrArg(args[2]))
	case "remove":
		if len(args) != 2 {
			return fmt.Errorf("usage: reconfig remove <id>")
		}
		nid, err := atoi(args[1])
		if err != nil {
			return err
		}
		return cl.RemoveMember(nid)
	case "replace":
		if len(args) != 4 {
			return fmt.Errorf("usage: reconfig replace <oldID> <newID> <addr>")
		}
		oldID, err := atoi(args[1])
		if err != nil {
			return err
		}
		newID, err := atoi(args[2])
		if err != nil {
			return err
		}
		return cl.ReplaceMember(oldID, newID, addrArg(args[3]))
	}
	return fmt.Errorf("unknown reconfig subcommand %q", args[0])
}

// printStatus dumps each group's per-replica status. For an unsharded
// cluster the map is a single group spanning every server.
func printStatus(id uint64, m *shard.ShardMap, addrs []string) {
	for g := 0; g < m.Groups(); g++ {
		row := m.Placement[g]
		gaddrs := make([]string, len(row))
		for r, n := range row {
			gaddrs[r] = addrs[n]
		}
		cl := server.NewGroupClient(id+uint64(g), g, gaddrs)
		fmt.Printf("group %d:\n", g)
		for r := range row {
			st, err := cl.Status(r)
			if err != nil {
				fmt.Printf("  replica %d (node %d, %s): unreachable: %v\n", r, row[r], gaddrs[r], err)
				continue
			}
			fmt.Printf("  replica %d (node %d, %s): %s leader=%d applied=%d completed=%d outstanding=%d\n",
				r, row[r], gaddrs[r], roleName(st.Role), st.Leader, st.Applied, st.ReqsCompleted, st.Outstanding)
		}
		cl.Close()
	}
}

func main() {
	servers := flag.String("servers", "", "comma-separated client addresses of the nodes")
	appName := flag.String("app", "lsmkv", "application the cluster runs")
	query := flag.Bool("query", false, "run as a read-only query instead of a replicated request")
	replica := flag.Int("replica", 0, "replica to query (with -query; in-group index when sharded)")
	levelName := flag.String("level", "", "consistency level for -query: linearizable|session|eventual (default: raw replica-local query)")
	sharded := flag.Bool("sharded", false, "fetch the shard map and route the command by key")
	live := flag.Bool("live", false, "with -sharded: route through the live-rebalance envelope (rexd -rebalance)")
	key := flag.String("key", "", "routing key with -sharded (default: the command's first argument)")
	clientID := flag.Uint64("client", 0, "client id (default: random)")
	group := flag.Int("group", 0, "shard group for members/reconfig commands")
	flag.Parse()

	if *servers == "" {
		log.Fatal("rexctl: -servers required")
	}
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("rexctl: no command (e.g. `put k v`, `get k`, `shardmap`, `status`)")
	}
	addrs := strings.Split(*servers, ",")
	id := *clientID
	if id == 0 {
		id = rand.Uint64()
	}
	cl := server.NewClient(id, addrs)
	defer cl.Close()

	var level readpath.Level
	if *levelName != "" {
		var err error
		if level, err = readpath.ParseLevel(*levelName); err != nil {
			log.Fatalf("rexctl: %v", err)
		}
		*query = true // -level implies a read
	}

	switch args[0] {
	case "shardmap":
		m, err := cl.LatestShardMap()
		if err != nil {
			log.Fatalf("rexctl: %v", err)
		}
		fmt.Println(m)
		return
	case "status":
		m, err := cl.LatestShardMap()
		if err != nil {
			// Unsharded: one group, replica i on "node" i.
			m = &shard.ShardMap{Version: 0, Nodes: len(addrs), Placement: [][]int{make([]int, len(addrs))}}
			for i := range m.Placement[0] {
				m.Placement[0][i] = i
			}
		}
		printStatus(id, m, addrs)
		return
	case "members":
		gcl := server.NewGroupClient(id, *group, addrs)
		defer gcl.Close()
		var lastErr error
		for i := range addrs {
			m, err := gcl.Membership(i)
			if err != nil {
				lastErr = err
				continue
			}
			fmt.Printf("group %d: %s\n", *group, m)
			return
		}
		log.Fatalf("rexctl: no server answered a membership fetch: %v", lastErr)
	case "reconfig":
		gcl := server.NewGroupClient(id, *group, addrs)
		defer gcl.Close()
		if err := runReconfig(gcl, args[1:]); err != nil {
			log.Fatalf("rexctl: %v", err)
		}
		fmt.Println("reconfiguration accepted")
		return
	case "rebalance":
		m, err := cl.LatestShardMap()
		if err != nil {
			log.Fatalf("rexctl: fetch shard map: %v", err)
		}
		if err := runRebalance(id+1, m, addrs, args[1:]); err != nil {
			log.Fatalf("rexctl: %v", err)
		}
		return
	}

	body, err := apps.Command(*appName, args)
	if err != nil {
		log.Fatalf("rexctl: %v", err)
	}

	var resp []byte
	if *sharded {
		m, err := cl.LatestShardMap()
		if err != nil {
			log.Fatalf("rexctl: fetch shard map: %v", err)
		}
		var router *shard.Router
		if *live {
			router, err = server.NewLiveShardRouter(id+1, m, addrs)
		} else {
			router, err = server.NewShardRouter(id+1, m, addrs)
		}
		if err != nil {
			log.Fatalf("rexctl: %v", err)
		}
		k := *key
		if k == "" {
			if len(args) < 2 {
				log.Fatal("rexctl: -sharded needs a routing key (-key or a command argument)")
			}
			k = args[1]
		}
		if *query {
			if *levelName != "" {
				resp, err = router.QueryLevel([]byte(k), level, body)
			} else {
				resp, err = router.Query([]byte(k), *replica, body)
			}
		} else {
			resp, err = router.Do([]byte(k), body)
		}
		if err != nil {
			log.Fatalf("rexctl: %v", err)
		}
		fmt.Printf("(group %d) %s\n", router.GroupFor([]byte(k)), apps.FormatResponse(*appName, args[0], resp))
		return
	}

	if *query {
		if *levelName != "" {
			resp, err = cl.QueryLevel(level, body)
		} else {
			resp, err = cl.Query(*replica, body)
		}
	} else {
		resp, err = cl.Do(body)
	}
	if err != nil {
		log.Fatalf("rexctl: %v", err)
	}
	fmt.Println(apps.FormatResponse(*appName, args[0], resp))
}
