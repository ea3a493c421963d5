// Command rexd runs one Rex process over TCP, serving one of the built-in
// applications (see internal/apps). A three-replica local cluster:
//
//	rexd -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \
//	     -client 127.0.0.1:8000 -app lsmkv -dir /tmp/rex0 &
//	rexd -id 1 -peers ... -client 127.0.0.1:8001 -app lsmkv -dir /tmp/rex1 &
//	rexd -id 2 -peers ... -client 127.0.0.1:8002 -app lsmkv -dir /tmp/rex2 &
//
// With -shards N the same processes host N independent replica groups
// (one core.Replica per group per process, per-group WAL and snapshot
// directories) and clients route requests by key; see DESIGN.md §9.
//
// Then drive it with rexctl.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"rex/internal/apps"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/rebalance"
	"rex/internal/reconfig"
	"rex/internal/server"
	"rex/internal/shard"
	"rex/internal/storage"
	"rex/internal/transport"
)

func main() {
	id := flag.Int("id", 0, "node id (index into -peers)")
	peers := flag.String("peers", "", "comma-separated replication addresses, one per node")
	clientAddr := flag.String("client", "", "address to serve clients on")
	appName := flag.String("app", "lsmkv", "application: thumbnail|lockserver|lsmkv|hashdb|simplefs|memcache")
	dir := flag.String("dir", "", "data directory (WAL + checkpoints; per-group subdirectories when sharded)")
	workers := flag.Int("workers", 8, "request worker threads (per group)")
	readWorkers := flag.Int("read-workers", 2, "read-only query threads (per group)")
	maxInflight := flag.Int("max-inflight", 0, "per-group concurrent client requests before the server NACKs with retry-after (0 = default 1024, negative = unbounded)")
	maxOutstanding := flag.Int("max-outstanding", 0, "admitted-but-unanswered requests per group, i.e. speculation depth (0 = default 1024)")
	admissionTarget := flag.Duration("admission-target", 0, "CoDel sojourn target before the admission gate sheds (0 = default 25ms, negative = disable shedding)")
	admissionInterval := flag.Duration("admission-interval", 0, "CoDel control interval (0 = default 100ms)")
	maxAdmissionWaiters := flag.Int("max-admission-waiters", 0, "submitters allowed to block at the admission gate before arrivals are shed outright (0 = 4x -max-outstanding)")
	checkpointEvery := flag.Duration("checkpoint-every", 30*time.Second, "periodic checkpoint interval (0 = explicit opt-out; recovery cost is then bounded only by -checkpoint-max-log-bytes)")
	checkpointMaxLogBytes := flag.Int64("checkpoint-max-log-bytes", 0, "force a checkpoint once this many bytes of log accumulate without one (0 = default: the newest checkpoint's size, at least 64 KiB; negative = no floor)")
	shards := flag.Int("shards", 1, "number of independent replica groups (1 = unsharded)")
	rebalanceOn := flag.Bool("rebalance", false, "with -shards: enable live range rebalancing (rexctl rebalance split|merge|move)")
	groupReplicas := flag.Int("group-replicas", 0, "replicas per group (0 = one per node)")
	metricsAddr := flag.String("metrics", "", "address to serve the metrics text dump on (e.g. :8080; empty = disabled)")
	join := flag.Bool("join", false, "start as a joining learner: this node is outside the bootstrap membership and must be admitted with `rexctl reconfig add|replace`")
	verbose := flag.Bool("v", false, "verbose replica logging")
	flag.Parse()

	addrs := strings.Split(*peers, ",")
	if *peers == "" || *id < 0 || *id >= len(addrs) {
		log.Fatalf("rexd: -peers must list all nodes and -id must index into it")
	}
	if *clientAddr == "" {
		log.Fatalf("rexd: -client address required")
	}
	if *dir == "" {
		log.Fatalf("rexd: -dir data directory required")
	}
	if *checkpointEvery == 0 {
		log.Printf("rexd: WARNING: periodic checkpoints disabled (-checkpoint-every 0); " +
			"rebuild after a crash or demotion replays everything since the last checkpoint, " +
			"bounded only by the -checkpoint-max-log-bytes floor")
		if *checkpointMaxLogBytes < 0 {
			log.Printf("rexd: WARNING: -checkpoint-max-log-bytes < 0 removes the log-growth floor too; " +
				"recovery time is now unbounded")
		}
	}
	app, ok := apps.Get(*appName)
	if !ok {
		log.Fatalf("rexd: unknown application %q", *appName)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		log.Fatalf("rexd: %v", err)
	}
	ep, err := transport.ListenTCP(*id, addrs)
	if err != nil {
		log.Fatalf("rexd: listen: %v", err)
	}

	reg := obs.NewRegistry()
	ep.RegisterMetrics(reg)

	e := env.NewReal()
	template := core.Config{
		Env:                          e,
		Factory:                      app.Factory,
		Workers:                      *workers,
		Timers:                       app.Timers,
		ReadWorkers:                  *readWorkers,
		CheckpointEvery:              *checkpointEvery,
		MaxLogBytesWithoutCheckpoint: *checkpointMaxLogBytes,
		MaxOutstanding:               *maxOutstanding,
		AdmissionTarget:              *admissionTarget,
		AdmissionInterval:            *admissionInterval,
		MaxAdmissionWaiters:          *maxAdmissionWaiters,
		ElectionTimeout:              150 * time.Millisecond,
		Seed:                         int64(*id) + 1,
	}
	srvOpts := server.Options{MaxInflightPerGroup: *maxInflight}
	if *verbose {
		template.Logf = log.Printf
	}
	if *join {
		if *shards > 1 {
			log.Fatalf("rexd: -join supports unsharded deployments (admit a sharded node group by group with rexctl reconfig)")
		}
		m := reconfig.Joiner(len(addrs), *id)
		template.Members = &m
	}

	var wals []*storage.FileLog // for /healthz
	var srv *server.Server
	var stopReplicas func()
	healthReps := make(map[int]healthSource) // by group id, for /healthz and /readyz
	if *shards > 1 {
		rpg := *groupReplicas
		if rpg <= 0 {
			rpg = len(addrs)
		}
		smap, err := shard.NewShardMap(1, *shards, len(addrs), rpg)
		if err != nil {
			log.Fatalf("rexd: %v", err)
		}
		var wrap func(int, core.Factory) core.Factory
		if *rebalanceOn {
			smap.EnsureRanges()
			wrap = func(g int, inner core.Factory) core.Factory {
				return rebalance.WrapFactory(inner, smap, g, g == 0)
			}
		}
		node, err := shard.NewNode(shard.NodeConfig{
			Env:      e,
			Map:      smap,
			Node:     *id,
			Endpoint: ep,
			Disk: func(g int) storage.Disk {
				return storage.OSDisk(filepath.Join(*dir, fmt.Sprintf("group-%d", g)))
			},
			Template:      template,
			Metrics:       reg,
			RebalanceWrap: wrap,
		})
		if err != nil {
			log.Fatalf("rexd: %v", err)
		}
		if err := node.Start(); err != nil {
			log.Fatalf("rexd: start: %v", err)
		}
		srv, err = server.ListenNodeWith(node, *clientAddr, srvOpts)
		if err != nil {
			log.Fatalf("rexd: client listener: %v", err)
		}
		for _, g := range node.Groups() {
			healthReps[g] = node.Replica(g)
			wals = append(wals, node.WAL(g))
		}
		stopReplicas = node.Stop
		log.Printf("rexd: node %d/%d hosting groups %v of %d (%q) on %s (replication %s)",
			*id, len(addrs), node.Groups(), *shards, *appName, srv.Addr(), addrs[*id])
	} else {
		wal, snaps, err := storage.OpenStores(e, storage.OSDisk(*dir))
		if err != nil {
			log.Fatalf("rexd: open WAL: %v", err)
		}
		walObs := storage.NewLogMetrics()
		walObs.Register(reg)
		wal.SetMetrics(walObs)
		wals = append(wals, wal)
		cfg := template
		cfg.ID = *id
		cfg.N = len(addrs)
		cfg.Endpoint = ep
		cfg.Log = wal
		cfg.Snapshots = snaps
		cfg.Metrics = reg
		// Committed membership changes carry the replication addresses of
		// admitted nodes; teach the TCP mesh each one so this process can
		// reach joiners it was not started knowing about. (Unsharded only:
		// membership ids here are node ids. A sharded group's membership
		// uses in-group replica ids, which must not be fed to the node-id
		// keyed peer map.)
		cfg.OnMembership = func(m reconfig.Membership) {
			for nid, a := range m.Addrs {
				ep.SetPeer(nid, a)
			}
		}
		replica, err := core.NewReplica(cfg)
		if err != nil {
			log.Fatalf("rexd: %v", err)
		}
		if err := replica.Start(); err != nil {
			log.Fatalf("rexd: start: %v", err)
		}
		srv, err = server.ListenWith(replica, *clientAddr, srvOpts)
		if err != nil {
			log.Fatalf("rexd: client listener: %v", err)
		}
		healthReps[0] = replica
		stopReplicas = func() {
			replica.Stop()
			wal.Close()
		}
		log.Printf("rexd: replica %d/%d serving %q on %s (replication %s)",
			*id, len(addrs), *appName, srv.Addr(), addrs[*id])
	}

	if *metricsAddr != "" {
		mux := metricsMux(reg, healthReps, wals)
		go func() {
			log.Printf("rexd: metrics on http://%s/metrics (health: /healthz, /readyz; profiles: /debug/pprof/)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("rexd: metrics endpoint: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("rexd: shutting down")
	srv.Close()
	stopReplicas()
}

// healthSource is what /healthz and /readyz read of a replica.
type healthSource interface {
	Health() core.Health
}

// metricsMux serves the -metrics endpoints: the registry's text dump at
// /metrics, per-group health at /healthz and /readyz, and the runtime
// profiles at /debug/pprof/. The handlers live on this mux, not on
// http.DefaultServeMux.
func metricsMux(reg *obs.Registry, reps map[int]healthSource, wals []*storage.FileLog) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WriteText(w); err != nil {
			log.Printf("rexd: metrics dump: %v", err)
		}
	})
	// Group ids in a stable order for the health dumps.
	gids := make([]int, 0, len(reps))
	for g := range reps {
		gids = append(gids, g)
	}
	sort.Ints(gids)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, g := range gids {
			h := reps[g].Health()
			fmt.Fprintf(w, "group %d: role=%s epoch=%d applied=%d chosen=%d voters=%v learners=%v voter=%v catching_up=%v\n",
				g, h.Role, h.Epoch, h.Applied, h.ChosenSeq, h.Voters, h.Learners, h.Voter, h.CatchingUp)
		}
		var dur uint64
		for _, wal := range wals {
			dur += wal.DurableRecords()
		}
		fmt.Fprintf(w, "wal_durable_records=%d\n", dur)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		var notReady []string
		for _, g := range gids {
			h := reps[g].Health()
			if !h.Ready() {
				notReady = append(notReady,
					fmt.Sprintf("group %d: role=%s voter=%v catching_up=%v", g, h.Role, h.Voter, h.CatchingUp))
			}
		}
		if len(notReady) > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			for _, line := range notReady {
				fmt.Fprintln(w, line)
			}
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
