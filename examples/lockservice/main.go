// lockservice: the paper's Chubby-like lock service with the two query
// semantics from §6.5.
//
// Lease renewals and file updates go through replication; read-only
// queries run outside the protocol on native-mode threads — on the primary
// they observe speculative (pre-consensus) state, on a secondary they
// observe committed, replayed state.
//
//	go run ./examples/lockservice
package main

import (
	"fmt"
	"time"

	"rex"
	"rex/internal/apps"
	"rex/internal/apps/lockserver"
	"rex/internal/wire"
)

func main() {
	app := apps.LockServer()
	e := rex.NewSimEnv(8)
	e.Run(func() {
		c := rex.NewCluster(e, app.Factory, rex.ClusterOptions{
			Replicas: 3,
			Template: rex.Config{
				Workers:     4,
				ReadWorkers: 2, // the native-mode query pool (hybrid execution)
			},
		})
		if err := c.Start(); err != nil {
			panic(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			panic(err)
		}

		const me = 7
		cl := c.NewClient(me)
		must := func(resp []byte, err error) []byte {
			if err != nil {
				panic(err)
			}
			return resp
		}

		resp := must(cl.Do(lockserver.CreateReq("/svc/leader", me, []byte("I am the service leader"))))
		fmt.Printf("create /svc/leader: status=%d\n", resp[0])
		for i := 0; i < 5; i++ {
			resp = must(cl.Do(lockserver.RenewReq("/svc/leader", me)))
			fmt.Printf("renew %d: status=%d\n", i+1, resp[0])
			e.Sleep(20 * time.Millisecond)
		}

		// Another client cannot steal the lease while it is held.
		thief := c.NewClient(8)
		resp = must(thief.Do(lockserver.UpdateReq("/svc/leader", 8, []byte("mine now"))))
		fmt.Printf("thief update: status=%d (2 = held by another client)\n", resp[0])

		// Query semantics: the same read on the primary (speculative) and a
		// secondary (committed).
		info := lockserver.InfoReq("/svc/leader")
		readInfo := func(replica int) string {
			resp, err := cl.Query(replica, info)
			if err != nil {
				return fmt.Sprintf("error: %v", err)
			}
			d := wire.NewDecoder(resp)
			if !d.Bool() {
				return "not replicated here yet"
			}
			holder := d.Uvarint()
			d.Uvarint() // expiry
			renews := d.Uvarint()
			return fmt.Sprintf("holder=%d renews=%d", holder, renews)
		}
		fmt.Printf("query on primary   %d: %s\n", p, readInfo(p))
		secondary := (p + 1) % 3
		// Give the secondary a moment to replay.
		e.Sleep(100 * time.Millisecond)
		fmt.Printf("query on secondary %d: %s\n", secondary, readInfo(secondary))
		c.Stop()
	})
}
