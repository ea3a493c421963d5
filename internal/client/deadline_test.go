package client_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"rex/internal/client"
	"rex/internal/server"
)

// TestSilentServerTimesOut points a TCP client at a listener that accepts
// connections and never answers. Calls made without a context deadline
// must still give up with an error once the default call deadline passes,
// instead of waiting forever for a response header.
func TestSilentServerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	defer func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer client.SetCallTimeout(200 * time.Millisecond)()

	cl := server.NewClient(1, []string{ln.Addr().String()})
	defer cl.Close()
	done := make(chan error, 2)
	go func() {
		_, err := cl.FetchShardMap(0)
		done <- err
		_, err = cl.Do([]byte("x"))
		done <- err
	}()
	for _, call := range []string{"FetchShardMap", "Do"} {
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("%s against a silent server succeeded", call)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s against a silent server still waiting after 10s", call)
		}
	}
}
