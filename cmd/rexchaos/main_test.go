package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"rex/internal/chaos"
)

func mustParse(t *testing.T, args []string) *config {
	t.Helper()
	c, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return c
}

func mustBuild(t *testing.T, c *config, seed int64) chaos.Scenario {
	t.Helper()
	sc, err := c.build(seed)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestReproduceLine checks that the printed reproduce line rebuilds the
// failing scenario exactly — preset, seed, and every flag the user set —
// and that an explicit -duration is honoured even when it equals another
// preset's default.
func TestReproduceLine(t *testing.T) {
	cases := []struct {
		args []string
		want chaos.Scenario // the scenario at seed+1
	}{
		{[]string{"-scenario", "reconfig", "-app", "hashdb", "-seed", "1"},
			chaos.Scenario{Name: "reconfig", Seed: 2, App: "hashdb", Duration: 3 * time.Second, Clients: 4}},
		{[]string{"-scenario", "recovery", "-app=lockserver", "-duration", "4s", "-v"},
			chaos.Scenario{Name: "recovery", Seed: 2, App: "lockserver", Duration: 4 * time.Second, Clients: 4}},
		{[]string{"-scenario", "overload", "-clients", "12", "-duration", "3s", "-seed", "5"},
			chaos.Scenario{Name: "overload", Seed: 6, App: "hashdb", Duration: 3 * time.Second, Clients: 12}},
		{[]string{"-scenario", "overload"},
			chaos.Scenario{Name: "overload", Seed: 2, App: "hashdb", Duration: 1500 * time.Millisecond, Clients: 48}},
		{[]string{"-scenario", "rebalance", "-groups", "4", "-scenarios", "3"},
			chaos.Scenario{Name: "rebalance", Seed: 2, App: "hashdb", Clients: 6, Groups: 4}},
		{[]string{"-seed", "1"}, // generic with the app derived from the seed
			chaos.Scenario{Name: "generic", Seed: 2, App: "lockserver", Duration: 3 * time.Second, Clients: 4}},
	}
	for _, tc := range cases {
		c := mustParse(t, tc.args)
		orig := mustBuild(t, c, c.seed+1)
		if orig != tc.want {
			t.Errorf("%q: built %+v, want %+v", tc.args, orig, tc.want)
		}
		line := c.reproduce(c.seed + 1)
		rest, ok := strings.CutPrefix(line, "go run ./cmd/rexchaos ")
		if !ok {
			t.Fatalf("reproduce line %q does not run rexchaos", line)
		}
		rc := mustParse(t, strings.Fields(rest))
		if rc.scenarios != 1 || rc.verbose != c.verbose {
			t.Errorf("%q: reproduce line %q runs %d scenarios, verbose=%v", tc.args, line, rc.scenarios, rc.verbose)
		}
		if got := mustBuild(t, rc, rc.seed); got != orig {
			t.Errorf("%q: reproduce line %q builds %+v, want %+v", tc.args, line, got, orig)
		}
	}
}
