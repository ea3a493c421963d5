package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rex/internal/bench"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestDispatchFigure(t *testing.T) {
	code, out, stderr := runArgs("-exp", "table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("table1 printed no Table 1:\n%s", out)
	}
}

func TestRejectsUsageErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table1", "-json", path}, "no JSON result"},
		{[]string{"-exp", "all", "-json", path}, "no JSON result"},
		{[]string{"-exp", "no-such-experiment"}, "unknown experiment"},
		{[]string{"-exp", "fig7", "-app", "no-such-app"}, "unknown application"},
	} {
		code, _, stderr := runArgs(tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr, tc.want)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a rejected -json run wrote %s", path)
	}
}

func TestRebalanceWritesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rebalance.json")
	code, out, stderr := runArgs("-exp", "rebalance", "-quick", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "wrote "+path) {
		t.Errorf("no wrote line:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res bench.RebalanceBenchResult
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if res.Keys == 0 || res.MoveSeconds <= 0 {
		t.Errorf("rebalance result looks empty: %+v", res)
	}
}
