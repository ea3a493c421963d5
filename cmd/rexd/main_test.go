package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"rex/internal/core"
	"rex/internal/obs"
	"rex/internal/storage"
)

type fakeHealth core.Health

func (f fakeHealth) Health() core.Health { return core.Health(f) }

// TestMetricsMuxEndpoints: the -metrics listener answers the metrics
// dump, the health pages and the runtime profile index.
func TestMetricsMuxEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	wal, err := storage.OpenFileLog(filepath.Join(t.TempDir(), "wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	walObs := storage.NewLogMetrics()
	walObs.Register(reg)
	wal.SetMetrics(walObs)
	if err := wal.AppendBatch([][]byte{[]byte("rec")}); err != nil {
		t.Fatal(err)
	}
	reps := map[int]healthSource{0: fakeHealth{Role: core.RolePrimary, Voter: true}}
	srv := httptest.NewServer(metricsMux(reg, reps, []*storage.FileLog{wal}))
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":      "rex_wal_appends_total 1",
		"/healthz":      "wal_durable_records=1",
		"/readyz":       "ok",
		"/debug/pprof/": "goroutine",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), want) {
			t.Errorf("GET %s: body lacks %q:\n%s", path, want, body)
		}
	}
}
