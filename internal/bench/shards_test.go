package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestShardScalingSmoke(t *testing.T) {
	cfg := ShardScalingConfig{
		GroupCounts:      []int{1, 2},
		Nodes:            3,
		ReplicasPerGroup: 3,
		// One worker per replica keeps the single-group point
		// execution-bound, so the extra group's pipeline shows up even
		// with this small client population.
		Workers:    1,
		Cores:      4,
		Clients:    64,
		Keys:       256,
		ValueBytes: 32,
		Warmup:     100 * time.Millisecond,
		Measure:    200 * time.Millisecond,
		Seed:       42,
		Apps:       []string{"hashdb"},
	}
	res, err := RunShardScaling(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	PrintShardScaling(os.Stderr, res)
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Throughput <= 0 {
			t.Errorf("%s @ %d groups: zero throughput", pt.App, pt.Groups)
		}
		if len(pt.PerGroup) != pt.Groups {
			t.Fatalf("%s @ %d groups: %d per-group rates", pt.App, pt.Groups, len(pt.PerGroup))
		}
		// The per-group rates must account for the aggregate.
		sum := 0.0
		for _, v := range pt.PerGroup {
			if v <= 0 {
				t.Errorf("%s @ %d groups: idle group (rates %v)", pt.App, pt.Groups, pt.PerGroup)
				break
			}
			sum += v
		}
		if math.Abs(sum-pt.Throughput) > 0.01*pt.Throughput+1 {
			t.Errorf("%s @ %d groups: per-group sum %.0f != aggregate %.0f", pt.App, pt.Groups, sum, pt.Throughput)
		}
	}
	// Two independent pipelines must beat one on this CPU-bound app.
	if s := res.Points[1].SpeedupVs1; s < 1.3 {
		t.Errorf("2-group speedup %.2f, want >= 1.3", s)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back ShardScalingResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back.Points) != len(res.Points) {
		t.Fatalf("round-trip lost points: %d != %d", len(back.Points), len(res.Points))
	}
}

func TestShardScalingRejectsUnknownApp(t *testing.T) {
	cfg := QuickShardScaling()
	cfg.Apps = []string{"no-such-app"}
	if _, err := RunShardScaling(cfg, nil); err == nil {
		t.Fatal("want error for unknown app")
	}
}
