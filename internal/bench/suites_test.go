package bench

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// roundTrip checks that a suite result survives its JSON encoding intact,
// so the BENCH_*.json files carry every field the tables print.
func roundTrip[T any](t *testing.T, res T) {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back T
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("round-trip changed the result:\n got %+v\nwant %+v", back, res)
	}
}

func TestReadScalingQuick(t *testing.T) {
	res, err := RunReadScaling(QuickReadScaling(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	PrintReadScaling(os.Stderr, res)
	var lin, sess *ReadPoint
	for i := range res.Points {
		switch pt := &res.Points[i]; {
		case pt.Replicas == 3 && pt.Level == "linearizable":
			lin = pt
		case pt.Replicas == 3 && pt.Level == "session":
			sess = pt
		}
	}
	if lin == nil || sess == nil {
		t.Fatalf("missing a 3-replica point: %+v", res.Points)
	}
	// Session reads fan out over the secondaries (documented ~3.5x the
	// linearizable baseline); demand a wide-margin 1.5x.
	if sess.Throughput < 1.5*lin.Throughput {
		t.Errorf("session %.0f ops/s vs linearizable %.0f: want >= 1.5x", sess.Throughput, lin.Throughput)
	}
	roundTrip(t, res)
}

func TestOverloadQuick(t *testing.T) {
	res, err := RunOverloadBench(QuickOverloadBench(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	PrintOverloadBench(os.Stderr, res)
	var prot, unprot *OverloadPoint
	for i := range res.Points {
		switch pt := &res.Points[i]; pt.Mode {
		case "protected":
			if prot == nil || pt.OfferedMult >= prot.OfferedMult {
				prot = pt
			}
		case "unprotected":
			unprot = pt
		}
	}
	if prot == nil || unprot == nil {
		t.Fatalf("missing a protected or unprotected point: %+v", res.Points)
	}
	if prot.OfferedMult != unprot.OfferedMult {
		t.Fatalf("contrast cell at %.1fx, top protected cell at %.1fx", unprot.OfferedMult, prot.OfferedMult)
	}
	// Admission control's whole point: past saturation, shedding keeps
	// goodput up while the unbounded queue eats every deadline.
	if prot.GoodputRPS <= unprot.GoodputRPS {
		t.Errorf("at %.1fx: protected goodput %.0f/s does not beat unprotected %.0f/s",
			prot.OfferedMult, prot.GoodputRPS, unprot.GoodputRPS)
	}
	roundTrip(t, res)
}

func TestRebalanceQuick(t *testing.T) {
	res, err := RunRebalanceBench(QuickRebalanceBench(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	PrintRebalanceBench(os.Stderr, res)
	if res.MoveSeconds <= 0 {
		t.Errorf("move took %.3fs: did it run?", res.MoveSeconds)
	}
	if res.SurvivingRatio <= 0 {
		t.Errorf("surviving-range ratio %.2f during the move: want > 0", res.SurvivingRatio)
	}
	roundTrip(t, res)
}
