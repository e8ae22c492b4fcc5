package flowsim

import "testing"

// forceSharding lowers the shard engagement thresholds so every gang
// path (pop scan, freeze, advance) runs even on the small configs the
// equivalence suite uses, restoring them when the test ends.
func forceSharding(t *testing.T) {
	t.Helper()
	touches, flows, scan := shardMinTouches, shardMinFlows, shardMinScan
	shardMinTouches, shardMinFlows, shardMinScan = 1, 1, 1
	t.Cleanup(func() {
		shardMinTouches, shardMinFlows, shardMinScan = touches, flows, scan
	})
}

// TestShardedMatchesSerialAtScale runs a real direct-send compositing
// phase large enough to engage the sharded sections at their default
// thresholds, and requires results bit-identical to the rescan
// reference at every worker count.
func TestShardedMatchesSerialAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second phase simulation")
	}
	top, p, msgs := directSendPhase(1024)
	var ftR FlowTimes
	want := simulateRescanTimed(top, p, msgs, nil, &ftR)
	for _, workers := range []int{1, 2, 4} {
		var ft FlowTimes
		got, _ := SimulateOpt(top, p, msgs, Options{Times: &ft, Workers: workers})
		if got != want {
			t.Errorf("workers=%d Result %+v, rescan reference %+v", workers, got, want)
		}
		sameTimes(t, &ft, &ftR)
	}
}
