package machine

import "testing"

func TestCrayXTProfile(t *testing.T) {
	xt := NewCrayXT()
	bgp := NewBGP()
	if xt.CoreHz <= bgp.CoreHz {
		t.Error("XT cores should be faster")
	}
	if xt.SecondsPerSample >= bgp.SecondsPerSample {
		t.Error("XT should render faster per core")
	}
	if xt.Torus.LinkBandwidth <= bgp.Torus.LinkBandwidth {
		t.Error("SeaStar links should be faster than BG/P links")
	}
	if xt.Torus.SendOverhead <= bgp.Torus.SendOverhead {
		t.Error("Portals per-message overhead should exceed BG/P's")
	}
	if xt.Storage.SatBW <= bgp.Storage.SatBW {
		t.Error("Lustre streaming ceiling should exceed the BG/P workload ceiling")
	}
	if cores := xt.CoresPerNode * xt.NodesPerRack * xt.Racks; cores < 32768 {
		t.Errorf("XT model too small for the experiments: %d cores", cores)
	}
}
