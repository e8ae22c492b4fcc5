module bgpvr/benchmark

go 1.22

require bgpvr v0.0.0

replace bgpvr => ../
