// Package pfs models the Blue Gene/P parallel storage system of Fig 2:
// 17 SANs of four-to-eight file servers (136 logical servers), 4.3 PB
// capacity, reached from compute nodes through I/O nodes (one ION per 64
// compute nodes) over the tree network and a storage fabric. The model
// turns a physical access list (what the mpiio planner decides to read)
// into a virtual I/O time.
//
// # Model
//
// A collective read of B physical bytes in K accesses by an application
// partition with n I/O nodes and A aggregators costs
//
//	T = OpenCost                       (collective open, layout, tokens)
//	  + Procs*PerProcOverhead          (request exchange grows with p)
//	  + B / AggBW(n)                   (fabric/server streaming)
//	  + (K/A)*AccessLatency            (per-access request+seek, parallel
//	                                    across aggregators)
//	  + (Kmeta/Servers)*AccessLatency  (small metadata reads, parallel
//	                                    across file servers)
//
// with AggBW(n) = SatBW * n/(n+HalfSatIONs): each additional ION adds
// bandwidth, with diminishing returns as the shared file servers
// saturate. The paper's partition (23% of the machine, noncontiguous 3D
// volume accesses) observes 0.87-1.63 GB/s even though the system peak
// is ~50 GB/s; SatBW is the saturation point of *this workload*, not the
// hardware peak. Constants are calibrated so that the model lands on the
// paper's Table II and Fig 3/7 readings; EXPERIMENTS.md records the
// comparison.
package pfs

import (
	"bgpvr/internal/grid"
)

// Params describe the storage system and the calibrated cost constants.
type Params struct {
	Servers    int   // logical file servers (17 SANs x 8)
	StripeSize int64 // bytes per stripe unit across servers

	OpenCost        float64 // s, collective open + layout
	PerProcOverhead float64 // s per process, request/token overhead
	SatBW           float64 // bytes/s, workload saturation bandwidth
	HalfSatIONs     float64 // IONs at which half of SatBW is reached
	AccessLatency   float64 // s per physical access (request + seek)
	IONLinkBW       float64 // bytes/s per ION (10 GbE), hard cap
}

// NewBGPStorage returns the calibrated Blue Gene/P storage model.
func NewBGPStorage() Params {
	return Params{
		Servers:         136,
		StripeSize:      4 << 20,
		OpenCost:        0.5,
		PerProcOverhead: 8e-5,
		SatBW:           1.55e9,
		HalfSatIONs:     12,
		AccessLatency:   3e-3,
		IONLinkBW:       350e6,
	}
}

// AggBW returns the modeled aggregate streaming bandwidth (bytes/s)
// available to a partition with n I/O nodes.
func (p Params) AggBW(n int) float64 {
	if n < 1 {
		n = 1
	}
	sat := p.SatBW * float64(n) / (float64(n) + p.HalfSatIONs)
	if cap := float64(n) * p.IONLinkBW; cap < sat {
		return cap
	}
	return sat
}

// ReadJob describes one collective read to be timed.
type ReadJob struct {
	PhysicalBytes int64 // bytes the planner actually reads
	Accesses      int   // number of physical accesses
	Aggregators   int   // I/O aggregators issuing them
	IONs          int   // I/O nodes serving the partition
	Procs         int   // application processes participating
	// MetaAccessesPerProc counts small per-process metadata reads
	// (h5lite-style opens); they parallelize across file servers.
	MetaAccessesPerProc int
}

// Parts is ReadTime's decomposition into the storage-service
// components of the model above, in service order. It is what the
// model-mode tracer lays out as per-component I/O spans, mirroring how
// the paper attributes I/O time to open/request/stream/seek costs.
type Parts struct {
	Open    float64 // collective open, layout, tokens
	Request float64 // per-process request/token exchange
	Stream  float64 // fabric/server byte streaming
	Access  float64 // per-access request+seek across aggregators
	Meta    float64 // small metadata reads across file servers
}

// Total sums the components (in field order, so it reproduces
// ReadTime's historical floating-point result exactly).
func (p Parts) Total() float64 {
	t := p.Open
	t += p.Request
	t += p.Stream
	t += p.Access
	t += p.Meta
	return t
}

// ReadTimeParts returns the modeled time of the job split into its
// service components.
func (p Params) ReadTimeParts(j ReadJob) Parts {
	a := j.Aggregators
	if a < 1 {
		a = 1
	}
	parts := Parts{
		Open:    p.OpenCost,
		Request: float64(j.Procs) * p.PerProcOverhead,
		Stream:  float64(j.PhysicalBytes) / p.AggBW(j.IONs),
		Access:  float64(j.Accesses) / float64(a) * p.AccessLatency,
	}
	if j.MetaAccessesPerProc > 0 {
		total := float64(j.MetaAccessesPerProc) * float64(j.Procs)
		parts.Meta = total / float64(p.Servers) * p.AccessLatency
	}
	return parts
}

// ReadTime returns the modeled time of the job in seconds.
func (p Params) ReadTime(j ReadJob) float64 {
	return p.ReadTimeParts(j).Total()
}

// WriteTime returns the modeled time of a collective write with the
// same shape as a read job: 1.25 times the read, because parallel file
// systems pay extra for write serialization (locking/tokens, RAID
// read-modify-write).
func (p Params) WriteTime(j ReadJob) float64 {
	return 1.25 * p.ReadTime(j)
}

// ServerOf maps a file offset to the file server holding it under
// round-robin striping.
func (p Params) ServerOf(offset int64) int {
	return int((offset / p.StripeSize) % int64(p.Servers))
}

// ServerLoads distributes an access list over the striped servers and
// returns the bytes landing on each server. It validates the model's
// assumption that large collective reads spread evenly: the experiments
// assert a low max/mean imbalance for the plans they time.
func (p Params) ServerLoads(accesses []grid.Run) []int64 {
	loads := make([]int64, p.Servers)
	for _, a := range accesses {
		off := a.Offset
		for off < a.End() {
			s := p.ServerOf(off)
			stripeEnd := (off/p.StripeSize + 1) * p.StripeSize
			hi := min64(stripeEnd, a.End())
			loads[s] += hi - off
			off = hi
		}
	}
	return loads
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
