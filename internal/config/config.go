// Package config holds the hardware and workload configuration of the CAIS
// reproduction: the simulated DGX-H100 system parameters (Section IV-A of
// the paper) and the Table I LLM settings.
package config

import (
	"fmt"
	"math"

	"cais/internal/sim"
)

// Hardware describes the simulated multi-GPU system. Defaults follow the
// paper's methodology: an 8-GPU DGX-H100 with four NVSwitch planes, 900 GB/s
// bidirectional (450 GB/s per direction) NVLink per GPU, 250 ns one-way
// GPU<->switch latency, 40 KB per-port merge tables, and the half-scale SM
// count (66) used for the scaled-down LLM variants.
type Hardware struct {
	// Topology.
	NumGPUs         int // GPUs participating in tensor parallelism
	NumSwitchPlanes int // parallel NVSwitch planes (DGX-H100: 4)

	// GPU compute.
	SMsPerGPU    int     // streaming multiprocessors per GPU
	SMFLOPs      float64 // dense BF16 FLOP/s per SM
	HBMBandwidth float64 // bytes/s of local memory bandwidth per GPU

	// Interconnect. LinkBandwidth is the per-GPU aggregate per direction;
	// each of the NumSwitchPlanes planes carries an equal share.
	// LinkEfficiency is the achievable fraction of wire bandwidth beyond
	// what packet queueing models (protocol, flow control, NCCL/NVLS
	// pipeline inefficiency); it is calibrated so the simulated
	// communication:computation ratio matches the paper's measurement
	// (~1.6:1 for LLaMA-7B on 8 GPUs, Fig. 2).
	LinkBandwidth  float64  // bytes/s per direction per GPU (wire rate)
	LinkEfficiency float64  // achievable fraction of wire rate
	LinkLatency    sim.Time // one-way GPU<->switch propagation
	SwitchLatency  sim.Time // switch-internal processing per packet

	// CAIS merge unit (per switch port).
	MergeTableBytes int64    // capacity of the merging table in bytes
	MergeTimeout    sim.Time // forward-progress eviction timeout

	// Traffic control.
	NumVirtualChannels int // VCs per input port when traffic control is on

	// Simulation granularity: communication is modeled as requests of
	// RequestBytes each (DESIGN.md §1). Smaller values increase fidelity
	// of the queueing/merging microstudies at higher event cost.
	RequestBytes int64

	// Execution-noise calibration (DESIGN.md §1): these reproduce the
	// uncoordinated inter-GPU request skew the paper measures (~35 us).
	KernelLaunchOverhead sim.Time // fixed per-kernel launch cost
	KernelLaunchJitter   sim.Time // uniform [0, J) extra per (gpu,kernel)
	TBTimeNoise          float64  // fractional per-TB execution-time noise

	// TBOverhead is the fixed dispatch/drain cost per thread block.
	TBOverhead sim.Time

	// ThrottleWindowBytes bounds a GPU's outstanding mergeable request
	// bytes when TB-aware request throttling is enabled (Sec. III-B-2).
	ThrottleWindowBytes int64

	// CommSMs is the number of SMs a dedicated communication kernel
	// occupies (NCCL-style channel count).
	CommSMs int

	// Data type width in bytes (BF16 = 2).
	ElemBytes int

	// Seed for all deterministic pseudo-randomness.
	Seed uint64
}

// DGXH100 returns the paper's simulated system: 8 H100 GPUs at half SM
// count (66), four NVSwitch planes, 450 GB/s per direction per GPU.
func DGXH100() Hardware {
	return Hardware{
		NumGPUs:         8,
		NumSwitchPlanes: 4,
		SMsPerGPU:       66,
		// H100 SXM BF16 tensor-core peak ~ 990 TFLOPS over 132 SMs;
		// the paper's CUTLASS kernels run near peak on the simulator.
		SMFLOPs:      7.5e12,
		HBMBandwidth: 3.35e12, // 3.35 TB/s
		// 900 GB/s bidirectional = 450 GB/s per direction wire rate.
		LinkBandwidth:        450e9,
		LinkEfficiency:       0.45,
		LinkLatency:          250 * sim.Nanosecond,
		SwitchLatency:        50 * sim.Nanosecond,
		MergeTableBytes:      40 << 10, // 40 KB per port
		MergeTimeout:         8 * sim.Microsecond,
		NumVirtualChannels:   2,
		RequestBytes:         8 << 10,
		KernelLaunchOverhead: 2 * sim.Microsecond,
		KernelLaunchJitter:   30 * sim.Microsecond,
		TBTimeNoise:          0.08,
		TBOverhead:           300 * sim.Nanosecond,
		// The paper's Sec. V-C-2 bound: system-wide merge footprint is
		// bounded by one GPU's outstanding requests = 1280 KB (40 KB per
		// switch port across 32 ports).
		// The paper's Sec. V-C-2 footprint bound: outstanding mergeable
		// bytes per GPU (1280 KB system-wide = 40 KB x 32 ports). The
		// throttle's primary mechanism is uplink-rate pacing; this bound
		// is the backstop.
		ThrottleWindowBytes: 1280 << 10,
		CommSMs:             16,
		ElemBytes:           2,
		Seed:                0xCA15,
	}
}

// FullScaleH100 returns the full-scale configuration used by the Table II
// scaled-down validation: 132 SMs.
func FullScaleH100() Hardware {
	h := DGXH100()
	h.SMsPerGPU = 132
	return h
}

// Validate reports configuration errors that would make a simulation
// meaningless (zero GPUs, non-positive bandwidths, and similar).
func (h Hardware) Validate() error {
	switch {
	case h.NumGPUs < 1:
		return fmt.Errorf("config: NumGPUs = %d, need >= 1", h.NumGPUs)
	case h.NumSwitchPlanes < 1:
		return fmt.Errorf("config: NumSwitchPlanes = %d, need >= 1", h.NumSwitchPlanes)
	case h.SMsPerGPU < 1:
		return fmt.Errorf("config: SMsPerGPU = %d, need >= 1", h.SMsPerGPU)
	case !finitePositive(h.SMFLOPs):
		return fmt.Errorf("config: SMFLOPs = %g, need finite > 0", h.SMFLOPs)
	case !finitePositive(h.HBMBandwidth):
		return fmt.Errorf("config: HBMBandwidth = %g, need finite > 0", h.HBMBandwidth)
	case !finitePositive(h.LinkBandwidth):
		return fmt.Errorf("config: LinkBandwidth = %g, need finite > 0", h.LinkBandwidth)
	case math.IsNaN(h.LinkEfficiency):
		return fmt.Errorf("config: LinkEfficiency is NaN")
	case h.LinkLatency < 0:
		return fmt.Errorf("config: negative LinkLatency")
	case h.MergeTableBytes < 0:
		return fmt.Errorf("config: negative MergeTableBytes")
	case h.RequestBytes < 1:
		return fmt.Errorf("config: RequestBytes = %d, need >= 1", h.RequestBytes)
	case h.ElemBytes < 1:
		return fmt.Errorf("config: ElemBytes = %d, need >= 1", h.ElemBytes)
	case h.NumVirtualChannels < 1:
		return fmt.Errorf("config: NumVirtualChannels = %d, need >= 1", h.NumVirtualChannels)
	case !finitePositive(h.PlaneBandwidth()):
		return fmt.Errorf("config: plane bandwidth %g = LinkBandwidth %g x efficiency / %d planes, need finite > 0",
			h.PlaneBandwidth(), h.LinkBandwidth, h.NumSwitchPlanes)
	case !finitePositive(h.GPUFLOPs()):
		return fmt.Errorf("config: GPU FLOP/s %g = SMFLOPs %g x %d SMs, need finite > 0",
			h.GPUFLOPs(), h.SMFLOPs, h.SMsPerGPU)
	}
	return nil
}

// finitePositive reports whether x is a positive, finite number (NaN is
// neither).
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// PlaneBandwidth is the effective per-direction bandwidth of one switch
// plane's link to one GPU.
func (h Hardware) PlaneBandwidth() float64 {
	eff := h.LinkEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return h.LinkBandwidth * eff / float64(h.NumSwitchPlanes)
}

// GPUFLOPs is the total dense FLOP/s of one GPU.
func (h Hardware) GPUFLOPs() float64 {
	return h.SMFLOPs * float64(h.SMsPerGPU)
}

// Model is one LLM configuration from Table I. Layer counts are not in the
// table; they follow the public model definitions (LLaMA-7B: 32) and the
// Megatron-GPT family sizing for the Mega-GPT variants, and only scale
// absolute runtime, not speedup ratios (layers are homogeneous).
type Model struct {
	Name      string
	Hidden    int // hidden size
	FFNHidden int // FFN intermediate size
	Heads     int // attention heads
	SeqLen    int // sequence length
	Batch     int // batch size
	Layers    int // transformer layers
}

// MegaGPT4B is Table I row 1.
func MegaGPT4B() Model {
	return Model{Name: "Mega-GPT-4B", Hidden: 2048, FFNHidden: 8192, Heads: 24, SeqLen: 1024, Batch: 16, Layers: 24}
}

// MegaGPT8B is Table I row 2.
func MegaGPT8B() Model {
	return Model{Name: "Mega-GPT-8B", Hidden: 3072, FFNHidden: 12288, Heads: 32, SeqLen: 1024, Batch: 12, Layers: 32}
}

// LLaMA7B is Table I row 3.
func LLaMA7B() Model {
	return Model{Name: "LLaMA-7B", Hidden: 4096, FFNHidden: 11264, Heads: 32, SeqLen: 3072, Batch: 3, Layers: 32}
}

// TableIModels returns the three evaluation models in paper order.
func TableIModels() []Model {
	return []Model{MegaGPT4B(), MegaGPT8B(), LLaMA7B()}
}

// Validate reports model configuration errors. Hidden need not be a
// multiple of Heads (Table I's Mega-GPT-4B is not; HeadDim rounds down),
// but every head needs at least one dimension, and Tokens must not
// overflow.
func (m Model) Validate() error {
	switch {
	case m.Hidden < 1 || m.FFNHidden < 1 || m.Heads < 1 || m.SeqLen < 1 || m.Batch < 1 || m.Layers < 1:
		return fmt.Errorf("config: model %q has non-positive dimension: %+v", m.Name, m)
	case m.Heads > m.Hidden:
		return fmt.Errorf("config: model %q has Heads %d > Hidden %d, leaving a head no dimension", m.Name, m.Heads, m.Hidden)
	case m.Batch > math.MaxInt/m.SeqLen:
		return fmt.Errorf("config: model %q: Batch %d x SeqLen %d overflows int", m.Name, m.Batch, m.SeqLen)
	}
	return nil
}

// Tokens is the number of tokens processed per step (batch * seqlen).
func (m Model) Tokens() int { return m.Batch * m.SeqLen }

// HeadDim is the per-head dimension (rounded down; Table I's Mega-GPT-4B
// pairs hidden 2048 with 24 heads).
func (m Model) HeadDim() int {
	d := m.Hidden / m.Heads
	if d < 1 {
		d = 1
	}
	return d
}

// Scale returns a copy with the key matrix dimensions multiplied by f
// (Section IV-B / Table II scaled-down methodology). Head count scales with
// hidden so head dimension stays constant.
func (m Model) Scale(f float64) Model {
	s := m
	s.Hidden = roundMult(int(float64(m.Hidden)*f), 64)
	s.FFNHidden = roundMult(int(float64(m.FFNHidden)*f), 64)
	s.Heads = max(1, int(float64(m.Heads)*f))
	for s.Hidden%s.Heads != 0 {
		s.Heads--
	}
	s.Name = fmt.Sprintf("%s-x%.2g", m.Name, f)
	return s
}

func roundMult(v, m int) int {
	if v < m {
		return m
	}
	return (v + m/2) / m * m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
