package config

import (
	"math"
	"testing"

	"cais/internal/sim"
)

// FuzzHardwareValidate: every Hardware that Validate accepts prices its
// traffic: the plane bandwidth is finite and positive, and a request's
// serialization and HBM times convert without panicking.
func FuzzHardwareValidate(f *testing.F) {
	h := DGXH100()
	f.Add(h.NumGPUs, h.NumSwitchPlanes, h.SMsPerGPU, h.SMFLOPs, h.HBMBandwidth, h.LinkBandwidth, h.LinkEfficiency, h.RequestBytes)
	f.Add(8, 4, 66, math.Inf(1), math.NaN(), math.NaN(), 0.45, int64(8<<10))
	f.Add(1, 1, 1, 1.0, 1.0, math.SmallestNonzeroFloat64, 0.5, int64(math.MaxInt64))
	f.Add(2, 3, 200, math.MaxFloat64, 1e300, 1e-300, -1.0, int64(1))
	f.Fuzz(func(t *testing.T, gpus, planes, sms int, smFLOPs, hbm, link, eff float64, req int64) {
		h := DGXH100()
		h.NumGPUs, h.NumSwitchPlanes, h.SMsPerGPU = gpus, planes, sms
		h.SMFLOPs, h.HBMBandwidth, h.LinkBandwidth, h.LinkEfficiency = smFLOPs, hbm, link, eff
		h.RequestBytes = req
		if h.Validate() != nil {
			return
		}
		bw := h.PlaneBandwidth()
		if !(bw > 0) || math.IsInf(bw, 1) {
			t.Fatalf("accepted %+v with plane bandwidth %g", h, bw)
		}
		sim.DurationForBytes(h.RequestBytes+16, bw)
		sim.DurationForBytes(h.RequestBytes, h.HBMBandwidth)
		sim.DurationForFlops(1, h.GPUFLOPs())
	})
}
