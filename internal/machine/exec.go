package machine

import (
	"fmt"

	"cais/internal/gpu"
	"cais/internal/kernel"
	"cais/internal/noc"
	"cais/internal/sim"
	"cais/internal/trace"
)

// LaunchKernel starts kernel k on every GPU (SPMD) and wires TB-level
// dependencies through the global tile tracker. onDone fires when the
// kernel has retired on all GPUs. The kernel gets its own wave number
// (LaunchAll batches share one).
func (m *Machine) LaunchKernel(k *kernel.Kernel, onDone func()) {
	m.nextWave++
	m.launchKernel(k, m.nextWave, onDone)
}

func (m *Machine) launchKernel(k *kernel.Kernel, wave int, onDone func()) {
	if err := k.Validate(); err != nil {
		panic(err)
	}
	m.nextLaunchID++
	launchID := m.nextLaunchID
	groupBase := m.nextGroupBase
	m.nextGroupBase += k.Grid

	span := &KernelSpan{Name: k.Name, Kind: k.Kind, Wave: wave, Start: m.Eng.Now()}
	m.KernelSpans = append(m.KernelSpans, span)
	var traceID uint64
	if m.tr.Enabled() {
		// Kernels overlap (asymmetric kernel overlapping), so they trace as
		// async spans on the machine process.
		traceID = m.tr.NextID()
		m.tr.BeginAsync(trace.PIDMachine, "kernel", k.Name, traceID, span.Start)
	}
	// The latch counts per-GPU completions; its release closes the span.
	latch := sim.NewLatch(len(m.GPUs))
	latch.OnRelease(func() {
		span.End = m.Eng.Now()
		if traceID != 0 {
			m.tr.EndAsync(trace.PIDMachine, "kernel", span.Name, traceID, span.End)
		}
		if onDone != nil {
			onDone()
		}
	})
	doneFn := latch.Done
	launches := m.launchScratch[:0]
	for g := range m.GPUs {
		launches = append(launches, m.GPUs[g].Launch(k, gpu.LaunchOpts{
			LaunchID:   launchID,
			GroupBase:  groupBase,
			OnTBRetire: m.tbRetireFn,
			OnDone:     doneFn,
		}))
	}
	// Register input dependencies after all launches exist so publishes
	// triggered by eligibility cascades see a consistent tracker. The
	// iteration order (gpu-major, then tb) is deterministic and identical
	// across runs; per-GPU relative TB order is identical across GPUs,
	// which keeps cross-GPU group synchronization deadlock-free.
	for g := range m.GPUs {
		for tb := 0; tb < k.Grid; tb++ {
			m.registerTB(launches[g], tb, k.Work(g, tb).In)
		}
	}
	m.launchScratch = launches[:0]
}

// Sequence launches kernels one after another with a global barrier
// between steps (the communication-centric baseline execution mode), then
// calls onDone.
func (m *Machine) Sequence(kernels []*kernel.Kernel, onDone func()) {
	var step func(i int)
	step = func(i int) {
		if i >= len(kernels) {
			if onDone != nil {
				onDone()
			}
			return
		}
		m.LaunchKernel(kernels[i], func() { step(i + 1) })
	}
	step(0)
}

// LaunchAll launches a set of kernels concurrently (they share the GPU per
// their SM partitions) and calls onDone when every one of them finished.
// The whole batch shares one wave number: the batch boundary is the
// barrier the critical-path extraction chains spans across.
func (m *Machine) LaunchAll(kernels []*kernel.Kernel, onDone func()) {
	if len(kernels) == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	m.nextWave++
	wave := m.nextWave
	batch := sim.NewLatch(len(kernels))
	if onDone != nil {
		batch.OnRelease(onDone)
	}
	bdone := batch.Done
	for _, k := range kernels {
		m.launchKernel(k, wave, bdone)
	}
}

func (m *Machine) registerTB(l *gpu.Launch, tb int, in [2]kernel.Tiles) {
	pending := 0
	var dep *tbDep
	for _, run := range in {
		for i := 0; i < run.N; i++ {
			s := m.slot(run.At(i))
			if s.ready {
				continue
			}
			if dep == nil {
				dep = m.deps.Get()
				dep.launch, dep.tb = l, tb
			}
			pending++
			m.addWaiter(s, dep)
		}
	}
	if pending == 0 {
		l.MarkEligible(tb)
		return
	}
	dep.pending = pending
}

// addWaiter appends a dependency record to a tile's waiter list, reusing
// a recycled backing array for lists starting from scratch. Identical
// dependency sets thereby share pool-interned storage across kernels
// instead of growing a fresh list per registration.
func (m *Machine) addWaiter(s *tileSlot, d *tbDep) {
	if s.waiters == nil && len(m.depLists) > 0 {
		s.waiters = m.depLists[len(m.depLists)-1]
		m.depLists = m.depLists[:len(m.depLists)-1]
	}
	s.waiters = append(s.waiters, d)
}

// PublishTiles marks a run of tiles globally ready, in run order, and
// wakes waiting TBs in registration order.
func (m *Machine) PublishTiles(tiles kernel.Tiles) {
	for i := 0; i < tiles.N; i++ {
		m.publishOne(tiles.At(i))
	}
}

// publishOne publishes a single tile: drained dependency records return
// to their pool and the waiter list's backing array goes back on the
// free list for the next registration. The slot is cleared before any TB
// wakes, because a woken TB may publish further tiles and grow the slot's
// buffer under the pointer.
func (m *Machine) publishOne(t kernel.Tile) {
	s := m.slot(t)
	if s.ready {
		return
	}
	s.ready = true
	m.PublishedTiles++
	deps := s.waiters
	if deps == nil {
		return
	}
	s.waiters = nil
	for i, d := range deps {
		deps[i] = nil
		d.pending--
		if d.pending == 0 {
			launch, tb := d.launch, d.tb
			d.reset()
			m.deps.Put(d)
			launch.MarkEligible(tb)
		}
	}
	m.depLists = append(m.depLists, deps[:0])
}

// TileReady reports whether a tile has been published.
func (m *Machine) TileReady(t kernel.Tile) bool { return m.slot(t).ready }

// OnData implements gpu.DataSink: a data packet committed to HBM at GPU g.
// Packets carrying a TileTag contribute toward their access's completion;
// once the required contribution bytes accumulate, its tile publishes.
func (m *Machine) OnData(g int, p *noc.Packet) {
	tag, ok := p.Tag.(*gpu.TileTag)
	if !ok || tag == nil {
		return
	}
	contribs := p.Contribs
	if contribs < 1 {
		contribs = 1
	}
	m.addContribution(g, tag.Base, tag.NeedBytes, int64(contribs)*p.Size, tag.Publish)
}

// OnAccessDone implements gpu.DataSink: one TB's access completed at the
// issuing GPU. Read accesses publish their tiles directly (the data is now
// local); local write/reduce accesses count as contributions at this (home)
// GPU.
func (m *Machine) OnAccessDone(g int, a kernel.Access) {
	if a.Sem == kernel.SemRead {
		m.publishFor(g, a.Publish)
		return
	}
	need := a.TileNeed
	if need <= 0 {
		need = 1
	}
	m.addContribution(g, a.Addr, int64(need)*a.Bytes, a.Bytes, a.Publish)
}

func (m *Machine) addContribution(g int, base uint64, needBytes, bytes int64, pub kernel.Publish) {
	key := contribKey{base: base, gpu: g}
	st, ok := m.contrib[key]
	if !ok {
		st = m.contribs.Get()
		st.need = needBytes
		m.contrib[key] = st
	}
	if st.need != needBytes {
		panic(fmt.Sprintf("machine: inconsistent contribution need at addr %#x gpu %d: %d vs %d",
			base, g, st.need, needBytes))
	}
	st.got += bytes
	if st.got < st.need {
		return
	}
	delete(m.contrib, key)
	st.reset()
	m.contribs.Put(st)
	m.publishFor(g, pub)
}

// publishFor publishes the access's tile as seen by receiver GPU g.
func (m *Machine) publishFor(g int, pub kernel.Publish) {
	if pub.Set() {
		m.publishOne(pub.At(g))
	}
}
