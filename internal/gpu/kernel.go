package gpu

import (
	"fmt"

	"awgsim/internal/event"
	"awgsim/internal/prog"
)

// KernelSpec describes a kernel launch: grid shape, per-WG resource
// demands (which determine the context size of Figure 5 and the occupancy
// limits of Section II.D) and the program body: a register-machine program
// (see internal/prog) that every WG of the launch executes, inline, on its
// own interpreter frame.
type KernelSpec struct {
	Name     string
	NumWGs   int // G in Table 2
	WIsPerWG int // n in Table 2

	VGPRsPerWI int // 32-bit vector registers per work-item
	SGPRsPerWF int // 32-bit scalar registers per wavefront
	LDSBytes   int // local data share per WG

	IR *prog.Program
}

// Wavefronts reports how many wavefronts the WG occupies given the
// machine's SIMD width.
func (k KernelSpec) Wavefronts(simdWidth int) int {
	return (k.WIsPerWG + simdWidth - 1) / simdWidth
}

// ContextBytes is the WG context that must move on a context switch:
// vector registers for every work-item, scalar registers for every
// wavefront, and the LDS allocation. This is the quantity Figure 5 plots
// (2–10 KB across the HeteroSync benchmarks).
func (k KernelSpec) ContextBytes(simdWidth int) int {
	return k.WIsPerWG*k.VGPRsPerWI*4 + k.Wavefronts(simdWidth)*k.SGPRsPerWF*4 + k.LDSBytes
}

func (k KernelSpec) validate() error {
	switch {
	case k.Name == "":
		return fmt.Errorf("gpu: kernel without a name")
	case k.NumWGs <= 0:
		return fmt.Errorf("gpu: kernel %s launches %d WGs", k.Name, k.NumWGs)
	case k.WIsPerWG <= 0:
		return fmt.Errorf("gpu: kernel %s has %d WIs per WG", k.Name, k.WIsPerWG)
	case k.IR == nil:
		return fmt.Errorf("gpu: kernel %s has no program", k.Name)
	}
	if err := k.IR.Validate(); err != nil {
		return fmt.Errorf("gpu: kernel %s: %w", k.Name, err)
	}
	return nil
}

// kernelRun tracks one kernel's execution on the machine. The primary
// kernel is created with the machine; further kernels (e.g. a
// high-priority job arriving mid-run) are injected with InjectKernel.
type kernelRun struct {
	spec      *KernelSpec
	priority  int
	wgs       []*WG
	completed int
	launched  event.Cycle
	doneAt    event.Cycle

	// frames and regs hold the WGs' interpreter frames and register files
	// (newIRFrame), nil until the kernel's first WG starts.
	frames []irFrame
	regs   []int64
}

// KernelHandle reports an injected kernel's progress.
type KernelHandle struct {
	kr *kernelRun
}

// Done reports whether every WG of the kernel completed.
func (h KernelHandle) Done() bool { return h.kr.completed == len(h.kr.wgs) }

// Latency reports launch-to-completion in cycles (0 while running).
func (h KernelHandle) Latency() uint64 {
	if !h.Done() {
		return 0
	}
	return uint64(h.kr.doneAt - h.kr.launched)
}
