// Checkpointed kernel boot: the expensive parts of bringing a kernel up
// — assembling the mitigation-dependent entry/exit stubs and populating
// per-process page tables — are pure functions of the mitigation set
// and the process layout. Both are built once per distinct key, frozen,
// and forked by every later kernel with the same configuration (the
// engine constructs one or more kernels per simulation cell, and a
// sweep boots thousands). Everything captured here is host-side
// construction: no simulated instruction runs and no fault-injection
// draw happens while a checkpoint is built or consumed, so a kernel
// restored from a checkpoint is byte-identical to a cold boot with any
// injector state.
package kernel

import (
	"fmt"

	"spectrebench/internal/checkpoint"
	"spectrebench/internal/isa"
	"spectrebench/internal/mem"
)

// stubImage is the frozen product of buildStubs for one mitigation set:
// the assembled (and thunk-patched) kernel text plus its entry points.
// The program is immutable after patching, so sharing one *isa.Program
// across kernels — including concurrently under -jobs N — is safe.
type stubImage struct {
	stubs                             *isa.Program
	entryPC, exitPC, kcallPC, kfuncPC uint64
}

// mitKey fingerprints a mitigation set for checkpoint keys. It reuses
// the hand-rolled CanonicalKey builder — injective over every
// Mitigations field (see TestCanonicalKeyInjective) — instead of the
// reflective %+v formatter, which showed up in boot-heavy sweep
// profiles on every checkpoint lookup.
func mitKey(mit Mitigations) string { return mit.CanonicalKey() }

// loadStubs installs the entry/exit stub program and entry points,
// reusing the frozen image when a kernel with the same mitigation set
// has booted before and assembling from scratch otherwise.
func (k *Kernel) loadStubs() {
	v, ok := checkpoint.Get(k.C.Scope(), "kernel/stubs|"+mitKey(k.Mit), func() any {
		// Build on a scratch kernel: buildStubs reads only k.Mit and
		// layout constants, so the builder needs no core.
		b := &Kernel{Mit: k.Mit}
		b.buildStubs()
		return &stubImage{
			stubs:   b.stubs,
			entryPC: b.entryPC, exitPC: b.exitPC,
			kcallPC: b.kcallPC, kfuncPC: b.kfuncPC,
		}
	})
	if !ok {
		k.buildStubs()
		return
	}
	img := v.(*stubImage)
	k.stubs = img.stubs
	k.entryPC, k.exitPC = img.entryPC, img.exitPC
	k.kcallPC, k.kfuncPC = img.kcallPC, img.kfuncPC
}

// procImage holds frozen page-table templates for one process shape:
// the full kernel table and, under PTI, the user table.
type procImage struct {
	kpt, upt *mem.PTImage
}

// procTableImage returns the frozen KPT/UPT templates for a process
// with this pid, code size, and extra-region list, building them on
// first use. The tables NewProcess constructs are a pure function of
// (PTI, codePages, pid, regions): every mapping is derived from layout
// constants, the pid-keyed physical window, and the region list, so the
// same key always freezes the same entries.
func (k *Kernel) procTableImage(pid, codePages int, extra []Region) (*procImage, bool) {
	key := fmt.Sprintf("kernel/proctab|pti=%t|code=%d|pid=%d|regions=%+v",
		k.Mit.PTI, codePages, pid, extra)
	v, ok := checkpoint.Get(k.C.Scope(), key, func() any {
		reg := mem.NewRegistry()
		kpt := reg.NewTable(0)
		var upt *mem.PageTable
		if k.Mit.PTI {
			upt = reg.NewTable(0)
		}
		k.populateProcTables(kpt, upt, uint64(pid)<<32, codePages, extra)
		img := &procImage{kpt: kpt.Freeze()}
		if upt != nil {
			img.upt = upt.Freeze()
		}
		return img
	})
	if !ok {
		return nil, false
	}
	return v.(*procImage), true
}
