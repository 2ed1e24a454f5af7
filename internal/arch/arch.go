// Package arch implements the architectural (functional) Tarantula machine:
// the scalar Alpha subset plus the full vector extension semantics of §2.
// The timing models never compute values; they consume the dynamic effects
// (addresses, branch outcomes, active element counts) this package records,
// which is the ASIM-style functional-first, timing-directed split.
package arch

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Machine is the architectural state of one hardware thread.
type Machine struct {
	Mem *mem.Memory

	R  [32]uint64            // scalar integer file (r31 reads zero)
	F  [32]uint64            // scalar float file, IEEE bits (f31 reads zero)
	V  [32][isa.VLMax]uint64 // vector file (v31 reads zero)
	VL uint64                // vector length, 1..128 (8-bit register)
	VS int64                 // vector stride in bytes (64-bit register)
	VM [isa.VLMax]bool       // vector mask

	// Bump arenas behind Effect.Addrs / Effect.ElemIdx. Timing models keep
	// those slice headers inside in-flight uops, so carved-out regions are
	// never rewritten — a full arena is abandoned to the collector and a
	// fresh chunk started. This amortises what used to be one (or two)
	// slice allocations on every memory instruction in the trace hot path.
	addrArena []uint64
	idxArena  []uint8
}

// New returns a machine with vl=128, vs=8 (unit stride over quadwords) and
// an all-ones mask, bound to m.
func New(m *mem.Memory) *Machine {
	mc := &Machine{Mem: m, VL: isa.VLMax, VS: 8}
	for i := range mc.VM {
		mc.VM[i] = true
	}
	return mc
}

// Effect records the dynamic outcome of one instruction: everything the
// timing model needs that is not static.
type Effect struct {
	// Taken is the branch outcome for branches.
	Taken bool
	// Addrs holds the element addresses touched by a memory instruction
	// (one entry for scalar memory ops). Inactive (masked-off or beyond-vl)
	// elements are absent.
	Addrs []uint64
	// VL is the vector length in force when a vector instruction executed.
	VL int
	// Stride is the vs value in force for SM instructions, in bytes.
	Stride int64
	// Base is the effective base address (rb + imm) of a vector memory
	// instruction; with Stride it reconstructs the full address pattern
	// even when masking leaves holes in Addrs.
	Base uint64
	// ElemIdx holds, parallel to Addrs, the vector element index of each
	// active address — the Vbox needs it to assign lanes.
	ElemIdx []uint8
	// Active is the number of elements that actually executed (vl minus
	// masked-off elements).
	Active int
}

// arenaChunk is the arena granularity in elements; the retained window is
// bounded by the uops in flight plus the trace's channel buffer, so at most
// a handful of chunks are live at once.
const arenaChunk = 4096

// newAddrs reserves room for n addresses and returns it as an empty slice to
// append into. The region is exclusively the caller's: the arena only ever
// advances past it.
func (m *Machine) newAddrs(n int) []uint64 {
	if len(m.addrArena)+n > cap(m.addrArena) {
		c := arenaChunk
		if n > c {
			c = n
		}
		m.addrArena = make([]uint64, 0, c)
	}
	base := len(m.addrArena)
	m.addrArena = m.addrArena[:base+n]
	return m.addrArena[base : base : base+n]
}

// newIdxs is newAddrs for element indices.
func (m *Machine) newIdxs(n int) []uint8 {
	if len(m.idxArena)+n > cap(m.idxArena) {
		c := arenaChunk
		if n > c {
			c = n
		}
		m.idxArena = make([]uint8, 0, c)
	}
	base := len(m.idxArena)
	m.idxArena = m.idxArena[:base+n]
	return m.idxArena[base : base : base+n]
}

// addr1 wraps a scalar memory address in an arena-backed one-element slice.
func (m *Machine) addr1(ea uint64) []uint64 {
	return append(m.newAddrs(1), ea)
}

func (m *Machine) rr(r isa.Reg) uint64 {
	switch r.Kind {
	case isa.KindInt:
		if r.Idx == 31 {
			return 0
		}
		return m.R[r.Idx]
	case isa.KindFP:
		if r.Idx == 31 {
			return 0
		}
		return m.F[r.Idx]
	case isa.KindCtl:
		switch r.Idx {
		case isa.CtlVL:
			return m.VL
		case isa.CtlVS:
			return uint64(m.VS)
		}
	}
	panic(fmt.Sprintf("arch: scalar read of %s", r))
}

func (m *Machine) wr(r isa.Reg, v uint64) {
	switch r.Kind {
	case isa.KindInt:
		if r.Idx != 31 {
			m.R[r.Idx] = v
		}
		return
	case isa.KindFP:
		if r.Idx != 31 {
			m.F[r.Idx] = v
		}
		return
	}
	panic(fmt.Sprintf("arch: scalar write of %s", r))
}

func (m *Machine) vreg(r isa.Reg) *[isa.VLMax]uint64 {
	if r.Kind != isa.KindVec {
		panic(fmt.Sprintf("arch: vector access to %s", r))
	}
	return &m.V[r.Idx]
}

// vread returns element i of vector register r, honouring v31 = 0.
func (m *Machine) vread(r isa.Reg, i int) uint64 {
	if r.Idx == 31 {
		return 0
	}
	return m.vreg(r)[i]
}

// vwrite writes element i of vector register r unless r is v31.
func (m *Machine) vwrite(r isa.Reg, i int, v uint64) {
	if r.Idx == 31 {
		return
	}
	m.vreg(r)[i] = v
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits(f float64) uint64   { return math.Float64bits(f) }
func b2q(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Step executes one instruction and writes its dynamic effect into *e,
// overwriting every field, so a trace builder can step straight into the
// record it emits. Branch targets are not followed here; the caller (the
// vasm trace builder or the program Runner) owns control flow. If the
// instruction faults (Step panics), *e is left unchanged.
func (m *Machine) Step(in *isa.Inst, e *Effect) {
	info := in.Info()
	switch info.Group {
	case isa.GScalar:
		m.stepScalar(in, e)
	case isa.GVV:
		m.stepVV(in, e)
	case isa.GVS:
		m.stepVS(in, e)
	case isa.GSM:
		m.stepSM(in, info, e)
	case isa.GRM:
		m.stepRM(in, info, e)
	case isa.GVC:
		m.stepVC(in, e)
	default:
		panic("arch: unknown group")
	}
}

func (m *Machine) stepScalar(in *isa.Inst, e *Effect) {
	var a, b uint64
	if in.Src1.Valid() {
		a = m.rr(in.Src1)
	}
	if in.Src2.Valid() {
		b = m.rr(in.Src2)
	} else {
		b = uint64(in.Imm)
	}
	switch in.Op {
	case isa.OpLDA:
		// rd = rb + imm; with Src1 == RZero this is load-immediate.
		m.wr(in.Dst, a+uint64(in.Imm))
	case isa.OpADDQ:
		m.wr(in.Dst, a+b)
	case isa.OpSUBQ:
		m.wr(in.Dst, a-b)
	case isa.OpMULQ:
		m.wr(in.Dst, a*b)
	case isa.OpS8ADDQ:
		m.wr(in.Dst, a*8+b)
	case isa.OpAND:
		m.wr(in.Dst, a&b)
	case isa.OpBIS:
		m.wr(in.Dst, a|b)
	case isa.OpXOR:
		m.wr(in.Dst, a^b)
	case isa.OpSLL:
		m.wr(in.Dst, a<<(b&63))
	case isa.OpSRL:
		m.wr(in.Dst, a>>(b&63))
	case isa.OpSRA:
		m.wr(in.Dst, uint64(int64(a)>>(b&63)))
	case isa.OpCMPEQ:
		m.wr(in.Dst, b2q(a == b))
	case isa.OpCMPLT:
		m.wr(in.Dst, b2q(int64(a) < int64(b)))
	case isa.OpCMPLE:
		m.wr(in.Dst, b2q(int64(a) <= int64(b)))
	case isa.OpCMPULT:
		m.wr(in.Dst, b2q(a < b))

	case isa.OpADDT:
		m.wr(in.Dst, bits(f64(a)+f64(b)))
	case isa.OpSUBT:
		m.wr(in.Dst, bits(f64(a)-f64(b)))
	case isa.OpMULT:
		m.wr(in.Dst, bits(f64(a)*f64(b)))
	case isa.OpDIVT:
		m.wr(in.Dst, bits(f64(a)/f64(b)))
	case isa.OpSQRTT:
		m.wr(in.Dst, bits(math.Sqrt(f64(a))))
	case isa.OpCMPTEQ:
		m.wr(in.Dst, b2q(f64(a) == f64(b)))
	case isa.OpCMPTLT:
		m.wr(in.Dst, b2q(f64(a) < f64(b)))
	case isa.OpCMPTLE:
		m.wr(in.Dst, b2q(f64(a) <= f64(b)))
	case isa.OpCVTQT:
		m.wr(in.Dst, bits(float64(int64(a))))
	case isa.OpCVTTQ:
		m.wr(in.Dst, uint64(int64(f64(a))))

	case isa.OpLDQ, isa.OpLDT:
		ea := m.rr(in.Src2) + uint64(in.Imm)
		m.wr(in.Dst, m.Mem.LoadQ(ea))
		*e = Effect{Addrs: m.addr1(ea), Active: 1}
		return
	case isa.OpPREFQ:
		ea := m.rr(in.Src2) + uint64(in.Imm)
		*e = Effect{Addrs: m.addr1(ea), Active: 1}
		return
	case isa.OpSTQ, isa.OpSTT:
		ea := m.rr(in.Src2) + uint64(in.Imm)
		m.Mem.StoreQ(ea, m.rr(in.Src1))
		*e = Effect{Addrs: m.addr1(ea), Active: 1}
		return
	case isa.OpWH64:
		ea := (m.rr(in.Src2) + uint64(in.Imm)) &^ 63
		m.Mem.ZeroLine(ea)
		*e = Effect{Addrs: m.addr1(ea), Active: 1}
		return

	case isa.OpBR, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBLE, isa.OpBGT, isa.OpBGE:
		*e = Effect{Taken: branchTaken(in.Op, a)}
		return

	case isa.OpHALT, isa.OpDRAINM:
		// No architectural effect; DrainM ordering is a timing-model
		// matter (write-buffer purge + replay trap).
	default:
		panic(fmt.Sprintf("arch: unimplemented scalar op %s", in.Op))
	}
	*e = Effect{Active: 1}
}

// branchTaken resolves a conditional branch on its register operand a.
func branchTaken(op isa.Op, a uint64) bool {
	switch op {
	case isa.OpBEQ:
		return a == 0
	case isa.OpBNE:
		return a != 0
	case isa.OpBLT:
		return int64(a) < 0
	case isa.OpBLE:
		return int64(a) <= 0
	case isa.OpBGT:
		return int64(a) > 0
	case isa.OpBGE:
		return int64(a) >= 0
	}
	return true // OpBR
}

// active reports whether element i executes given vl and the mask mode.
func (m *Machine) active(in *isa.Inst, i int) bool {
	if uint64(i) >= m.VL {
		return false
	}
	return !in.Masked || m.VM[i]
}

func (m *Machine) stepVV(in *isa.Inst, e *Effect) {
	vl := int(m.VL)
	act := 0
	for i := 0; i < vl; i++ {
		if !m.active(in, i) {
			continue
		}
		act++
		a := m.vread(in.Src1, i)
		var r uint64
		switch {
		case in.Op == isa.OpVSQRTT || in.Op == isa.OpVCVTQT || in.Op == isa.OpVCVTTQ:
			r = vvUnary(in.Op, a)
		case in.Op == isa.OpVMERG:
			if m.VM[i] {
				r = a
			} else {
				r = m.vread(in.Src2, i)
			}
		case in.Op == isa.OpVFMAT:
			r = bits(f64(m.vread(in.Dst, i)) + f64(a)*f64(m.vread(in.Src2, i)))
		default:
			r = vvBinary(in.Op, a, m.vread(in.Src2, i))
		}
		m.vwrite(in.Dst, i, r)
	}
	// Elements at vl..127 are UNPREDICTABLE per the ISA (§2, Figure 1); we
	// leave them unchanged, which is one legal behaviour.
	*e = Effect{VL: vl, Active: act}
}

func vvUnary(op isa.Op, a uint64) uint64 {
	switch op {
	case isa.OpVSQRTT:
		return bits(math.Sqrt(f64(a)))
	case isa.OpVCVTQT:
		return bits(float64(int64(a)))
	case isa.OpVCVTTQ:
		return uint64(int64(f64(a)))
	}
	panic("arch: bad unary")
}

func vvBinary(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.OpVADDQ, isa.OpVSADDQ:
		return a + b
	case isa.OpVSUBQ, isa.OpVSSUBQ:
		return a - b
	case isa.OpVMULQ, isa.OpVSMULQ:
		return a * b
	case isa.OpVAND, isa.OpVSAND:
		return a & b
	case isa.OpVBIS, isa.OpVSBIS:
		return a | b
	case isa.OpVXOR, isa.OpVSXOR:
		return a ^ b
	case isa.OpVSLL, isa.OpVSSLL:
		return a << (b & 63)
	case isa.OpVSRL, isa.OpVSSRL:
		return a >> (b & 63)
	case isa.OpVSRA:
		return uint64(int64(a) >> (b & 63))
	case isa.OpVCMPEQ, isa.OpVSCMPEQ:
		return b2q(a == b)
	case isa.OpVCMPNE:
		return b2q(a != b)
	case isa.OpVCMPLT, isa.OpVSCMPLT:
		return b2q(int64(a) < int64(b))
	case isa.OpVCMPLE:
		return b2q(int64(a) <= int64(b))
	case isa.OpVADDT, isa.OpVSADDT:
		return bits(f64(a) + f64(b))
	case isa.OpVSUBT, isa.OpVSSUBT:
		return bits(f64(a) - f64(b))
	case isa.OpVMULT, isa.OpVSMULT:
		return bits(f64(a) * f64(b))
	case isa.OpVDIVT, isa.OpVSDIVT:
		return bits(f64(a) / f64(b))
	case isa.OpVCMPTEQ, isa.OpVSCMPTEQ:
		return b2q(f64(a) == f64(b))
	case isa.OpVCMPTLT, isa.OpVSCMPTLT:
		return b2q(f64(a) < f64(b))
	case isa.OpVCMPTLE, isa.OpVSCMPTLE:
		return b2q(f64(a) <= f64(b))
	case isa.OpVMAXT:
		return bits(math.Max(f64(a), f64(b)))
	case isa.OpVMINT:
		return bits(math.Min(f64(a), f64(b)))
	}
	panic(fmt.Sprintf("arch: bad binary %s", op))
}

func (m *Machine) stepVS(in *isa.Inst, e *Effect) {
	vl := int(m.VL)
	s := m.rr(in.Src2)
	act := 0
	for i := 0; i < vl; i++ {
		if !m.active(in, i) {
			continue
		}
		act++
		if in.Op == isa.OpVSFMAT {
			m.vwrite(in.Dst, i, bits(f64(m.vread(in.Dst, i))+f64(m.vread(in.Src1, i))*f64(s)))
		} else {
			m.vwrite(in.Dst, i, vvBinary(in.Op, m.vread(in.Src1, i), s))
		}
	}
	*e = Effect{VL: vl, Active: act}
}

func (m *Machine) stepSM(in *isa.Inst, info *isa.Info, e *Effect) {
	vl := int(m.VL)
	base := m.rr(in.Src2) + uint64(in.Imm)
	addrs := m.newAddrs(vl)
	idxs := m.newIdxs(vl)
	for i := 0; i < vl; i++ {
		if !m.active(in, i) {
			continue
		}
		ea := base + uint64(int64(i)*m.VS)
		addrs = append(addrs, ea)
		idxs = append(idxs, uint8(i))
		if info.IsLoad {
			if in.Dst.Idx != 31 { // prefetch: no architectural effect
				m.vwrite(in.Dst, i, m.Mem.LoadQ(ea))
			}
		} else {
			m.Mem.StoreQ(ea, m.vread(in.Src1, i))
		}
	}
	*e = Effect{VL: vl, Stride: m.VS, Base: base, Addrs: addrs, ElemIdx: idxs, Active: len(addrs)}
}

func (m *Machine) stepRM(in *isa.Inst, info *isa.Info, e *Effect) {
	vl := int(m.VL)
	base := m.rr(in.Src2) + uint64(in.Imm)
	addrs := m.newAddrs(vl)
	idxs := m.newIdxs(vl)
	for i := 0; i < vl; i++ {
		if !m.active(in, i) {
			continue
		}
		ea := base + m.vread(in.Idx, i)
		addrs = append(addrs, ea)
		idxs = append(idxs, uint8(i))
		if info.IsLoad {
			if in.Dst.Idx != 31 {
				m.vwrite(in.Dst, i, m.Mem.LoadQ(ea))
			}
		} else {
			m.Mem.StoreQ(ea, m.vread(in.Src1, i))
		}
	}
	*e = Effect{VL: vl, Base: base, Addrs: addrs, ElemIdx: idxs, Active: len(addrs)}
}

func (m *Machine) stepVC(in *isa.Inst, e *Effect) {
	switch in.Op {
	case isa.OpSETVL:
		v := m.rr(in.Src1)
		if v > isa.VLMax {
			v = isa.VLMax
		}
		if v == 0 {
			v = 0 // vl=0: subsequent vector ops are no-ops
		}
		m.VL = v
	case isa.OpSETVS:
		m.VS = int64(m.rr(in.Src1))
	case isa.OpSETVM:
		src := m.vreg(in.Src1)
		for i := range m.VM {
			m.VM[i] = src[i]&1 != 0
		}
	case isa.OpVCLRM:
		for i := range m.VM {
			m.VM[i] = true
		}
	case isa.OpVEXTR:
		idx := int(m.rr(in.Src2) & (isa.VLMax - 1))
		m.wr(in.Dst, m.vread(in.Src1, idx))
	case isa.OpVINS:
		idx := int(m.rr(in.Src2) & (isa.VLMax - 1))
		m.vwrite(in.Dst, idx, m.rr(in.Src1))
	default:
		panic(fmt.Sprintf("arch: unimplemented VC op %s", in.Op))
	}
	*e = Effect{VL: int(m.VL), Active: 1}
}

// ReadF returns scalar float register n as a float64.
func (m *Machine) ReadF(n int) float64 { return f64(m.F[n]) }

// WriteF sets scalar float register n from a float64.
func (m *Machine) WriteF(n int, v float64) { m.F[n] = bits(v) }

// ReadVF returns element i of vector register n as a float64.
func (m *Machine) ReadVF(n, i int) float64 { return f64(m.V[n][i]) }

// WriteVF sets element i of vector register n from a float64.
func (m *Machine) WriteVF(n, i int, v float64) { m.V[n][i] = bits(v) }
