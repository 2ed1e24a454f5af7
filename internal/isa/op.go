package isa

// Group classifies an opcode per the paper's taxonomy (§2): the five new
// vector groups plus the pre-existing scalar Alpha classes we model.
type Group uint8

const (
	// GScalar covers the Alpha scalar subset (integer, FP, memory, branch).
	GScalar Group = iota
	// GVV is vector-vector operate.
	GVV
	// GVS is vector-scalar operate (one source comes from the EV8 scalar
	// register file over the two 64-bit operand buses).
	GVS
	// GSM is strided memory access (uses the vs control register).
	GSM
	// GRM is random memory access (gather/scatter; addresses from a vector
	// register, routed through the CR box).
	GRM
	// GVC is vector control (setvl, setvs, setvm, element moves).
	GVC
)

func (g Group) String() string {
	switch g {
	case GScalar:
		return "scalar"
	case GVV:
		return "VV"
	case GVS:
		return "VS"
	case GSM:
		return "SM"
	case GRM:
		return "RM"
	case GVC:
		return "VC"
	}
	return "group?"
}

// FU is the functional-unit class an operation executes on. The Vbox has two
// issue ports (north/south); each port fronts 16 lanes, each lane with one
// FU per port. The scalar core has its own pools sized per Table 3.
type FU uint8

const (
	FUNone FU = iota
	FUIntALU
	FUIntMul
	FUFPAdd
	FUFPMul
	FUFPDiv
	FULoad
	FUStore
	FUBranch
	FUVCtl
)

func (f FU) String() string {
	switch f {
	case FUNone:
		return "none"
	case FUIntALU:
		return "ialu"
	case FUIntMul:
		return "imul"
	case FUFPAdd:
		return "fadd"
	case FUFPMul:
		return "fmul"
	case FUFPDiv:
		return "fdiv"
	case FULoad:
		return "load"
	case FUStore:
		return "store"
	case FUBranch:
		return "br"
	case FUVCtl:
		return "vctl"
	}
	return "fu?"
}

// Op is an opcode.
type Op uint16

// Scalar Alpha subset.
const (
	OpInvalid Op = iota

	// Scalar integer operate.
	OpLDA // rd = rb + imm (address arithmetic / load immediate)
	OpADDQ
	OpSUBQ
	OpMULQ
	OpS8ADDQ // rd = ra*8 + rb (Alpha scaled add, heavily used for indexing)
	OpAND
	OpBIS // logical OR (Alpha mnemonic)
	OpXOR
	OpSLL
	OpSRL
	OpSRA
	OpCMPEQ
	OpCMPLT
	OpCMPLE
	OpCMPULT

	// Scalar floating operate (T = IEEE double, following Alpha naming).
	OpADDT
	OpSUBT
	OpMULT
	OpDIVT
	OpSQRTT
	OpCMPTEQ
	OpCMPTLT
	OpCMPTLE
	OpCVTQT // integer -> double
	OpCVTTQ // double -> integer (truncating)

	// Scalar memory.
	OpLDQ
	OpSTQ
	OpLDT
	OpSTT
	OpWH64  // write-hint 64: zero-allocate a cache line without reading it
	OpPREFQ // software prefetch (LDQ to r31 in real Alpha)

	// Control.
	OpBR
	OpBEQ
	OpBNE
	OpBLT
	OpBLE
	OpBGT
	OpBGE
	OpHALT // simulator end-of-program marker

	// DrainM: the new memory barrier of §3.4 — purges the write buffer,
	// updates L2 P-bits, then replay-traps younger instructions.
	OpDRAINM

	// Vector-vector operate (VV).
	OpVADDQ
	OpVSUBQ
	OpVMULQ
	OpVAND
	OpVBIS
	OpVXOR
	OpVSLL
	OpVSRL
	OpVSRA
	OpVCMPEQ
	OpVCMPNE
	OpVCMPLT
	OpVCMPLE
	OpVADDT
	OpVSUBT
	OpVMULT
	OpVDIVT
	OpVSQRTT
	OpVCMPTEQ
	OpVCMPTLT
	OpVCMPTLE
	OpVMAXT
	OpVMINT
	OpVCVTQT
	OpVCVTTQ
	OpVMERG // vd[i] = vm[i] ? va[i] : vb[i]
	// VFMAT is the §5 extension study: "adding floating point
	// multiply-accumulate units (FMAC) to Tarantula, this rate could be
	// doubled with very little extra complexity and power". The destination
	// doubles as the accumulator so no third read port is needed:
	// vd[i] += va[i]·vb[i].
	OpVFMAT

	// Vector-scalar operate (VS). The scalar operand rides the operand
	// buses from the EV8 register file.
	OpVSADDQ
	OpVSSUBQ
	OpVSMULQ
	OpVSAND
	OpVSBIS
	OpVSXOR
	OpVSSLL
	OpVSSRL
	OpVSCMPEQ
	OpVSCMPLT
	OpVSADDT
	OpVSSUBT
	OpVSMULT
	OpVSDIVT
	OpVSCMPTEQ
	OpVSCMPTLT
	OpVSCMPTLE
	// VSFMAT: vd[i] += va[i]·s (the FMAC extension's vector-scalar form).
	OpVSFMAT

	// Strided memory (SM). Effective address of element i is
	// rb + imm + i*vs (vs in bytes). vd/va = data register.
	OpVLDQ
	OpVSTQ

	// Random memory (RM). Element i accesses rb + va[i].
	OpVGATHQ
	OpVSCATQ

	// Vector control (VC).
	OpSETVL // vl = ra (clamped to 128)
	OpSETVS // vs = ra
	OpSETVM // vm = low bit of each element of va
	OpVEXTR // rd = va[rb] — vector element to scalar (20-cycle round trip)
	OpVINS  // vd[rb] = ra — scalar to vector element
	OpVCLRM // vm = all ones (clear masking)

	opMax
)

// Info is static metadata about an opcode.
type Info struct {
	Name  string
	Group Group
	FU    FU

	// Latency is the execute latency in cycles once operands are available
	// (scalar pipe; the Vbox applies its own lane pipeline on top).
	Latency int

	// FlopsPer is the floating-point operations each active element
	// performs (2 for fused multiply-accumulate); zero means one.
	FlopsPer int

	// Flags.
	IsLoad      bool
	IsStore     bool
	IsFlop      bool // counts toward FPC in Figure 6
	IsBranch    bool
	WritesMask  bool // SETVM
	Unpipelined bool // divides/sqrt block their FU for Latency cycles
}

var infos = [opMax]Info{
	OpLDA:    {Name: "lda", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpADDQ:   {Name: "addq", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpSUBQ:   {Name: "subq", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpMULQ:   {Name: "mulq", Group: GScalar, FU: FUIntMul, Latency: 7},
	OpS8ADDQ: {Name: "s8addq", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpAND:    {Name: "and", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpBIS:    {Name: "bis", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpXOR:    {Name: "xor", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpSLL:    {Name: "sll", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpSRL:    {Name: "srl", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpSRA:    {Name: "sra", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpCMPEQ:  {Name: "cmpeq", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpCMPLT:  {Name: "cmplt", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpCMPLE:  {Name: "cmple", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpCMPULT: {Name: "cmpult", Group: GScalar, FU: FUIntALU, Latency: 1},

	OpADDT:   {Name: "addt", Group: GScalar, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpSUBT:   {Name: "subt", Group: GScalar, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpMULT:   {Name: "mult", Group: GScalar, FU: FUFPMul, Latency: 4, IsFlop: true},
	OpDIVT:   {Name: "divt", Group: GScalar, FU: FUFPDiv, Latency: 16, IsFlop: true, Unpipelined: true},
	OpSQRTT:  {Name: "sqrtt", Group: GScalar, FU: FUFPDiv, Latency: 24, IsFlop: true, Unpipelined: true},
	OpCMPTEQ: {Name: "cmpteq", Group: GScalar, FU: FUFPAdd, Latency: 4},
	OpCMPTLT: {Name: "cmptlt", Group: GScalar, FU: FUFPAdd, Latency: 4},
	OpCMPTLE: {Name: "cmptle", Group: GScalar, FU: FUFPAdd, Latency: 4},
	OpCVTQT:  {Name: "cvtqt", Group: GScalar, FU: FUFPAdd, Latency: 4},
	OpCVTTQ:  {Name: "cvttq", Group: GScalar, FU: FUFPAdd, Latency: 4},

	OpLDQ:   {Name: "ldq", Group: GScalar, FU: FULoad, Latency: 1, IsLoad: true},
	OpSTQ:   {Name: "stq", Group: GScalar, FU: FUStore, Latency: 1, IsStore: true},
	OpLDT:   {Name: "ldt", Group: GScalar, FU: FULoad, Latency: 1, IsLoad: true},
	OpSTT:   {Name: "stt", Group: GScalar, FU: FUStore, Latency: 1, IsStore: true},
	OpWH64:  {Name: "wh64", Group: GScalar, FU: FUStore, Latency: 1, IsStore: true},
	OpPREFQ: {Name: "prefq", Group: GScalar, FU: FULoad, Latency: 1, IsLoad: true},

	OpBR:  {Name: "br", Group: GScalar, FU: FUBranch, Latency: 1, IsBranch: true},
	OpBEQ: {Name: "beq", Group: GScalar, FU: FUBranch, Latency: 1, IsBranch: true},
	OpBNE: {Name: "bne", Group: GScalar, FU: FUBranch, Latency: 1, IsBranch: true},
	OpBLT: {Name: "blt", Group: GScalar, FU: FUBranch, Latency: 1, IsBranch: true},
	OpBLE: {Name: "ble", Group: GScalar, FU: FUBranch, Latency: 1, IsBranch: true},
	OpBGT: {Name: "bgt", Group: GScalar, FU: FUBranch, Latency: 1, IsBranch: true},
	OpBGE: {Name: "bge", Group: GScalar, FU: FUBranch, Latency: 1, IsBranch: true},

	OpHALT:   {Name: "halt", Group: GScalar, FU: FUIntALU, Latency: 1},
	OpDRAINM: {Name: "drainm", Group: GScalar, FU: FUStore, Latency: 1},

	OpVADDQ:   {Name: "vaddq", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVSUBQ:   {Name: "vsubq", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVMULQ:   {Name: "vmulq", Group: GVV, FU: FUIntMul, Latency: 7},
	OpVAND:    {Name: "vand", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVBIS:    {Name: "vbis", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVXOR:    {Name: "vxor", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVSLL:    {Name: "vsll", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVSRL:    {Name: "vsrl", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVSRA:    {Name: "vsra", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVCMPEQ:  {Name: "vcmpeq", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVCMPNE:  {Name: "vcmpne", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVCMPLT:  {Name: "vcmplt", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVCMPLE:  {Name: "vcmple", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVADDT:   {Name: "vaddt", Group: GVV, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpVSUBT:   {Name: "vsubt", Group: GVV, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpVMULT:   {Name: "vmult", Group: GVV, FU: FUFPMul, Latency: 4, IsFlop: true},
	OpVDIVT:   {Name: "vdivt", Group: GVV, FU: FUFPDiv, Latency: 16, IsFlop: true, Unpipelined: true},
	OpVSQRTT:  {Name: "vsqrtt", Group: GVV, FU: FUFPDiv, Latency: 24, IsFlop: true, Unpipelined: true},
	OpVCMPTEQ: {Name: "vcmpteq", Group: GVV, FU: FUFPAdd, Latency: 4},
	OpVCMPTLT: {Name: "vcmptlt", Group: GVV, FU: FUFPAdd, Latency: 4},
	OpVCMPTLE: {Name: "vcmptle", Group: GVV, FU: FUFPAdd, Latency: 4},
	OpVMAXT:   {Name: "vmaxt", Group: GVV, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpVMINT:   {Name: "vmint", Group: GVV, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpVCVTQT:  {Name: "vcvtqt", Group: GVV, FU: FUFPAdd, Latency: 4},
	OpVCVTTQ:  {Name: "vcvttq", Group: GVV, FU: FUFPAdd, Latency: 4},
	OpVMERG:   {Name: "vmerg", Group: GVV, FU: FUIntALU, Latency: 1},
	OpVFMAT:   {Name: "vfmat", Group: GVV, FU: FUFPMul, Latency: 5, IsFlop: true, FlopsPer: 2},

	OpVSADDQ:   {Name: "vsaddq", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSSUBQ:   {Name: "vssubq", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSMULQ:   {Name: "vsmulq", Group: GVS, FU: FUIntMul, Latency: 7},
	OpVSAND:    {Name: "vsand", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSBIS:    {Name: "vsbis", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSXOR:    {Name: "vsxor", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSSLL:    {Name: "vssll", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSSRL:    {Name: "vssrl", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSCMPEQ:  {Name: "vscmpeq", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSCMPLT:  {Name: "vscmplt", Group: GVS, FU: FUIntALU, Latency: 1},
	OpVSADDT:   {Name: "vsaddt", Group: GVS, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpVSSUBT:   {Name: "vssubt", Group: GVS, FU: FUFPAdd, Latency: 4, IsFlop: true},
	OpVSMULT:   {Name: "vsmult", Group: GVS, FU: FUFPMul, Latency: 4, IsFlop: true},
	OpVSDIVT:   {Name: "vsdivt", Group: GVS, FU: FUFPDiv, Latency: 16, IsFlop: true, Unpipelined: true},
	OpVSCMPTEQ: {Name: "vscmpteq", Group: GVS, FU: FUFPAdd, Latency: 4},
	OpVSCMPTLT: {Name: "vscmptlt", Group: GVS, FU: FUFPAdd, Latency: 4},
	OpVSCMPTLE: {Name: "vscmptle", Group: GVS, FU: FUFPAdd, Latency: 4},
	OpVSFMAT:   {Name: "vsfmat", Group: GVS, FU: FUFPMul, Latency: 5, IsFlop: true, FlopsPer: 2},

	OpVLDQ:   {Name: "vldq", Group: GSM, FU: FULoad, Latency: 1, IsLoad: true},
	OpVSTQ:   {Name: "vstq", Group: GSM, FU: FUStore, Latency: 1, IsStore: true},
	OpVGATHQ: {Name: "vgathq", Group: GRM, FU: FULoad, Latency: 1, IsLoad: true},
	OpVSCATQ: {Name: "vscatq", Group: GRM, FU: FUStore, Latency: 1, IsStore: true},

	OpSETVL: {Name: "setvl", Group: GVC, FU: FUVCtl, Latency: 1},
	OpSETVS: {Name: "setvs", Group: GVC, FU: FUVCtl, Latency: 1},
	OpSETVM: {Name: "setvm", Group: GVC, FU: FUVCtl, Latency: 1, WritesMask: true},
	OpVEXTR: {Name: "vextr", Group: GVC, FU: FUVCtl, Latency: 20}, // Vbox->EV8 round trip (§2)
	OpVINS:  {Name: "vins", Group: GVC, FU: FUVCtl, Latency: 10},
	OpVCLRM: {Name: "vclrm", Group: GVC, FU: FUVCtl, Latency: 1, WritesMask: true},
}

// Flops returns the per-element flop count of op.
func (in *Info) Flops() uint64 {
	if in.FlopsPer == 0 {
		if in.IsFlop {
			return 1
		}
		return 0
	}
	return uint64(in.FlopsPer)
}

// invalidInfo describes every opcode outside the table and every unnamed
// slot inside it (OpInvalid included).
var invalidInfo = Info{Name: "invalid", Group: GScalar, FU: FUNone, Latency: 1}

// The unnamed slots of infos are filled with invalidInfo once, so Lookup is
// a bounds check and an index.
func init() {
	for op := range infos {
		if infos[op].Name == "" {
			infos[op] = invalidInfo
		}
	}
}

// Lookup returns the metadata for op. The result is shared: callers must not
// modify it.
func Lookup(op Op) *Info {
	if int(op) < len(infos) {
		return &infos[op]
	}
	return &invalidInfo
}

// IsVector reports whether op is one of the new Tarantula instructions
// (executed by the Vbox rather than the EV8 core).
func (op Op) IsVector() bool {
	g := Lookup(op).Group
	return g != GScalar
}

// NumVectorOps returns the count of distinct new vector opcodes, checked by a
// test against the paper's "45 new instructions (not counting data-type
// variations)".
func NumVectorOps() int {
	n := 0
	for op := Op(1); op < opMax; op++ {
		if op.IsVector() {
			n++
		}
	}
	return n
}

func (op Op) String() string { return Lookup(op).Name }
