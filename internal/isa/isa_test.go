package isa

import "testing"

func TestVectorOpCount(t *testing.T) {
	// §2: "45 new instructions (not counting data-type variations) are
	// added". Our encoding enumerates datatype variants (Q and T forms)
	// separately, so we must have at least 45 vector opcodes.
	if n := NumVectorOps(); n < 45 {
		t.Fatalf("only %d vector opcodes defined, paper specifies 45", n)
	}
}

func TestEveryOpHasMetadata(t *testing.T) {
	for op := Op(1); op < opMax; op++ {
		in := Lookup(op)
		if in.Name == "" || in.Name == "invalid" {
			t.Errorf("op %d has no metadata", op)
		}
		if in.Latency <= 0 {
			t.Errorf("op %s has non-positive latency", in.Name)
		}
		if in.FU == FUNone {
			t.Errorf("op %s has no functional unit", in.Name)
		}
	}
}

func TestGroupAssignments(t *testing.T) {
	cases := []struct {
		op Op
		g  Group
	}{
		{OpVADDT, GVV},
		{OpVSADDT, GVS},
		{OpVLDQ, GSM},
		{OpVGATHQ, GRM},
		{OpSETVM, GVC},
		{OpADDQ, GScalar},
	}
	for _, c := range cases {
		if got := Lookup(c.op).Group; got != c.g {
			t.Errorf("%s group = %s, want %s", c.op, got, c.g)
		}
	}
}

func TestRegFlat(t *testing.T) {
	seen := make(map[int]Reg)
	regs := []Reg{}
	for i := 0; i < 32; i++ {
		regs = append(regs, R(i), F(i), V(i))
	}
	regs = append(regs, VL, VS, VM)
	for _, r := range regs {
		f := r.Flat()
		if f < 0 || f >= NumFlatRegs {
			t.Fatalf("%s flat id %d out of range", r, f)
		}
		if prev, dup := seen[f]; dup {
			t.Fatalf("flat id collision: %s and %s", prev, r)
		}
		seen[f] = r
	}
}

func TestZeroRegisters(t *testing.T) {
	for _, r := range []Reg{RZero, FZero, VZero} {
		if !r.IsZero() {
			t.Errorf("%s should be hardwired zero", r)
		}
	}
	if R(0).IsZero() || V(30).IsZero() {
		t.Error("non-31 registers must not be zero registers")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpVADDT, Dst: V(2), Src1: V(0), Src2: V(1)}, "vaddt v2, v0, v1"},
		{Inst{Op: OpVADDT, Dst: V(2), Src1: V(0), Src2: V(1), Masked: true}, "vaddt.m v2, v0, v1"},
		{Inst{Op: OpVLDQ, Dst: V(3), Src2: R(4), Imm: 16}, "vldq v3, 16(r4)"},
		{Inst{Op: OpVGATHQ, Dst: V(3), Src2: R(4), Idx: V(9)}, "vgathq v3, 0(r4), [v9]"},
		{Inst{Op: OpBNE, Src1: R(1), Imm: 12}, "bne r1, @12"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestPrefetchDetection(t *testing.T) {
	pref := Inst{Op: OpVLDQ, Dst: VZero, Src2: R(1)}
	if !pref.IsPrefetch() {
		t.Error("vldq to v31 must be a prefetch")
	}
	load := Inst{Op: OpVLDQ, Dst: V(0), Src2: R(1)}
	if load.IsPrefetch() {
		t.Error("vldq to v0 must not be a prefetch")
	}
	if !(&Inst{Op: OpPREFQ, Dst: RZero, Src2: R(1)}).IsPrefetch() {
		t.Error("prefq must be a prefetch")
	}
}

func TestIsVMem(t *testing.T) {
	if !(&Inst{Op: OpVSCATQ}).IsVMem() {
		t.Error("vscatq is vector memory")
	}
	if (&Inst{Op: OpSETVL}).IsVMem() {
		t.Error("setvl is not vector memory")
	}
	if (&Inst{Op: OpLDQ}).IsVMem() {
		t.Error("ldq is not vector memory")
	}
}

func TestUnpipelinedOps(t *testing.T) {
	for _, op := range []Op{OpVDIVT, OpVSQRTT, OpDIVT, OpSQRTT, OpVSDIVT} {
		if !Lookup(op).Unpipelined {
			t.Errorf("%s should be unpipelined", op)
		}
	}
	if Lookup(OpVADDT).Unpipelined {
		t.Error("vaddt should be pipelined")
	}
}

// TestLookupInvalidIsSharedAndAllocFree: an opcode past the table and the
// unnamed OpInvalid slot both describe as "invalid", and looking them up
// allocates nothing.
func TestLookupInvalidIsSharedAndAllocFree(t *testing.T) {
	for _, op := range []Op{OpInvalid, opMax, opMax + 7, ^Op(0)} {
		in := Lookup(op)
		if in.Name != "invalid" || in.Group != GScalar || in.FU != FUNone || in.Latency != 1 {
			t.Errorf("Lookup(%d) = %+v, want the invalid descriptor", op, *in)
		}
		if op.String() != "invalid" {
			t.Errorf("Op(%d).String() = %q, want \"invalid\"", op, op.String())
		}
	}
	var sink *Info
	allocs := testing.AllocsPerRun(100, func() {
		sink = Lookup(opMax + 3)
		sink = Lookup(OpInvalid)
		sink = Lookup(OpVADDT)
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocated %v times per run, want 0", allocs)
	}
	_ = sink
}
