package vasm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestCollectCheckedPositionalError: a kernel whose instruction faults
// functionally must come back as a *BuildError naming the exact dynamic
// instruction, not as a bare panic.
func TestCollectCheckedPositionalError(t *testing.T) {
	_, err := CollectChecked(arch.New(mem.New()), func(b *Builder) {
		b.Li(isa.R(1), 1234) // not 8-aligned
		b.LdT(isa.F(1), isa.R(1), 0)
		b.Halt()
	})
	var be *BuildError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BuildError", err, err)
	}
	if be.Seq != 2 {
		t.Errorf("Seq = %d, want 2 (the faulting ldt is the second instruction)", be.Seq)
	}
	if be.Inst.Op != isa.OpLDT {
		t.Errorf("Inst.Op = %v, want OpLDT", be.Inst.Op)
	}
	if !strings.Contains(be.Cause, "unaligned") {
		t.Errorf("Cause = %q, want the mem panic text", be.Cause)
	}
	if !strings.Contains(be.Error(), "seq 2") {
		t.Errorf("Error() = %q missing the position", be.Error())
	}
}

// TestCollectCheckedCleanKernel: a healthy kernel returns its trace and a
// nil error.
func TestCollectCheckedCleanKernel(t *testing.T) {
	out, err := CollectChecked(arch.New(mem.New()), func(b *Builder) {
		b.Li(isa.R(1), 8)
		b.Halt()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Errorf("%d instructions, want 2", len(out))
	}
}

// TestCollectStillPanics: the legacy surface treats a bad kernel as a
// programming error and panics with the positional BuildError.
func TestCollectStillPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Collect did not panic")
		}
		if _, ok := r.(*BuildError); !ok {
			t.Fatalf("Collect panicked with %T, want *BuildError", r)
		}
	}()
	Collect(arch.New(mem.New()), func(b *Builder) {
		b.Li(isa.R(1), 1234)
		b.LdQ(isa.R(2), isa.R(1), 0)
	})
}

// TestTraceErrSurfacesProducerDeath: the streaming path must convert a dead
// producer into Err() instead of hanging or crashing the consumer, and the
// channel must still close so Next terminates.
func TestTraceErrSurfacesProducerDeath(t *testing.T) {
	tr := NewTrace(arch.New(mem.New()), func(b *Builder) {
		b.Li(isa.R(1), 1234)
		b.LdT(isa.F(1), isa.R(1), 0)
		b.Halt()
	})
	n := 0
	for tr.Next() != nil {
		n++
	}
	var be *BuildError
	if !errors.As(tr.Err(), &be) {
		t.Fatalf("Err() = %v, want *BuildError", tr.Err())
	}
	// Batching may withhold the li, but the aborted halt must never arrive.
	if n > 1 {
		t.Errorf("consumed %d instructions from a kernel that faulted on its second", n)
	}
}

// TestTraceErrKernelGoPanic: a kernel that panics in plain Go (not through
// an instruction) is still reported as a BuildError, with the zero Seq
// marking it as non-positional.
func TestTraceErrKernelGoPanic(t *testing.T) {
	tr := NewTrace(arch.New(mem.New()), func(b *Builder) {
		panic("boom")
	})
	for tr.Next() != nil {
	}
	var be *BuildError
	if !errors.As(tr.Err(), &be) {
		t.Fatalf("Err() = %v, want *BuildError", tr.Err())
	}
	if be.Seq != 0 {
		t.Errorf("Seq = %d, want 0 for a non-positional kernel panic", be.Seq)
	}
	if !strings.Contains(be.Error(), "boom") {
		t.Errorf("Error() = %q missing the panic value", be.Error())
	}
}

// TestTraceCleanRunHasNoErr: the error surface stays nil on success.
func TestTraceCleanRunHasNoErr(t *testing.T) {
	tr := NewTrace(arch.New(mem.New()), func(b *Builder) {
		b.Li(isa.R(1), 8)
		b.Halt()
	})
	for tr.Next() != nil {
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("Err() = %v on a clean run", err)
	}
}

// TestCollectCheckedFaultLeavesNoRecord: the builder steps each instruction
// straight into its trace record, so a fault happens after the record was
// claimed. The k-th instruction faulting must still give the positional
// error of the k-th instruction, and the trace must hold exactly the k-1
// instructions before it.
func TestCollectCheckedFaultLeavesNoRecord(t *testing.T) {
	for _, k := range []int{1, 2, 5, 17} {
		var site uint32
		out, err := CollectChecked(arch.New(mem.New()), func(b *Builder) {
			for i := 1; i < k; i++ {
				b.Li(isa.R(2), int64(i))
			}
			site = b.nextSite + 1
			b.LdQ(isa.R(3), isa.RZero, 1234) // not 8-aligned
			b.Halt()
		})
		var be *BuildError
		if !errors.As(err, &be) {
			t.Fatalf("k=%d: err = %v (%T), want *BuildError", k, err, err)
		}
		if be.Seq != uint64(k) || be.Site != site || be.Inst.Op != isa.OpLDQ || be.Inst.Imm != 1234 {
			t.Errorf("k=%d: error at seq %d site %d [%s], want seq %d site %d ldq",
				k, be.Seq, be.Site, &be.Inst, k, site)
		}
		if len(out) != k-1 {
			t.Fatalf("k=%d: %d records, want %d (none for the faulting instruction)", k, len(out), k-1)
		}
		for i, d := range out {
			if d.Seq != uint64(i+1) || d.Inst.Op != isa.OpLDA {
				t.Errorf("k=%d: record %d is seq %d [%s], want seq %d lda", k, i, d.Seq, &d.Inst, i+1)
			}
		}
	}
}
