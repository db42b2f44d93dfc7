//! Register liveness and pressure analysis.
//!
//! The CPE has 32 vector and 32 scalar registers; §VI-B notes that the
//! final kernel applies "register package (packing 4 long or 8 int into
//! vector structure) to innermost loop to reduce required register
//! number". This module computes, for a straight-line program, the set of
//! live registers at every point and the peak pressure per register file —
//! the check that a schedule is actually encodable.
//!
//! Liveness here is the standard backward dataflow on straight-line code:
//! a register is live at a point if some later instruction reads it before
//! any later instruction overwrites it. Registers read before any write in
//! the block are treated as live-in (e.g. base pointers); accumulators
//! written by `vfmadd dst==acc` count as read-then-write.

use crate::inst::{Inst, Reg};
use std::collections::HashSet;

/// Result of a liveness scan.
#[derive(Clone, Debug)]
struct PressureReport {
    /// Peak simultaneously-live vector registers.
    peak_vector: usize,
    /// Peak simultaneously-live scalar registers.
    peak_scalar: usize,
    /// Registers live on entry (consumed before produced).
    live_in: Vec<Reg>,
    /// Index of the instruction at which vector pressure peaks.
    peak_at: usize,
}

impl PressureReport {
    /// Does the program fit the CPE's register files?
    fn fits(&self, vector_regs: usize, scalar_regs: usize) -> bool {
        self.peak_vector <= vector_regs && self.peak_scalar <= scalar_regs
    }
}

/// Compute liveness and peak pressure for `prog`.
fn analyze(prog: &[Inst]) -> PressureReport {
    // Backward scan: live set after the last instruction is empty (values
    // dying at block end; callers wanting live-out semantics can append
    // artificial readers).
    let mut live: HashSet<Reg> = HashSet::new();
    let mut peak_vector = 0usize;
    let mut peak_scalar = 0usize;
    let mut peak_at = 0usize;
    // live_before[i] computed from live_after[i].
    for (i, inst) in prog.iter().enumerate().rev() {
        if let Some(w) = inst.writes() {
            live.remove(&w);
        }
        for r in inst.reads() {
            live.insert(r);
        }
        let v = live.iter().filter(|r| r.is_vector()).count();
        let s = live.len() - v;
        if v > peak_vector {
            peak_vector = v;
            peak_at = i;
        }
        peak_scalar = peak_scalar.max(s);
    }
    let mut live_in: Vec<Reg> = live.into_iter().collect();
    live_in.sort();
    PressureReport {
        peak_vector,
        peak_scalar,
        live_in,
        peak_at,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Op;
    use crate::kernels::{
        naive_gemm_kernel, regcomm_consumer_kernel, reordered_gemm_kernel, KernelSpec,
    };

    fn vload(dst: u8, base: u8) -> Inst {
        Inst::new(Op::Vload {
            dst: Reg::V(dst),
            base: Reg::R(base),
            disp: 0,
        })
    }
    fn fma(dst: u8, a: u8, b: u8) -> Inst {
        Inst::new(Op::Vfmadd {
            dst: Reg::V(dst),
            a: Reg::V(a),
            b: Reg::V(b),
            acc: Reg::V(dst),
        })
    }

    #[test]
    fn straight_line_pressure() {
        // Two loads live simultaneously, consumed by one fma.
        let prog = [vload(0, 0), vload(1, 0), fma(2, 0, 1)];
        let rep = analyze(&prog);
        // At the fma, v0, v1 and the accumulator v2 are live-before.
        assert_eq!(rep.peak_vector, 3);
        assert!(rep.live_in.contains(&Reg::R(0)), "base pointer is live-in");
        assert!(
            rep.live_in.contains(&Reg::V(2)),
            "accumulator is read before written"
        );
    }

    #[test]
    fn dead_values_do_not_count() {
        // v0 is overwritten before use: only one of the loads is live.
        let prog = [vload(0, 0), vload(0, 0), fma(1, 0, 0)];
        let rep = analyze(&prog);
        assert_eq!(rep.peak_vector, 2, "v0 + accumulator v1");
    }

    #[test]
    fn paper_kernels_fit_the_register_file() {
        // 16 accumulators + two ping-pong operand sets = 32 vector regs;
        // every generated kernel must be encodable.
        for n in [1usize, 2, 8, 48] {
            for prog in [
                naive_gemm_kernel(KernelSpec::new(n)),
                reordered_gemm_kernel(KernelSpec::new(n)),
                regcomm_consumer_kernel(KernelSpec::new(n)),
            ] {
                let rep = analyze(&prog);
                assert!(
                    rep.fits(32, 32),
                    "n={n}: peak {} vector regs at inst {}",
                    rep.peak_vector,
                    rep.peak_at
                );
            }
        }
    }

    #[test]
    fn reordered_kernel_uses_more_registers_than_naive() {
        // The §VI-B software pipeline pays register pressure (ping-pong
        // operand sets) for its 17-cycle steady state.
        let n = 8;
        let naive = analyze(&naive_gemm_kernel(KernelSpec::new(n)));
        let reord = analyze(&reordered_gemm_kernel(KernelSpec::new(n)));
        assert!(reord.peak_vector > naive.peak_vector);
        assert!(reord.peak_vector <= 32);
    }

    #[test]
    fn accumulators_are_live_across_the_whole_loop() {
        let rep = analyze(&reordered_gemm_kernel(KernelSpec::new(4)));
        // All 16 accumulators are live-in (read by the first FMAs before
        // any write in this unrolled trace).
        let acc_live_in = rep
            .live_in
            .iter()
            .filter(|r| matches!(r, Reg::V(v) if *v >= 16))
            .count();
        assert_eq!(acc_live_in, 16);
    }
}
