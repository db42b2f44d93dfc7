//! Generators for the swDNN GEMM inner kernel (Fig. 6).
//!
//! The inner kernel of both convolution plans is a register-blocked GEMM
//! update `C[4][4] += A[4] ⊗ B[4]` over 256-bit vectors, iterated `Ni/8`
//! times (§VI-B): per iteration it loads 4 vectors of image data (`A`,
//! `rb_B = 16` batch elements) and 4 replicated filter elements (`B`,
//! `rb_No = 4`), then performs 16 `vfmadd`s into 16 vector accumulators —
//! 64 output values live in registers across the whole loop.
//!
//! Two forms are generated:
//!
//! * [`naive_gemm_kernel`] — the compiler-like flow of Fig. 6 (left): all 8
//!   loads, then the 16 `vfmadd`s, then `cmp` + `bnw`. Simulated cost:
//!   **26 cycles per iteration** (8 serialized P1 loads, 16 serialized P0
//!   FMAs gated by load latency, the `cmp` pairs with the last FMA, the
//!   taken branch adds its bubble).
//! * [`reordered_gemm_kernel`] — the hand-scheduled flow of Fig. 6 (right):
//!   a 5-cycle initial section, software-pipelined iterations in which next
//!   iteration's loads pair with this iteration's FMAs (**17 cycles per
//!   iteration** — 16 FMA issue slots + 1 branch bubble), and a 16-cycle
//!   exit section. Register sets for `A`/`B` are double-buffered (ping-pong)
//!   across iterations, which is the "register package" trick the paper
//!   applies to avoid WAR conflicts.

use crate::inst::{Inst, Op, Reg};

/// Register allocation and shape of the inner GEMM kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelSpec {
    /// Number of reduction iterations (`Ni/8` in the paper).
    pub iterations: usize,
}

impl KernelSpec {
    pub fn new(iterations: usize) -> Self {
        assert!(iterations >= 1, "kernel needs at least one iteration");
        Self { iterations }
    }

    /// Flop-bearing instructions per full kernel (16 FMAs per iteration).
    fn fma_count(&self) -> u64 {
        16 * self.iterations as u64
    }

    /// Double-precision flops (each 4-lane FMA = 8 flops).
    pub fn flops(&self) -> u64 {
        8 * self.fma_count()
    }
}

// Register map:
//   A (image vectors):   set 0 -> v0..v3,  set 1 -> v8..v11
//   B (filter vectors):  set 0 -> v4..v7,  set 1 -> v12..v15
//   C (accumulators):    v16..v31
//   r0 = A base pointer, r1 = B base pointer, r2 = loop bound, r3 = predicate
fn a_reg(set: usize, i: usize) -> Reg {
    Reg::V((if set == 0 { 0 } else { 8 } + i) as u8)
}
fn b_reg(set: usize, j: usize) -> Reg {
    Reg::V((if set == 0 { 4 } else { 12 } + j) as u8)
}
fn c_reg(i: usize, j: usize) -> Reg {
    Reg::V((16 + 4 * j + i) as u8)
}

fn ld_a(set: usize, i: usize, iter: usize) -> Inst {
    Inst::staged(
        Op::Vload {
            dst: a_reg(set, i),
            base: Reg::R(0),
            disp: (iter * 128 + i * 32) as i32,
        },
        0,
    )
}
fn ld_b(set: usize, j: usize, iter: usize) -> Inst {
    Inst::staged(
        Op::Vldde {
            dst: b_reg(set, j),
            base: Reg::R(1),
            disp: (iter * 32 + j * 8) as i32,
        },
        0,
    )
}
fn fma(set: usize, i: usize, j: usize) -> Inst {
    Inst::staged(
        Op::Vfmadd {
            dst: c_reg(i, j),
            a: a_reg(set, i),
            b: b_reg(set, j),
            acc: c_reg(i, j),
        },
        1,
    )
}
fn cmp() -> Inst {
    Inst::staged(
        Op::Cmp {
            dst: Reg::R(3),
            a: Reg::R(0),
            b: Reg::R(2),
        },
        1,
    )
}
fn bnw(taken: bool) -> Inst {
    Inst::staged(
        Op::Branch {
            cond: Reg::R(3),
            taken,
        },
        1,
    )
}

/// The unoptimized (compiler-like) kernel: per iteration
/// `8 loads; 16 vfmadd; cmp; bnw` in program order, one register set.
///
/// FMAs are emitted row-major (`(i, 0..3)` for each `i`), the order a
/// straightforward unrolled C loop produces.
pub fn naive_gemm_kernel(spec: KernelSpec) -> Vec<Inst> {
    let n = spec.iterations;
    let mut prog = Vec::with_capacity(26 * n);
    for k in 0..n {
        for i in 0..4 {
            prog.push(ld_a(0, i, k));
        }
        for j in 0..4 {
            prog.push(ld_b(0, j, k));
        }
        for i in 0..4 {
            for j in 0..4 {
                prog.push(fma(0, i, j));
            }
        }
        prog.push(cmp());
        prog.push(bnw(k + 1 < n));
    }
    prog
}

/// The §VI-B software-pipelined kernel.
///
/// Structure (for `n >= 2` iterations):
///
/// * **initial section** (5 issue cycles): `ldde B0; vload A0..A3` for
///   register set 0;
/// * **iteration 0**: FMAs in column-major order interleaved with the
///   remaining set-0 filter loads (`B1..B3`) and all 8 set-1 loads for
///   iteration 1, then `cmp` + taken `bnw`;
/// * **iterations 1..n-1**: 16 FMAs on set `k%2` interleaved 1:1 with the 8
///   loads of set `(k+1)%2`, `cmp`, taken `bnw`;
/// * **exit section**: the last iteration is FMAs only (16 cycles).
pub fn reordered_gemm_kernel(spec: KernelSpec) -> Vec<Inst> {
    let n = spec.iterations;
    let mut prog = Vec::new();

    // Initial section: first filter element + the 4 image vectors of set 0.
    prog.push(ld_b(0, 0, 0));
    for i in 0..4 {
        prog.push(ld_a(0, i, 0));
    }

    if n == 1 {
        // Degenerate: no steady state; load B1..B3 then drain FMAs.
        for j in 1..4 {
            prog.push(ld_b(0, j, 0));
        }
        push_fmas_column_major(&mut prog, 0, &[]);
        return prog;
    }

    // Iteration 0: own B1..B3 plus all of iteration 1's loads ride on P1.
    {
        let mut p1_ops: Vec<Inst> = Vec::new();
        for j in 1..4 {
            p1_ops.push(ld_b(0, j, 0));
        }
        p1_ops.push(ld_b(1, 0, 1));
        for i in 0..4 {
            p1_ops.push(ld_a(1, i, 1));
        }
        for j in 1..4 {
            p1_ops.push(ld_b(1, j, 1));
        }
        p1_ops.push(cmp());
        push_fmas_column_major(&mut prog, 0, &p1_ops);
        prog.push(bnw(true));
    }

    // Steady-state iterations 1..n-1 (exclusive): compute on set k%2 while
    // loading set (k+1)%2.
    for k in 1..n - 1 {
        let cur = k % 2;
        let nxt = (k + 1) % 2;
        let mut p1_ops: Vec<Inst> = Vec::new();
        p1_ops.push(ld_b(nxt, 0, k + 1));
        for i in 0..4 {
            p1_ops.push(ld_a(nxt, i, k + 1));
        }
        for j in 1..4 {
            p1_ops.push(ld_b(nxt, j, k + 1));
        }
        p1_ops.push(cmp());
        push_fmas_column_major(&mut prog, cur, &p1_ops);
        prog.push(bnw(true));
    }

    // Exit section: the final iteration's FMAs with nothing to hide.
    push_fmas_column_major(&mut prog, (n - 1) % 2, &[]);
    prog
}

/// Emit the 16 FMAs of one iteration in column-major order (`(0..3, j)` for
/// each `j` — delays each `B_j`'s first use as long as possible), pairing
/// one P1 op after each FMA while any remain.
fn push_fmas_column_major(prog: &mut Vec<Inst>, set: usize, p1_ops: &[Inst]) {
    let mut p1 = p1_ops.iter().copied();
    for j in 0..4 {
        for i in 0..4 {
            prog.push(fma(set, i, j));
            if let Some(op) = p1.next() {
                prog.push(op);
            }
        }
    }
    // Any leftovers (cannot happen with <=16 P1 ops, but stay safe).
    prog.extend(p1);
}

/// The register-communication variant of the inner kernel (§V-A + Fig. 5):
/// instead of `vload`ing operands from LDM, the consumer CPE `getr`s the
/// broadcast filter vectors from its row transfer buffer and `getc`s the
/// image vectors from its column transfer buffer (both 4-cycle-latency P1
/// operations, like loads). Senders pay `vldr`/`vldc` (load + broadcast)
/// on their own P1.
///
/// The schedule shape is identical to [`reordered_gemm_kernel`]: 8 P1
/// receives hide under 16 P0 FMAs, so the steady state is the same
/// 17 cycles per iteration — the fact that lets the mesh simulator charge
/// rotation rounds with the ordinary tile-kernel cost, which
/// `regcomm_consumer_kernel_matches_dma_fed_timing` pins.
#[cfg(test)]
pub(crate) fn regcomm_consumer_kernel(spec: KernelSpec) -> Vec<Inst> {
    let n = spec.iterations;
    let get_a = |set: usize, i: usize| Inst::staged(Op::Getc { dst: a_reg(set, i) }, 0);
    let get_b = |set: usize, j: usize| Inst::staged(Op::Getr { dst: b_reg(set, j) }, 0);

    let mut prog = Vec::new();
    // Initial section, mirroring the DMA-fed kernel.
    prog.push(get_b(0, 0));
    for i in 0..4 {
        prog.push(get_a(0, i));
    }
    if n == 1 {
        for j in 1..4 {
            prog.push(get_b(0, j));
        }
        push_fmas_column_major(&mut prog, 0, &[]);
        return prog;
    }
    {
        let mut p1_ops: Vec<Inst> = Vec::new();
        for j in 1..4 {
            p1_ops.push(get_b(0, j));
        }
        p1_ops.push(get_b(1, 0));
        for i in 0..4 {
            p1_ops.push(get_a(1, i));
        }
        for j in 1..4 {
            p1_ops.push(get_b(1, j));
        }
        p1_ops.push(cmp());
        push_fmas_column_major(&mut prog, 0, &p1_ops);
        prog.push(bnw(true));
    }
    for k in 1..n - 1 {
        let cur = k % 2;
        let nxt = (k + 1) % 2;
        let mut p1_ops: Vec<Inst> = Vec::new();
        p1_ops.push(get_b(nxt, 0));
        for i in 0..4 {
            p1_ops.push(get_a(nxt, i));
        }
        for j in 1..4 {
            p1_ops.push(get_b(nxt, j));
        }
        p1_ops.push(cmp());
        push_fmas_column_major(&mut prog, cur, &p1_ops);
        prog.push(bnw(true));
    }
    push_fmas_column_major(&mut prog, (n - 1) % 2, &[]);
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DualPipe;

    #[test]
    fn naive_kernel_instruction_count_matches_paper() {
        // "8vload + 1cmp + 1bnw + 16vmad = 26" per iteration.
        let prog = naive_gemm_kernel(KernelSpec::new(3));
        assert_eq!(prog.len(), 26 * 3);
    }

    #[test]
    fn naive_kernel_is_26_cycles_per_iteration() {
        let pipe = DualPipe::default();
        // Steady-state periodicity: difference between n and n+1 iterations.
        let c8 = pipe.run(&naive_gemm_kernel(KernelSpec::new(8))).cycles;
        let c9 = pipe.run(&naive_gemm_kernel(KernelSpec::new(9))).cycles;
        assert_eq!(c9 - c8, 26, "steady-state naive period");
        // Absolute: last iteration's fall-through branch saves its bubble.
        assert_eq!(c8, 26 * 8 - 1);
    }

    #[test]
    fn reordered_kernel_is_17_cycles_per_iteration() {
        let pipe = DualPipe::default();
        let c8 = pipe.run(&reordered_gemm_kernel(KernelSpec::new(8))).cycles;
        let c9 = pipe.run(&reordered_gemm_kernel(KernelSpec::new(9))).cycles;
        assert_eq!(c9 - c8, 17, "steady-state reordered period");
        // Paper: 5 (init) + 17*(n-1) + 16 (exit) = 17n + 4.
        assert_eq!(c8, 17 * 8 + 4);
    }

    #[test]
    fn reordered_kernel_matches_formula_for_many_n() {
        let pipe = DualPipe::default();
        for n in 2..=48 {
            let rep = pipe.run(&reordered_gemm_kernel(KernelSpec::new(n)));
            assert_eq!(rep.cycles, 17 * n as u64 + 4, "n={n}");
            assert_eq!(rep.flops, KernelSpec::new(n).flops());
        }
    }

    #[test]
    fn both_kernels_do_identical_fma_work() {
        for n in [1, 2, 5, 16] {
            let spec = KernelSpec::new(n);
            let naive: Vec<_> = naive_gemm_kernel(spec)
                .into_iter()
                .filter(Inst::is_flop)
                .collect();
            let reord: Vec<_> = reordered_gemm_kernel(spec)
                .into_iter()
                .filter(Inst::is_flop)
                .collect();
            assert_eq!(naive.len(), reord.len(), "n={n}");
            assert_eq!(naive.len(), 16 * n);
        }
    }

    #[test]
    fn single_iteration_kernel_still_correct() {
        let pipe = DualPipe::default();
        let rep = pipe.run(&reordered_gemm_kernel(KernelSpec::new(1)));
        assert_eq!(rep.flops, 128);
        assert!(rep.cycles >= 16);
    }

    #[test]
    fn regcomm_consumer_kernel_matches_dma_fed_timing() {
        // The bus-fed kernel must sustain the same 17-cycle steady state —
        // the assumption behind pricing mesh GEMM rounds with the ordinary
        // tile-kernel cost.
        let pipe = DualPipe::default();
        for n in [2usize, 8, 16, 48] {
            let dma = pipe.run(&reordered_gemm_kernel(KernelSpec::new(n)));
            let bus = pipe.run(&regcomm_consumer_kernel(KernelSpec::new(n)));
            assert_eq!(bus.cycles, dma.cycles, "n={n}");
            assert_eq!(bus.flops, dma.flops);
        }
    }

    #[test]
    fn regcomm_kernel_uses_only_bus_receives() {
        let prog = regcomm_consumer_kernel(KernelSpec::new(4));
        assert!(prog.iter().all(|i| !matches!(
            i.op,
            crate::inst::Op::Vload { .. } | crate::inst::Op::Vldde { .. }
        )));
        let gets = prog
            .iter()
            .filter(|i| {
                matches!(
                    i.op,
                    crate::inst::Op::Getr { .. } | crate::inst::Op::Getc { .. }
                )
            })
            .count();
        assert_eq!(gets, 8 * 4, "8 receives per iteration");
    }

    #[test]
    fn reordered_dual_issues_heavily() {
        let rep = DualPipe::default().run(&reordered_gemm_kernel(KernelSpec::new(16)));
        let naive = DualPipe::default().run(&naive_gemm_kernel(KernelSpec::new(16)));
        assert!(rep.dual_issues > 8 * 14, "loads should hide under FMAs");
        assert!(
            naive.dual_issues <= 16,
            "naive flow pairs at most cmp per iter"
        );
    }
}
