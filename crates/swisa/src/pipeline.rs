//! Cycle-accurate model of the CPE's dual-issue front end (§VI-A).
//!
//! The model is *issue-centric*: the decoder looks at the two instructions
//! at the head of the in-order queue each cycle and issues
//!
//! * the first, if its source operands are ready and no in-flight write to
//!   its destination is pending (RAW / WAW against in-flight instructions),
//! * additionally the second, if it maps to the *other* pipeline, has no
//!   RAW/WAW hazard against the first, and its own operands are ready.
//!
//! Operands are captured at issue, so WAR hazards never stall (this matches
//! reservation-station-free in-order designs where the register file is read
//! in the same cycle as issue). Both pipelines are fully pipelined — one
//! instruction may enter each per cycle regardless of latency.
//!
//! A taken branch inserts a one-cycle fetch bubble. Total `cycles` is the
//! issue slot of the last instruction plus one (plus a final bubble if the
//! last instruction is a taken branch) — the same counting the paper uses
//! when it reports "26 cycles per iteration".

use crate::inst::{Inst, Op, Pipe, PipeClass, Reg};
use std::collections::HashMap;

/// Instruction latencies in cycles (producer → consumer).
///
/// Defaults follow §VI-B: loads (and the load-like register-communication
/// `get`s) take 4 cycles, `vfmadd` takes 7, everything else is single-cycle.
#[derive(Clone, Copy, Debug)]
pub struct LatencyTable {
    pub load: u64,
    pub fma: u64,
    pub int_op: u64,
    pub store: u64,
    pub put: u64,
    pub get: u64,
}

impl Default for LatencyTable {
    fn default() -> Self {
        Self {
            load: 4,
            fma: 7,
            int_op: 1,
            store: 1,
            put: 1,
            get: 4,
        }
    }
}

impl LatencyTable {
    /// Latency of `inst`'s result (cycles until a consumer may issue).
    pub fn of(&self, inst: &Inst) -> u64 {
        match inst.op {
            Op::Vload { .. } | Op::Vldde { .. } | Op::Vldr { .. } | Op::Vldc { .. } => self.load,
            Op::Getr { .. } | Op::Getc { .. } => self.get,
            Op::Vfmadd { .. } | Op::Vaddd { .. } => self.fma,
            Op::Vstore { .. } => self.store,
            Op::Putr { .. } | Op::Putc { .. } => self.put,
            Op::Addi { .. } | Op::Cmp { .. } | Op::Nop => self.int_op,
            Op::Branch { .. } => self.int_op,
        }
    }
}

/// Result of simulating one instruction stream on one CPE.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Total issue cycles consumed (see module docs for the convention).
    pub cycles: u64,
    /// Number of instructions issued to P0 / P1.
    pub p0_issued: u64,
    pub p1_issued: u64,
    /// Cycles in which two instructions issued together.
    pub dual_issues: u64,
    /// Cycles in which nothing issued (operand stalls + branch bubbles).
    pub stall_cycles: u64,
    /// Double-precision flops performed by the stream.
    pub flops: u64,
    /// LDM bytes read by the stream (Eq. 5 accounting: `vldde` counts as
    /// 32 bytes of register-file fill — see [`Inst::ldm_load_bytes`]).
    pub ldm_load_bytes: u64,
    /// LDM bytes written by the stream (vector stores).
    pub ldm_store_bytes: u64,
    /// Per-instruction issue cycle and pipe, in program order.
    pub issue_trace: Vec<(u64, Pipe)>,
}

impl ExecReport {
    /// Execution efficiency: fraction of cycles P0 spends on floating-point
    /// work — the paper's `EE` (e.g. 16/26 = 61.5% for the naive kernel).
    pub fn execution_efficiency(&self, flop_insts: u64) -> f64 {
        flop_insts as f64 / self.cycles as f64
    }
}

impl ExecReport {
    /// Render a Fig. 6-style annotated listing: one line per instruction
    /// with its issue cycle and pipeline. Dual-issued pairs share a cycle.
    pub fn annotate(&self, program: &[crate::inst::Inst]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycle  pipe  instruction");
        let mut prev_cycle = None;
        for (inst, &(cycle, pipe)) in program.iter().zip(&self.issue_trace) {
            let cyc = if prev_cycle == Some(cycle) {
                "    .".to_string()
            } else {
                format!("{cycle:>5}")
            };
            prev_cycle = Some(cycle);
            let _ = writeln!(
                out,
                "{cyc}    {}  {}",
                match pipe {
                    Pipe::P0 => "P0",
                    Pipe::P1 => "P1",
                },
                crate::asm::format_inst(inst)
            );
        }
        let _ = writeln!(
            out,
            "total {} cycles, {} dual-issues, {} stalls",
            self.cycles, self.dual_issues, self.stall_cycles
        );
        out
    }
}

/// The dual-pipeline issue simulator.
#[derive(Clone, Debug, Default)]
pub struct DualPipe {
    pub latency: LatencyTable,
}

impl DualPipe {
    pub fn new(latency: LatencyTable) -> Self {
        Self { latency }
    }

    /// Simulate `program` to completion and report timing.
    pub fn run(&self, program: &[Inst]) -> ExecReport {
        let mut ready: HashMap<Reg, u64> = HashMap::new();
        let mut cycle: u64 = 0;
        let mut idx = 0usize;
        let mut p0 = 0u64;
        let mut p1 = 0u64;
        let mut dual = 0u64;
        let mut stalls = 0u64;
        let mut flops = 0u64;
        let mut ldm_loads = 0u64;
        let mut ldm_stores = 0u64;
        let mut trace = Vec::with_capacity(program.len());

        while idx < program.len() {
            let first = &program[idx];
            if !self.can_issue(first, &ready, cycle) {
                stalls += 1;
                cycle += 1;
                continue;
            }
            // Choose the first instruction's pipe, peeking at the second to
            // maximize pairing for `Either`-class instructions.
            let second = program.get(idx + 1);
            let first_pipe = match first.pipe_class() {
                PipeClass::P0Only => Pipe::P0,
                PipeClass::P1Only => Pipe::P1,
                PipeClass::Either => match second.map(Inst::pipe_class) {
                    Some(PipeClass::P0Only) => Pipe::P1,
                    Some(PipeClass::P1Only) => Pipe::P0,
                    _ => Pipe::P1,
                },
            };
            self.commit(first, &mut ready, cycle);
            trace.push((cycle, first_pipe));
            match first_pipe {
                Pipe::P0 => p0 += 1,
                Pipe::P1 => p1 += 1,
            }
            flops += first.flops();
            ldm_loads += first.ldm_load_bytes();
            ldm_stores += first.ldm_store_bytes();
            let mut advanced = 1usize;
            let mut branch_taken = matches!(first.op, Op::Branch { taken: true, .. });

            // Dual-issue attempt: the branch occupies the rest of the fetch
            // group, so nothing pairs *after* a branch.
            if !first.is_branch() {
                if let Some(snd) = second {
                    let other = match first_pipe {
                        Pipe::P0 => Pipe::P1,
                        Pipe::P1 => Pipe::P0,
                    };
                    let compatible = match snd.pipe_class() {
                        PipeClass::P0Only => other == Pipe::P0,
                        PipeClass::P1Only => other == Pipe::P1,
                        PipeClass::Either => true,
                    };
                    if compatible
                        && !Self::pair_hazard(first, snd)
                        && self.can_issue(snd, &ready, cycle)
                    {
                        self.commit(snd, &mut ready, cycle);
                        trace.push((cycle, other));
                        match other {
                            Pipe::P0 => p0 += 1,
                            Pipe::P1 => p1 += 1,
                        }
                        flops += snd.flops();
                        ldm_loads += snd.ldm_load_bytes();
                        ldm_stores += snd.ldm_store_bytes();
                        dual += 1;
                        advanced = 2;
                        branch_taken |= matches!(snd.op, Op::Branch { taken: true, .. });
                    }
                }
            }

            idx += advanced;
            cycle += 1;
            if branch_taken {
                stalls += 1;
                cycle += 1; // fetch bubble
            }
        }

        ExecReport {
            cycles: cycle,
            p0_issued: p0,
            p1_issued: p1,
            dual_issues: dual,
            stall_cycles: stalls,
            flops,
            ldm_load_bytes: ldm_loads,
            ldm_store_bytes: ldm_stores,
            issue_trace: trace,
        }
    }

    /// RAW and WAW between two candidates for the same issue cycle.
    fn pair_hazard(first: &Inst, second: &Inst) -> bool {
        if let Some(w) = first.writes() {
            if second.reads().contains(&w) {
                return true; // RAW within the pair
            }
            if second.writes() == Some(w) {
                return true; // WAW within the pair
            }
        }
        false
    }

    fn can_issue(&self, inst: &Inst, ready: &HashMap<Reg, u64>, cycle: u64) -> bool {
        // Sources ready?
        for r in inst.reads() {
            if ready.get(&r).copied().unwrap_or(0) > cycle {
                return false;
            }
        }
        // No pending in-flight write to the same destination (WAW).
        if let Some(w) = inst.writes() {
            if ready.get(&w).copied().unwrap_or(0) > cycle {
                return false;
            }
        }
        true
    }

    fn commit(&self, inst: &Inst, ready: &mut HashMap<Reg, u64>, cycle: u64) {
        if let Some(w) = inst.writes() {
            ready.insert(w, cycle + self.latency.of(inst));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Op, Reg};

    fn vload(dst: u8, base: u8, disp: i32) -> Inst {
        Inst::new(Op::Vload {
            dst: Reg::V(dst),
            base: Reg::R(base),
            disp,
        })
    }
    fn vfmadd(dst: u8, a: u8, b: u8) -> Inst {
        Inst::new(Op::Vfmadd {
            dst: Reg::V(dst),
            a: Reg::V(a),
            b: Reg::V(b),
            acc: Reg::V(dst),
        })
    }

    #[test]
    fn independent_ops_on_different_pipes_dual_issue() {
        // load (P1) + fma (P0), no hazards -> 1 cycle.
        let prog = [vload(0, 0, 0), vfmadd(8, 1, 2)];
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.cycles, 1);
        assert_eq!(rep.dual_issues, 1);
    }

    #[test]
    fn same_pipe_serializes() {
        let prog = [vload(0, 0, 0), vload(1, 0, 32)];
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.cycles, 2);
        assert_eq!(rep.dual_issues, 0);
    }

    #[test]
    fn raw_within_pair_blocks_dual_issue() {
        // fma reads v0 which the load writes.
        let prog = [vload(0, 0, 0), vfmadd(8, 0, 2)];
        let rep = DualPipe::default().run(&prog);
        // load at 0; fma waits for v0 ready at 4 -> issues at 4 -> 5 cycles.
        assert_eq!(rep.cycles, 5);
        assert_eq!(rep.stall_cycles, 3);
    }

    #[test]
    fn load_use_latency_is_four() {
        let prog = [vload(0, 0, 0), Inst::new(Op::Nop), vfmadd(8, 0, 2)];
        let rep = DualPipe::default().run(&prog);
        // load@0 (nop pairs @0), fma must wait until cycle 4.
        assert_eq!(rep.cycles, 5);
    }

    #[test]
    fn fma_chain_respects_seven_cycle_latency() {
        // acc chain: each fma reads the previous result.
        let prog = [vfmadd(0, 1, 2), vfmadd(0, 1, 2), vfmadd(0, 1, 2)];
        let rep = DualPipe::default().run(&prog);
        // issues at 0, 7, 14 -> 15 cycles.
        assert_eq!(rep.cycles, 15);
    }

    #[test]
    fn independent_fmas_fully_pipeline() {
        let prog: Vec<Inst> = (0..8).map(|i| vfmadd(i, 20, 21)).collect();
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.cycles, 8);
        assert_eq!(rep.flops, 64);
    }

    #[test]
    fn taken_branch_inserts_bubble() {
        let prog = [
            Inst::new(Op::Cmp {
                dst: Reg::R(2),
                a: Reg::R(0),
                b: Reg::R(1),
            }),
            Inst::new(Op::Branch {
                cond: Reg::R(2),
                taken: true,
            }),
            Inst::new(Op::Nop),
        ];
        let rep = DualPipe::default().run(&prog);
        // cmp@0 (branch cannot pair: RAW on r2), branch@1, bubble@2, nop@3.
        assert_eq!(rep.cycles, 4);
    }

    #[test]
    fn fall_through_branch_has_no_bubble() {
        let prog = [
            Inst::new(Op::Branch {
                cond: Reg::R(2),
                taken: false,
            }),
            Inst::new(Op::Nop),
        ];
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.cycles, 2);
    }

    #[test]
    fn nothing_pairs_after_a_branch() {
        let prog = [
            Inst::new(Op::Branch {
                cond: Reg::R(2),
                taken: false,
            }),
            vfmadd(0, 1, 2),
        ];
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.dual_issues, 0);
        assert_eq!(rep.cycles, 2);
    }

    #[test]
    fn either_class_takes_the_free_pipe() {
        // addi should go to P0 so the following load can... actually pairing
        // is with the *next* instruction: [addi, vload] -> addi->P0, vload->P1.
        let prog = [
            Inst::new(Op::Addi {
                dst: Reg::R(5),
                src: Reg::R(5),
                imm: 32,
            }),
            vload(0, 0, 0),
        ];
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.cycles, 1);
        assert_eq!(rep.dual_issues, 1);
    }

    #[test]
    fn waw_stalls_until_first_write_completes() {
        // Two loads into the same register.
        let prog = [vload(0, 0, 0), vload(0, 0, 32)];
        let rep = DualPipe::default().run(&prog);
        // first@0 ready at 4; second can issue at 4 -> total 5.
        assert_eq!(rep.cycles, 5);
    }

    #[test]
    fn annotated_listing_shows_cycles_and_pipes() {
        let prog = [vload(0, 0, 0), vfmadd(8, 1, 2), vfmadd(9, 1, 2)];
        let rep = DualPipe::default().run(&prog);
        let text = rep.annotate(&prog);
        assert!(text.contains("P1  vload"));
        assert!(text.contains("P0  vfmad"));
        // The dual-issued partner shares its cycle (rendered as '.').
        assert!(text.contains("    ."), "{text}");
        assert!(text.contains("total"));
    }

    #[test]
    fn ldm_traffic_accounting_follows_eq5() {
        let prog = [
            vload(0, 0, 0), // 32 B load
            Inst::new(Op::Vldde {
                dst: Reg::V(1),
                base: Reg::R(1),
                disp: 0,
            }), // 32 B bandwidth-equivalent (8 B replicated x4)
            vfmadd(8, 0, 1), // no LDM traffic
            Inst::new(Op::Vstore {
                src: Reg::V(8),
                base: Reg::R(2),
                disp: 0,
            }), // 32 B store
            Inst::new(Op::Getr { dst: Reg::V(9) }), // bus, not LDM
        ];
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.ldm_load_bytes, 64);
        assert_eq!(rep.ldm_store_bytes, 32);
    }

    #[test]
    fn report_counts_are_consistent() {
        let prog = [vload(0, 0, 0), vfmadd(8, 1, 2), vfmadd(9, 1, 2)];
        let rep = DualPipe::default().run(&prog);
        assert_eq!(rep.p0_issued + rep.p1_issued, prog.len() as u64);
        assert_eq!(rep.issue_trace.len(), prog.len());
        // trace is in program order with non-decreasing cycles
        assert!(rep.issue_trace.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
