//! Dependence analysis and the §VI instruction-reordering optimizer.
//!
//! The paper describes a three-step manual process — dependence analysis,
//! intra-loop pipelining/reordering, inter-loop pipelining — because "current
//! optimization tools in the Sunway C compiler can not provide an optimized
//! solution". This module mechanizes those steps:
//!
//! * `DepGraph` — register RAW/WAW/WAR and memory/control dependences of a
//!   straight-line instruction block,
//! * [`list_schedule`] — greedy critical-path list scheduling under the
//!   dual-pipeline resource model (step 2),
//! * `software_pipeline` (test-only) — two-stage inter-loop pipelining
//!   that hoists each iteration's stage-0 (load) instructions into the
//!   previous iteration (step 3). It is a pure reordering: the caller must already have broken
//!   WAR conflicts by double-buffering registers across iterations (the
//!   paper's "register package"), and [`validate_order`] will reject the
//!   transformation if they have not,
//! * [`validate_order`] — checks that a permutation of a block preserves
//!   every dependence edge (the proptest target for scheduler soundness).

use crate::inst::{Inst, Op, Reg};
use crate::pipeline::LatencyTable;

/// Kind of dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DepKind {
    /// Read-after-write: consumer must wait the producer's full latency.
    Raw,
    /// Write-after-write: later write must not be reordered before.
    Waw,
    /// Write-after-read: the write must not move before the read
    /// (same-cycle is fine: operands are captured at issue).
    War,
    /// Memory ordering (store vs load/store on a possibly-aliasing address).
    Mem,
    /// Control: nothing moves across a branch.
    Ctrl,
}

/// A dependence edge `from -> to` with a minimum issue-distance in cycles.
#[derive(Clone, Copy, Debug)]
struct DepEdge {
    from: usize,
    to: usize,
    kind: DepKind,
    /// `issue(to) >= issue(from) + min_latency`.
    min_latency: u64,
}

/// Dependence graph over one straight-line block (branches act as barriers).
#[derive(Clone, Debug)]
struct DepGraph {
    n: usize,
    edges: Vec<DepEdge>,
    /// `preds[j]` = indices of edges into node `j`.
    preds: Vec<Vec<usize>>,
}

fn mem_footprint(inst: &Inst) -> Option<(Reg, i32, bool)> {
    // (base, disp, is_write-to-memory)
    match inst.op {
        Op::Vload { base, disp, .. }
        | Op::Vldde { base, disp, .. }
        | Op::Vldr { base, disp, .. }
        | Op::Vldc { base, disp, .. } => Some((base, disp, false)),
        Op::Vstore { base, disp, .. } => Some((base, disp, true)),
        _ => None,
    }
}

impl DepGraph {
    /// Build the dependence graph of `block` with latencies from `lat`.
    fn build(block: &[Inst], lat: &LatencyTable) -> Self {
        let mut edges: Vec<DepEdge> = Vec::new();
        let mut push = |from: usize, to: usize, kind: DepKind, min_latency: u64| {
            edges.push(DepEdge {
                from,
                to,
                kind,
                min_latency,
            });
        };

        for j in 0..block.len() {
            let bj = &block[j];
            let j_reads = bj.reads();
            let j_writes = bj.writes();
            let j_mem = mem_footprint(bj);
            for i in (0..j).rev() {
                let bi = &block[i];
                let i_writes = bi.writes();
                // RAW
                if let Some(w) = i_writes {
                    if j_reads.contains(&w) {
                        push(i, j, DepKind::Raw, lat.of(bi));
                    }
                    // WAW
                    if j_writes == Some(w) {
                        push(i, j, DepKind::Waw, 1);
                    }
                }
                // WAR
                if let Some(w) = j_writes {
                    if bi.reads().contains(&w) {
                        push(i, j, DepKind::War, 0);
                    }
                }
                // Memory: conservative — any pair touching the same base
                // register where at least one side writes memory is ordered.
                // Distinct base registers are assumed disjoint (the kernel
                // convention: each base points at a separate LDM array).
                if let (Some((ib, _id, iw)), Some((jb, _jd, jw))) = (mem_footprint(bi), j_mem) {
                    if (iw || jw) && ib == jb {
                        push(i, j, DepKind::Mem, 1);
                    }
                }
                // Control: everything *before* a branch stays before it, and
                // memory writes / other branches stay *after* it. Loads and
                // arithmetic may be hoisted across an earlier branch — the
                // speculative load hoisting that software pipelining relies
                // on (the hoisted operation is register-renamed by the
                // caller and side-effect free).
                if bj.is_branch() {
                    push(i, j, DepKind::Ctrl, 1);
                } else if bi.is_branch() {
                    let j_writes_mem = j_mem.map(|(_, _, w)| w).unwrap_or(false)
                        || matches!(bj.op, Op::Putr { .. } | Op::Putc { .. });
                    if j_writes_mem {
                        push(i, j, DepKind::Ctrl, 1);
                    }
                }
            }
        }

        let mut preds = vec![Vec::new(); block.len()];
        for (e_idx, e) in edges.iter().enumerate() {
            preds[e.to].push(e_idx);
        }
        Self {
            n: block.len(),
            edges,
            preds,
        }
    }

    /// Longest-path priority of each node (critical path to any sink).
    fn critical_path(&self) -> Vec<u64> {
        let mut prio = vec![0u64; self.n];
        // edges go from lower to higher index; reverse topological = reverse index order.
        let mut succs: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.n];
        for e in &self.edges {
            succs[e.from].push((e.to, e.min_latency.max(1)));
        }
        for i in (0..self.n).rev() {
            for &(t, l) in &succs[i] {
                prio[i] = prio[i].max(prio[t] + l);
            }
        }
        prio
    }

    fn pred_edges(&self, j: usize) -> impl Iterator<Item = &DepEdge> {
        self.preds[j].iter().map(move |&e| &self.edges[e])
    }
}

/// Check that executing `block` in the order given by `order` (a permutation
/// of `0..block.len()`) preserves every dependence edge.
///
/// Returns `Err` naming the first violated edge.
pub fn validate_order(block: &[Inst], order: &[usize], lat: &LatencyTable) -> Result<(), String> {
    if order.len() != block.len() {
        return Err(format!(
            "order length {} != block length {}",
            order.len(),
            block.len()
        ));
    }
    let mut pos = vec![usize::MAX; block.len()];
    for (p, &i) in order.iter().enumerate() {
        if i >= block.len() || pos[i] != usize::MAX {
            return Err(format!("order is not a permutation (index {i})"));
        }
        pos[i] = p;
    }
    let g = DepGraph::build(block, lat);
    for e in &g.edges {
        // WAR edges allow same-position... positions are strict order, so
        // every edge just requires pos[from] < pos[to]; same-cycle pairing is
        // the pipeline simulator's job, the *order* must still respect deps.
        if pos[e.from] >= pos[e.to] {
            return Err(format!(
                "dependence {:?} {} -> {} violated: scheduled {} -> {}",
                e.kind, e.from, e.to, pos[e.from], pos[e.to]
            ));
        }
    }
    Ok(())
}

/// Greedy critical-path list scheduling under the dual-pipe resource model.
///
/// Produces a new issue *order* (indices into `block`). At each simulated
/// cycle the scheduler issues at most one P0 and one P1 instruction among
/// those whose predecessors have completed, preferring higher critical-path
/// priority. `Either`-class instructions fill whichever slot is free.
pub fn list_schedule(block: &[Inst], lat: &LatencyTable) -> Vec<usize> {
    use crate::inst::PipeClass;
    let g = DepGraph::build(block, lat);
    let prio = g.critical_path();
    let mut issued: Vec<Option<u64>> = vec![None; block.len()]; // issue cycle
    let mut order: Vec<usize> = Vec::with_capacity(block.len());
    let mut cycle: u64 = 0;
    let mut remaining = block.len();

    while remaining > 0 {
        // Nodes ready this cycle: all preds issued and latency satisfied.
        let mut ready: Vec<usize> = (0..block.len())
            .filter(|&j| issued[j].is_none())
            .filter(|&j| {
                g.pred_edges(j)
                    .all(|e| issued[e.from].is_some_and(|c| c + e.min_latency <= cycle))
            })
            .collect();
        ready.sort_by_key(|&j| (std::cmp::Reverse(prio[j]), j));

        let mut p0_free = true;
        let mut p1_free = true;
        let mut issued_branch = false;
        for &j in &ready {
            if issued_branch {
                break;
            }
            let class = block[j].pipe_class();
            let slot = match class {
                PipeClass::P0Only if p0_free => Some(&mut p0_free),
                PipeClass::P1Only if p1_free => Some(&mut p1_free),
                PipeClass::Either if p1_free => Some(&mut p1_free),
                PipeClass::Either if p0_free => Some(&mut p0_free),
                _ => None,
            };
            if let Some(flag) = slot {
                *flag = false;
                issued[j] = Some(cycle);
                order.push(j);
                remaining -= 1;
                if block[j].is_branch() {
                    issued_branch = true;
                }
            }
            if !p0_free && !p1_free {
                break;
            }
        }
        cycle += 1;
    }
    order
}

/// Inter-loop (two-stage) software pipelining — §VI-B step 3.
///
/// `iterations[k]` is the instruction list of loop iteration `k`, with each
/// instruction tagged `stage 0` (operand loads) or `stage 1` (compute and
/// control). The transformation emits:
///
/// * a prologue — iteration 0's stage-0 instructions,
/// * for each iteration `k`: its stage-1 instructions interleaved 1:1 with
///   iteration `k+1`'s stage-0 instructions (loads hide under FMAs), with
///   any branch kept last in its iteration,
/// * iteration `n-1`'s stage-1 instructions form the natural epilogue
///   (there is nothing left to interleave).
///
/// Returns indices into the *concatenation* of `iterations`, so the caller
/// can both materialize the program and [`validate_order`] it.
#[cfg(test)]
fn software_pipeline(iterations: &[Vec<Inst>]) -> Vec<usize> {
    let n = iterations.len();
    // Global index of iterations[k][i].
    let mut base = vec![0usize; n + 1];
    for k in 0..n {
        base[k + 1] = base[k] + iterations[k].len();
    }
    let mut order: Vec<usize> = Vec::with_capacity(base[n]);

    let stage_idx = |k: usize, stage: u8| -> Vec<usize> {
        iterations[k]
            .iter()
            .enumerate()
            .filter(|(_, inst)| inst.stage == stage)
            .map(|(i, _)| base[k] + i)
            .collect()
    };

    // Prologue: iteration 0's loads.
    order.extend(stage_idx(0, 0));

    let concat: Vec<&Inst> = iterations.iter().flatten().collect();
    for k in 0..n {
        let compute = stage_idx(k, 1);
        // Branch (if any) must stay last within the iteration so it can pair
        // with the final P0 op; every other non-P0 compute op (e.g. `cmp`)
        // rides the P1 stream together with the hoisted loads.
        let (branches, body): (Vec<usize>, Vec<usize>) =
            compute.into_iter().partition(|&g| concat[g].is_branch());
        let (p0_ops, p1_extra): (Vec<usize>, Vec<usize>) = body
            .into_iter()
            .partition(|&g| concat[g].pipe_class() == crate::inst::PipeClass::P0Only);
        let hoisted: Vec<usize> = if k + 1 < n {
            stage_idx(k + 1, 0)
        } else {
            Vec::new()
        };
        let mut p1_side = hoisted.into_iter().chain(p1_extra);
        for g in p0_ops {
            order.push(g);
            if let Some(h) = p1_side.next() {
                order.push(h);
            }
        }
        order.extend(p1_side);
        order.extend(branches);
    }
    order
}

/// Materialize a permutation into an instruction vector.
pub fn apply_order(block: &[Inst], order: &[usize]) -> Vec<Inst> {
    order.iter().map(|&i| block[i]).collect()
}

/// Resource-constrained minimum initiation interval (ResMII) of a loop
/// body under the dual-pipeline contract: the steady-state cycles per
/// iteration can never beat the busier pipeline, and a taken loop-back
/// branch adds its fetch bubble.
///
/// `Either`-class operations are assigned to the less-loaded pipe (the
/// optimistic bound). For the paper's inner kernel — 16 P0 FMAs vs
/// 8 loads + `cmp` + `bnw` on P1 — this gives `max(16, 10) + 1 = 17`,
/// which the §VI schedule achieves exactly: the hand schedule is optimal.
#[cfg(test)]
fn res_mii(body: &[Inst]) -> u64 {
    use crate::inst::PipeClass;
    let mut p0 = 0u64;
    let mut p1 = 0u64;
    let mut either = 0u64;
    let mut bubble = 0u64;
    for inst in body {
        match inst.pipe_class() {
            PipeClass::P0Only => p0 += 1,
            PipeClass::P1Only => p1 += 1,
            PipeClass::Either => either += 1,
        }
        if matches!(inst.op, Op::Branch { taken: true, .. }) {
            bubble = 1;
        }
    }
    // Distribute Either ops onto the less-loaded pipe.
    let mut e = either;
    while e > 0 {
        if p0 <= p1 {
            p0 += 1;
        } else {
            p1 += 1;
        }
        e -= 1;
    }
    p0.max(p1) + bubble
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Op, Reg};
    use crate::pipeline::DualPipe;

    fn vload(dst: u8, disp: i32) -> Inst {
        Inst::staged(
            Op::Vload {
                dst: Reg::V(dst),
                base: Reg::R(0),
                disp,
            },
            0,
        )
    }
    fn fma(dst: u8, a: u8, b: u8) -> Inst {
        Inst::staged(
            Op::Vfmadd {
                dst: Reg::V(dst),
                a: Reg::V(a),
                b: Reg::V(b),
                acc: Reg::V(dst),
            },
            1,
        )
    }

    #[test]
    fn raw_edges_are_found() {
        let block = [vload(0, 0), fma(8, 0, 1)];
        let g = DepGraph::build(&block, &LatencyTable::default());
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Raw && e.from == 0 && e.to == 1 && e.min_latency == 4));
    }

    #[test]
    fn war_edges_are_found() {
        // fma reads v0, then a load overwrites v0.
        let block = [fma(8, 0, 1), vload(0, 0)];
        let g = DepGraph::build(&block, &LatencyTable::default());
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::War && e.from == 0 && e.to == 1));
    }

    #[test]
    fn branch_control_edges_are_asymmetric() {
        let block = [
            vload(0, 0),
            Inst::staged(
                Op::Branch {
                    cond: Reg::R(3),
                    taken: true,
                },
                1,
            ),
            vload(1, 32),
            Inst::staged(
                Op::Vstore {
                    src: Reg::V(1),
                    base: Reg::R(5),
                    disp: 0,
                },
                1,
            ),
        ];
        let g = DepGraph::build(&block, &LatencyTable::default());
        // Anything before a branch stays before it.
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Ctrl && e.from == 0 && e.to == 1));
        // Loads may be speculatively hoisted across an earlier branch...
        assert!(!g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Ctrl && e.from == 1 && e.to == 2));
        // ...but memory writes may not.
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Ctrl && e.from == 1 && e.to == 3));
    }

    #[test]
    fn validate_accepts_identity_and_rejects_violations() {
        let block = [vload(0, 0), fma(8, 0, 1)];
        let lat = LatencyTable::default();
        assert!(validate_order(&block, &[0, 1], &lat).is_ok());
        assert!(validate_order(&block, &[1, 0], &lat).is_err());
        assert!(validate_order(&block, &[0, 0], &lat).is_err());
        assert!(validate_order(&block, &[0], &lat).is_err());
    }

    #[test]
    fn list_schedule_is_valid_and_no_slower() {
        // A block with an obvious improvement: load feeding the last fma
        // placed late by the programmer.
        let block = [
            fma(16, 1, 2),
            fma(17, 1, 2),
            fma(18, 1, 2),
            vload(0, 0),
            fma(19, 0, 2), // depends on the load
        ];
        let lat = LatencyTable::default();
        let order = list_schedule(&block, &lat);
        validate_order(&block, &order, &lat).unwrap();
        let pipe = DualPipe::default();
        let before = pipe.run(&block).cycles;
        let after = pipe.run(&apply_order(&block, &order)).cycles;
        assert!(
            after <= before,
            "list schedule regressed: {before} -> {after}"
        );
        // The load should have been hoisted to cycle 0 alongside an fma.
        assert!(order[0..2].contains(&3));
    }

    #[test]
    fn software_pipeline_reproduces_the_17_cycle_loop() {
        // Build naive-style iterations but with ping-pong register sets, as
        // the paper's "register package" requires; pipeline them and check
        // both validity and the steady-state period.
        let n = 8usize;
        let lat = LatencyTable::default();
        let iterations: Vec<Vec<Inst>> = (0..n)
            .map(|k| {
                let s = (k % 2) as u8 * 8; // A: v0..3 / v8..11; B: v4..7 / v12..15
                let mut body = Vec::new();
                body.push(Inst::staged(
                    Op::Vldde {
                        dst: Reg::V(s + 4),
                        base: Reg::R(1),
                        disp: (k * 32) as i32,
                    },
                    0,
                ));
                for i in 0..4u8 {
                    body.push(Inst::staged(
                        Op::Vload {
                            dst: Reg::V(s + i),
                            base: Reg::R(0),
                            disp: (k * 128) as i32 + i as i32 * 32,
                        },
                        0,
                    ));
                }
                for j in 1..4u8 {
                    body.push(Inst::staged(
                        Op::Vldde {
                            dst: Reg::V(s + 4 + j),
                            base: Reg::R(1),
                            disp: (k * 32) as i32 + j as i32 * 8,
                        },
                        0,
                    ));
                }
                // column-major FMAs
                for j in 0..4u8 {
                    for i in 0..4u8 {
                        body.push(Inst::staged(
                            Op::Vfmadd {
                                dst: Reg::V(16 + 4 * j + i),
                                a: Reg::V(s + i),
                                b: Reg::V(s + 4 + j),
                                acc: Reg::V(16 + 4 * j + i),
                            },
                            1,
                        ));
                    }
                }
                body.push(Inst::staged(
                    Op::Cmp {
                        dst: Reg::R(3),
                        a: Reg::R(0),
                        b: Reg::R(2),
                    },
                    1,
                ));
                body.push(Inst::staged(
                    Op::Branch {
                        cond: Reg::R(3),
                        taken: k + 1 < n,
                    },
                    1,
                ));
                body
            })
            .collect();

        let concat: Vec<Inst> = iterations.iter().flatten().copied().collect();
        let order = software_pipeline(&iterations);
        validate_order(&concat, &order, &lat).unwrap();

        let pipe = DualPipe::default();
        let scheduled = apply_order(&concat, &order);
        let rep = pipe.run(&scheduled);
        let naive = pipe.run(&concat);
        assert!(rep.cycles < naive.cycles);
        // Steady-state period must be 17 cycles (16 FMA slots + bubble).
        let mut iters9 = iterations.clone();
        {
            let k = n;
            // one more iteration, same shape
            let mut body = iters9[n - 2].clone();
            for inst in &mut body {
                if let Op::Branch { taken, .. } = &mut inst.op {
                    *taken = false;
                }
            }
            // fix previous last branch to taken
            for inst in iters9[n - 1].iter_mut() {
                if let Op::Branch { taken, .. } = &mut inst.op {
                    *taken = true;
                }
            }
            let _ = k;
            iters9.push(body);
        }
        let concat9: Vec<Inst> = iters9.iter().flatten().copied().collect();
        let order9 = software_pipeline(&iters9);
        validate_order(&concat9, &order9, &lat).unwrap();
        let rep9 = pipe.run(&apply_order(&concat9, &order9));
        assert_eq!(rep9.cycles - rep.cycles, 17);
    }

    #[test]
    fn res_mii_of_the_paper_kernel_is_17() {
        // One steady-state iteration: 16 FMAs, 8 loads, cmp, taken branch.
        let mut body: Vec<Inst> = Vec::new();
        for j in 0..4u8 {
            for i in 0..4u8 {
                body.push(fma(16 + 4 * j + i, i, 4 + j));
            }
        }
        for i in 0..8 {
            body.push(vload(i, i as i32 * 32));
        }
        body.push(Inst::staged(
            Op::Cmp {
                dst: Reg::R(3),
                a: Reg::R(0),
                b: Reg::R(2),
            },
            1,
        ));
        body.push(Inst::staged(
            Op::Branch {
                cond: Reg::R(3),
                taken: true,
            },
            1,
        ));
        assert_eq!(res_mii(&body), 17, "the hand schedule of Fig. 6 is optimal");
    }

    #[test]
    fn res_mii_balances_either_ops() {
        // 3 FMAs (P0), 1 load (P1), 2 addi (Either) -> P1 takes both: max(3,3)=3.
        let body = vec![
            fma(16, 0, 1),
            fma(17, 0, 1),
            fma(18, 0, 1),
            vload(0, 0),
            Inst::new(Op::Addi {
                dst: Reg::R(5),
                src: Reg::R(5),
                imm: 1,
            }),
            Inst::new(Op::Addi {
                dst: Reg::R(6),
                src: Reg::R(6),
                imm: 1,
            }),
        ];
        assert_eq!(res_mii(&body), 3);
    }

    #[test]
    fn software_pipeline_without_register_renaming_is_rejected() {
        // Single register set: hoisting iteration k+1's loads above
        // iteration k's FMAs violates WAR dependences.
        let n = 3usize;
        let iterations: Vec<Vec<Inst>> = (0..n)
            .map(|k| {
                // Two FMAs read v0, so a load of v0 hoisted between them
                // clobbers the operand of the second one (WAR violation).
                vec![
                    Inst::staged(
                        Op::Vload {
                            dst: Reg::V(0),
                            base: Reg::R(0),
                            disp: (k * 32) as i32,
                        },
                        0,
                    ),
                    fma(16, 0, 1),
                    fma(17, 0, 2),
                    Inst::staged(
                        Op::Branch {
                            cond: Reg::R(3),
                            taken: k + 1 < n,
                        },
                        1,
                    ),
                ]
            })
            .collect();
        let concat: Vec<Inst> = iterations.iter().flatten().copied().collect();
        let order = software_pipeline(&iterations);
        assert!(validate_order(&concat, &order, &LatencyTable::default()).is_err());
    }
}
