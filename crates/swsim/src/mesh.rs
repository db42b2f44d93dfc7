//! The 8×8 CPE mesh: bulk-synchronous execution with register
//! communication over row/column buses (§III-B, §V-A).
//!
//! A kernel is a sequence of **supersteps**. In each superstep every CPE
//! runs the same closure over its private state, its LDM, and a [`CpeCtx`]
//! that provides DMA, bus communication and cycle accounting. Bus messages
//! sent in superstep *k* sit in the receiver's transfer buffer and are
//! received (`recv_row`/`recv_col`) in superstep *k+1* — the staged
//! equivalent of the hardware's producer/consumer blocking. At each
//! superstep boundary all CPE clocks synchronize to the maximum plus a
//! small mesh-synchronization overhead.
//!
//! DMA puts to main memory are *logged* during the superstep and applied by
//! [`Mesh::drain_puts`] — plans therefore cannot race on the output buffer,
//! and the simulation stays deterministic regardless of the worker pool's
//! scheduling.
//!
//! Every superstep that runs CPE programs — alone or in a batch of rounds —
//! goes through one private runner with two host schedules, picked by
//! [`sw_runtime::lanes_for`] from the step's estimated work: everything
//! inline on the caller, or the parallel steps of one
//! [`sw_runtime::ExecutionContext::run_stepped`] call on the persistent
//! worker pool ([`Mesh::new_on`] pins a mesh to a specific context,
//! [`Mesh::new`] uses the process-wide [`sw_runtime::global`] one), with the
//! seam of each step on the lane that finished it last. The choice never
//! reaches the simulated clock.
//!
//! Each CPE node owns what its program produces in a step — outgoing bus
//! messages, DMA puts, the program's result. One lane writes a node per
//! step; the seam is the only reader, and it empties the buffers whether the
//! step succeeded or not.
//!
//! A mesh built with [`Mesh::cost_only`] prices, counts, queues and
//! fault-keys every operation exactly as above but moves no operand data
//! and holds no LDM: DMA gets copy nothing and may name their source by
//! length alone ([`DmaSource::Len`]), and LDM allocation is bookkeeping over
//! the capacity, with no doubles behind it. Of its puts it keeps a count
//! and, as records, only those whose end exceeds every earlier put's end:
//! the first put past the output always is one, so [`Mesh::drain_puts`]
//! and [`Mesh::check_puts`] fail with the functional mesh's error.
//! Every clock, counter, fault decision and LDM overflow is a function of
//! lengths, offsets and sequence numbers only, so a cost-only run lands on
//! the same cycles, the same per-CPE counters, the same high water and the
//! same errors as the functional run of the same program — it is how plans
//! time a shape without doing its arithmetic. Its put records are leased
//! from the run context's scratch arena and returned, emptied, when the mesh
//! drops, so a warm timing walk regrows none of them. There a GEMM rotation
//! no fault can touch runs no CPE program: [`Mesh::price_rotation`] applies
//! its `2·dim` supersteps' exact effect in one step.

use crate::dma::{DmaEngine, DmaHandle};
use crate::fault::FaultPlan;
use crate::ldm::{Ldm, LdmBuf, LdmOverflow};
use crate::stats::{CgStats, CpeStats};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use sw_perfmodel::dma::DmaDirection;
use sw_perfmodel::ChipSpec;

/// Which communication bus of the mesh.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bus {
    Row,
    Col,
}

/// Simulation failures. Most correspond to real programming errors on the
/// hardware (scratchpad overflow, reading an empty transfer buffer, DMA
/// outside the mapped segment); `DmaFault` and `CpeOffline` are injected
/// hardware faults from a [`FaultPlan`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    Ldm(LdmOverflow),
    /// `recv` on an empty transfer buffer: on hardware this deadlocks.
    EmptyInbox {
        row: usize,
        col: usize,
        bus: Bus,
    },
    /// DMA touching memory outside the registered segment.
    OutOfBounds {
        offset: usize,
        len: usize,
        size: usize,
    },
    /// Plan-level invariant failure.
    Program(String),
    /// An injected DMA failure persisted through every retry.
    DmaFault {
        row: usize,
        col: usize,
        attempts: u32,
    },
    /// The CPE is marked permanently offline by the active [`FaultPlan`].
    CpeOffline {
        row: usize,
        col: usize,
    },
}

impl SimError {
    /// Whether a re-run (with a different fault pattern) could succeed.
    /// Programming errors are deterministic and will recur; injected
    /// transient faults and drop-induced deadlocks may not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::DmaFault { .. } | SimError::EmptyInbox { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Ldm(e) => write!(f, "{e}"),
            SimError::EmptyInbox { row, col, bus } => {
                write!(
                    f,
                    "CPE({row},{col}) get on empty {bus:?} transfer buffer (deadlock)"
                )
            }
            SimError::OutOfBounds { offset, len, size } => {
                write!(
                    f,
                    "DMA [{offset}..{}) outside segment of {size} doubles",
                    offset + len
                )
            }
            SimError::Program(s) => write!(f, "plan error: {s}"),
            SimError::DmaFault { row, col, attempts } => {
                write!(
                    f,
                    "CPE({row},{col}) DMA transfer failed after {attempts} attempts"
                )
            }
            SimError::CpeOffline { row, col } => write!(f, "CPE({row},{col}) is offline"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<LdmOverflow> for SimError {
    fn from(e: LdmOverflow) -> Self {
        SimError::Ldm(e)
    }
}

/// Outgoing bus message. Payloads are shared slices: a broadcast is one
/// allocation handed to every receiver by reference count, not one
/// allocation plus a clone per target.
#[derive(Clone, Debug)]
struct OutMsg {
    bus: Bus,
    /// Position along the bus (a column on the row bus, a row on the column
    /// bus) of the one receiver; `None` broadcasts to the other `dim − 1`.
    to: Option<usize>,
    data: Arc<[f64]>,
}

/// What a mesh logs of its DMA put runs until [`Mesh::drain_puts`]: per
/// CPE for the current superstep, and mesh-wide, in seam order.
#[derive(Clone, Debug, PartialEq)]
enum PutLog {
    /// A functional mesh's: every run, `(offset, doubles read from LDM)`.
    Data(Vec<(usize, Vec<f64>)>),
    /// A cost-only mesh's: how many runs were logged, and `(offset, len)` of
    /// each run whose end exceeds every earlier run's end. The drain fails
    /// on the first run that ends past the segment; every run before it
    /// ends inside, so that run is always a record, and the drain's error
    /// is the functional mesh's.
    Lens {
        count: usize,
        records: Vec<(usize, usize)>,
    },
}

impl PutLog {
    /// An empty log of the kind `cost_only` names.
    fn new(cost_only: bool) -> Self {
        if cost_only {
            PutLog::Lens {
                count: 0,
                records: Vec::new(),
            }
        } else {
            PutLog::Data(Vec::new())
        }
    }

    /// Runs logged and not yet drained.
    fn len(&self) -> usize {
        match self {
            PutLog::Data(runs) => runs.len(),
            PutLog::Lens { count, .. } => *count,
        }
    }

    /// Log a run of `len` doubles to `offset`, reading them from `data()`
    /// where the log keeps data.
    fn push<'a>(&mut self, offset: usize, len: usize, data: impl FnOnce() -> &'a [f64]) {
        match self {
            PutLog::Data(runs) => runs.push((offset, data().to_vec())),
            PutLog::Lens { count, records } => {
                *count += 1;
                record(records, offset, len);
            }
        }
    }

    /// Move every run of `other` to the end of this log, leaving `other`
    /// empty with its capacity. A record of `other` stays one here only if
    /// it also ends past every run already here.
    fn append(&mut self, other: &mut PutLog) {
        match (self, other) {
            (PutLog::Data(runs), PutLog::Data(more)) => runs.append(more),
            (
                PutLog::Lens { count, records },
                PutLog::Lens {
                    count: n,
                    records: more,
                },
            ) => {
                *count += std::mem::take(n);
                for (offset, len) in more.drain(..) {
                    record(records, offset, len);
                }
            }
            _ => unreachable!("a mesh's logs are all of its one kind"),
        }
    }

    /// Forget every run, keeping capacity.
    fn clear(&mut self) {
        match self {
            PutLog::Data(runs) => runs.clear(),
            PutLog::Lens { count, records } => {
                *count = 0;
                records.clear();
            }
        }
    }

    /// Check every run against a segment of `size` doubles in log order and
    /// copy each into `out` where both hold data; the first run past the
    /// end is the error. Leaves the log empty either way.
    fn drain(&mut self, size: usize, mut out: Option<&mut [f64]>) -> Result<(), SimError> {
        let outcome = match self {
            PutLog::Data(runs) => runs.drain(..).try_for_each(|(offset, data)| {
                let len = data.len();
                check_put(offset, len, size)?;
                if let Some(out) = out.as_deref_mut() {
                    out[offset..offset + len].copy_from_slice(&data);
                }
                Ok(())
            }),
            PutLog::Lens { records, .. } => records
                .iter()
                .try_for_each(|&(offset, len)| check_put(offset, len, size)),
        };
        self.clear();
        outcome
    }
}

/// Keep a run as a record when it ends past the last record, which ends
/// past every run before it.
fn record(records: &mut Vec<(usize, usize)>, offset: usize, len: usize) {
    if records.last().is_none_or(|&(o, l)| offset + len > o + l) {
        records.push((offset, len));
    }
}

/// A put of `len` doubles to `offset` must end inside the segment.
fn check_put(offset: usize, len: usize, size: usize) -> Result<(), SimError> {
    if offset + len > size {
        return Err(SimError::OutOfBounds { offset, len, size });
    }
    Ok(())
}

/// What a DMA get reads: a main-memory segment's data or, on a cost-only
/// mesh, which copies nothing, only the segment's length in doubles.
#[derive(Clone, Copy, Debug)]
pub enum DmaSource<'a> {
    Data(&'a [f64]),
    Len(usize),
}

impl DmaSource<'_> {
    fn len(&self) -> usize {
        match self {
            DmaSource::Data(data) => data.len(),
            DmaSource::Len(len) => *len,
        }
    }
}

impl<'a> From<&'a [f64]> for DmaSource<'a> {
    fn from(data: &'a [f64]) -> Self {
        DmaSource::Data(data)
    }
}

impl<'a> From<&'a Vec<f64>> for DmaSource<'a> {
    fn from(data: &'a Vec<f64>) -> Self {
        DmaSource::Data(data)
    }
}

struct CpeNode<S> {
    row: usize,
    col: usize,
    ldm: Ldm,
    clock: u64,
    /// Cycle at which this CPE's DMA queue is free: outstanding requests
    /// from one CPE serialize (one transfer agent per CPE).
    dma_free: u64,
    /// Monotonic DMA request counter, keying fault-injection decisions so
    /// they are independent of thread scheduling.
    dma_seq: u64,
    /// Plain counters: each CPE has exactly one writer per superstep (the
    /// lane holding its `&mut CpeNode`) and is read only after the barrier.
    stats: CpeStats,
    row_inbox: VecDeque<Arc<[f64]>>,
    col_inbox: VecDeque<Arc<[f64]>>,
    /// What this CPE's program produced in the current superstep: bus
    /// messages to deliver, DMA puts to log, and how the program ended.
    /// Written by the one lane running the node, read and emptied by the
    /// seam (on the error path too); the buffers keep their capacity.
    out_msgs: Vec<OutMsg>,
    out_puts: PutLog,
    result: Result<(), SimError>,
    state: S,
}

/// Per-CPE execution context handed to superstep closures.
pub struct CpeCtx<'a> {
    pub row: usize,
    pub col: usize,
    ldm: &'a mut Ldm,
    clock: &'a mut u64,
    stats: &'a mut CpeStats,
    row_inbox: &'a mut VecDeque<Arc<[f64]>>,
    col_inbox: &'a mut VecDeque<Arc<[f64]>>,
    dma_free: &'a mut u64,
    dma_seq: &'a mut u64,
    dma: DmaEngine,
    fault: Option<FaultPlan>,
    cost_only: bool,
    block_hint: Option<usize>,
    out_msgs: &'a mut Vec<OutMsg>,
    out_puts: &'a mut PutLog,
    /// The first point-to-point send addressed outside the mesh: the
    /// program's result once it returns.
    send_error: Option<SimError>,
}

/// Cycles to receive one message header from a transfer buffer.
const GET_LATENCY: u64 = 4;

impl CpeCtx<'_> {
    /// Linear CPE id on this chip's mesh (`row * mesh_dim + col`).
    #[inline]
    pub fn id(&self) -> usize {
        self.row * self.dma.chip.mesh_dim + self.col
    }

    /// Current CPE-local cycle.
    #[inline]
    pub fn clock(&self) -> u64 {
        *self.clock
    }

    /// Allocate LDM. On a functional mesh the first allocation also backs
    /// the scratchpad; on a cost-only one allocation is bookkeeping only.
    pub fn ldm_alloc(&mut self, doubles: usize) -> Result<LdmBuf, SimError> {
        let buf = self.ldm.alloc(doubles)?;
        if !self.cost_only {
            self.ldm.back();
        }
        Ok(buf)
    }

    /// Read-only view of one LDM buffer. Not on a cost-only mesh, which
    /// holds no LDM.
    #[inline]
    pub fn ldm(&self, buf: LdmBuf) -> &[f64] {
        debug_assert!(
            !self.cost_only,
            "CpeCtx::ldm on a cost-only mesh, which holds no LDM to read"
        );
        self.ldm.buf(buf)
    }

    /// Mutable view of the whole scratchpad (for inner kernels spanning
    /// several disjoint buffers). Not on a cost-only mesh, which holds no
    /// LDM.
    #[inline]
    pub fn ldm_data_mut(&mut self) -> &mut [f64] {
        debug_assert!(
            !self.cost_only,
            "CpeCtx::ldm_data_mut on a cost-only mesh, which holds no LDM to write"
        );
        self.ldm.data_mut()
    }

    /// Whether this CPE runs on a cost-only mesh, which holds no LDM: a
    /// kernel skips its LDM arithmetic there and keeps its charges.
    #[inline]
    pub fn is_cost_only(&self) -> bool {
        self.cost_only
    }

    pub fn ldm_high_water(&self) -> usize {
        self.ldm.high_water_doubles()
    }

    /// Asynchronous DMA get of one contiguous run: copies
    /// `src[src_off .. src_off+len]` into `dst[dst_off ..]` and prices the
    /// transfer at block size `len * 8` bytes.
    pub fn dma_get<'s>(
        &mut self,
        dst: LdmBuf,
        dst_off: usize,
        src: impl Into<DmaSource<'s>>,
        src_off: usize,
        len: usize,
    ) -> Result<DmaHandle, SimError> {
        self.dma_get_strided(dst, dst_off, src, src_off, 1, 0, len)
    }

    /// Asynchronous strided DMA get: `runs` runs of `run_len` doubles,
    /// source stride `src_stride`, packed contiguously into the LDM buffer.
    /// One DMA request; the effective block size is the run length. A
    /// cost-only mesh copies nothing, so its source may be a length alone;
    /// a functional mesh's must be data.
    #[allow(clippy::too_many_arguments)]
    pub fn dma_get_strided<'s>(
        &mut self,
        dst: LdmBuf,
        dst_off: usize,
        src: impl Into<DmaSource<'s>>,
        src_off: usize,
        runs: usize,
        src_stride: usize,
        run_len: usize,
    ) -> Result<DmaHandle, SimError> {
        let src = src.into();
        let total = runs * run_len;
        if dst_off + total > dst.len {
            return Err(SimError::Program(format!(
                "DMA get writes {} doubles past LDM buffer of {}",
                dst_off + total,
                dst.len
            )));
        }
        let last = src_off + src_stride * runs.saturating_sub(1) + run_len;
        if last > src.len() {
            return Err(SimError::OutOfBounds {
                offset: src_off,
                len: last - src_off,
                size: src.len(),
            });
        }
        if !self.cost_only {
            let DmaSource::Data(src) = src else {
                return Err(SimError::Program(
                    "DMA get from a length alone on a functional mesh".into(),
                ));
            };
            let d = self.ldm.buf_mut(dst);
            for r in 0..runs {
                let s = src_off + r * src_stride;
                d[dst_off + r * run_len..dst_off + (r + 1) * run_len]
                    .copy_from_slice(&src[s..s + run_len]);
            }
        }
        let bytes = total * 8;
        let cycles = self.dma.cost_cycles(
            DmaDirection::Get,
            bytes,
            self.block_hint.take().unwrap_or(run_len * 8),
        );
        self.stats.dma_get_bytes += bytes as u64;
        self.stats.dma_requests += 1;
        self.enqueue_dma(cycles)
    }

    /// Price the *next* DMA request at `block_bytes` instead of its run
    /// length — models the SW26010's collective (row-mode) DMA, where the
    /// eight CPEs of a mesh row jointly fetch one contiguous region.
    pub fn dma_block_hint(&mut self, block_bytes: usize) {
        self.block_hint = Some(block_bytes);
    }

    /// Requests from one CPE serialize through its transfer agent.
    ///
    /// With an active [`FaultPlan`] this is also where injected DMA faults
    /// land: a stalled transfer takes longer, and a failed attempt is
    /// re-issued (paying the wasted transfer plus an exponential backoff)
    /// up to [`crate::fault::RetryPolicy::max_retries`] times. All of that
    /// time flows into `done_at`, so retries eat exactly the slack that
    /// double buffering would otherwise hide.
    fn enqueue_dma(&mut self, cycles: u64) -> Result<DmaHandle, SimError> {
        let mut total = cycles;
        if let Some(fp) = self.fault {
            let seq = *self.dma_seq;
            *self.dma_seq += 1;
            // Fault decisions key on the 8×8 position `row * 8 + col`, not
            // `id()`: `FaultPlan::dead_mask` is an 8×8 bitmask, and a 4×4
            // mesh keeps the decision stream it has always drawn.
            let id = self.row * crate::MESH_DIM + self.col;
            let stall = fp.dma_stall(id, seq);
            if stall > 0 {
                total += stall;
                self.stats.fault_stall_cycles += stall;
            }
            let mut attempt = 0u32;
            while fp.dma_attempt_fails(id, seq, attempt) {
                if attempt >= fp.retry.max_retries {
                    return Err(SimError::DmaFault {
                        row: self.row,
                        col: self.col,
                        attempts: attempt + 1,
                    });
                }
                let backoff = fp.retry.base_backoff_cycles << attempt;
                total += cycles + backoff;
                self.stats.dma_retries += 1;
                self.stats.fault_retry_cycles += cycles + backoff;
                attempt += 1;
            }
        }
        let start = (*self.clock).max(*self.dma_free);
        let done = start + total;
        *self.dma_free = done;
        Ok(DmaHandle { done_at: done })
    }

    /// Log one put run of `run_len` doubles from `src[at..]` to global offset
    /// `dst` (bounds already checked by the caller).
    fn log_put(&mut self, src: LdmBuf, at: usize, dst: usize, run_len: usize) {
        let ldm = &*self.ldm;
        self.out_puts
            .push(dst, run_len, || &ldm.buf(src)[at..at + run_len]);
    }

    /// Asynchronous strided DMA put: reads `runs * run_len` doubles
    /// contiguously from the LDM buffer and logs them for scatter into the
    /// global output at `dst_off + r * dst_stride`.
    #[allow(clippy::too_many_arguments)]
    pub fn dma_put_strided(
        &mut self,
        src: LdmBuf,
        src_off: usize,
        dst_off: usize,
        runs: usize,
        dst_stride: usize,
        run_len: usize,
    ) -> Result<DmaHandle, SimError> {
        let total = runs * run_len;
        if src_off + total > src.len {
            return Err(SimError::Program(format!(
                "DMA put reads {} doubles past LDM buffer of {}",
                src_off + total,
                src.len
            )));
        }
        for r in 0..runs {
            self.log_put(
                src,
                src_off + r * run_len,
                dst_off + r * dst_stride,
                run_len,
            );
        }
        let bytes = total * 8;
        let cycles = self.dma.cost_cycles(
            DmaDirection::Put,
            bytes,
            self.block_hint.take().unwrap_or(run_len * 8),
        );
        self.stats.dma_put_bytes += bytes as u64;
        self.stats.dma_requests += 1;
        self.enqueue_dma(cycles)
    }

    /// Fully general scatter put: `runs` runs of `run_len` doubles read
    /// from the LDM buffer at stride `src_stride` and written to the global
    /// segment at stride `dst_stride`.
    #[allow(clippy::too_many_arguments)]
    pub fn dma_put_scatter(
        &mut self,
        src: LdmBuf,
        src_off: usize,
        src_stride: usize,
        dst_off: usize,
        dst_stride: usize,
        runs: usize,
        run_len: usize,
    ) -> Result<DmaHandle, SimError> {
        let last = src_off + src_stride * runs.saturating_sub(1) + run_len;
        if last > src.len {
            return Err(SimError::Program(format!(
                "DMA scatter put reads {last} doubles past LDM buffer of {}",
                src.len
            )));
        }
        for r in 0..runs {
            self.log_put(
                src,
                src_off + r * src_stride,
                dst_off + r * dst_stride,
                run_len,
            );
        }
        let bytes = runs * run_len * 8;
        let cycles = self.dma.cost_cycles(
            DmaDirection::Put,
            bytes,
            self.block_hint.take().unwrap_or(run_len * 8),
        );
        self.stats.dma_put_bytes += bytes as u64;
        self.stats.dma_requests += 1;
        self.enqueue_dma(cycles)
    }

    /// Contiguous put.
    pub fn dma_put(
        &mut self,
        src: LdmBuf,
        src_off: usize,
        dst_off: usize,
        len: usize,
    ) -> Result<DmaHandle, SimError> {
        self.dma_put_strided(src, src_off, dst_off, 1, 0, len)
    }

    /// Block until a DMA transfer completes.
    pub fn dma_wait(&mut self, h: DmaHandle) {
        if h.done_at > *self.clock {
            let stall = h.done_at - *self.clock;
            self.stats.dma_stall_cycles += stall;
            *self.clock = h.done_at;
        }
    }

    /// Broadcast `data` to the other 7 CPEs on this row (`vldr`-style).
    /// Costs one P1 put per 256-bit vector. Copies `data` once; senders
    /// that already hold a shared payload should use
    /// [`Self::bcast_row_shared`] to skip even that copy.
    pub fn bcast_row(&mut self, data: &[f64]) {
        self.bcast_row_shared(Arc::from(data));
    }

    /// Broadcast `data` to the other 7 CPEs on this column (`vldc`-style).
    pub fn bcast_col(&mut self, data: &[f64]) {
        self.bcast_col_shared(Arc::from(data));
    }

    /// Zero-copy row broadcast of an already-shared payload.
    pub fn bcast_row_shared(&mut self, data: Arc<[f64]>) {
        self.charge_put(data.len());
        self.out_msgs.push(OutMsg {
            bus: Bus::Row,
            to: None,
            data,
        });
    }

    /// Zero-copy column broadcast of an already-shared payload.
    pub fn bcast_col_shared(&mut self, data: Arc<[f64]>) {
        self.charge_put(data.len());
        self.out_msgs.push(OutMsg {
            bus: Bus::Col,
            to: None,
            data,
        });
    }

    /// Point-to-point put along this row to column `to_col`.
    pub fn send_row(&mut self, to_col: usize, data: &[f64]) {
        self.send(Bus::Row, to_col, data);
    }

    /// Point-to-point put along this column to row `to_row`.
    pub fn send_col(&mut self, to_row: usize, data: &[f64]) {
        self.send(Bus::Col, to_row, data);
    }

    /// A put to position `to` along `bus`. A position outside this chip's
    /// mesh sends nothing and fails the superstep once the program returns.
    fn send(&mut self, bus: Bus, to: usize, data: &[f64]) {
        let dim = self.dma.chip.mesh_dim;
        if to >= dim {
            let msg = format!(
                "CPE({},{}) sends on the {bus:?} bus to position {to} of a {dim}-wide mesh",
                self.row, self.col
            );
            self.send_error.get_or_insert(SimError::Program(msg));
            return;
        }
        self.charge_put(data.len());
        self.out_msgs.push(OutMsg {
            bus,
            to: Some(to),
            data: Arc::from(data),
        });
    }

    #[inline]
    fn charge_put(&mut self, doubles: usize) {
        let vectors = doubles.div_ceil(4) as u64;
        self.stats.bus_vectors_sent += vectors;
        *self.clock += vectors; // one put per cycle on P1
    }

    #[inline]
    fn pop_inbox(&mut self, bus: Bus) -> Result<Arc<[f64]>, SimError> {
        let inbox = match bus {
            Bus::Row => &mut self.row_inbox,
            Bus::Col => &mut self.col_inbox,
        };
        let msg = inbox.pop_front().ok_or(SimError::EmptyInbox {
            row: self.row,
            col: self.col,
            bus,
        })?;
        self.charge_get(msg.len());
        Ok(msg)
    }

    /// Receive the oldest message from the row transfer buffer. Zero-copy:
    /// the returned slice is shared with the sender and the other receivers.
    pub fn recv_row(&mut self) -> Result<Arc<[f64]>, SimError> {
        self.pop_inbox(Bus::Row)
    }

    /// Receive the oldest message from the column transfer buffer.
    pub fn recv_col(&mut self) -> Result<Arc<[f64]>, SimError> {
        self.pop_inbox(Bus::Col)
    }

    #[inline]
    fn charge_get(&mut self, doubles: usize) {
        let vectors = doubles.div_ceil(4) as u64;
        self.stats.bus_vectors_received += vectors;
        *self.clock += vectors + GET_LATENCY;
    }

    /// Charge compute cycles (priced by the `sw-isa` kernel model).
    #[inline]
    pub fn charge_compute(&mut self, cycles: u64) {
        self.stats.compute_cycles += cycles;
        *self.clock += cycles;
    }

    /// Record floating-point work.
    #[inline]
    pub fn add_flops(&mut self, flops: u64) {
        self.stats.flops += flops;
    }

    /// Record LDM → register-file traffic of an inner kernel (Eq. 5
    /// accounting, priced by the `sw-isa` instruction model).
    #[inline]
    pub fn add_ldm_reg_bytes(&mut self, bytes: u64) {
        self.stats.ldm_reg_bytes += bytes;
    }

    /// Record instruction issue slots consumed on each pipeline.
    #[inline]
    pub fn add_issue_slots(&mut self, p0: u64, p1: u64) {
        self.stats.p0_issue_slots += p0;
        self.stats.p1_issue_slots += p1;
    }
}

/// What every CPE program of one batch sees the same, copied out of the mesh
/// so worker lanes hold no reference into it.
#[derive(Clone, Copy)]
struct StepCfg {
    dim: usize,
    dma: DmaEngine,
    fault: Option<FaultPlan>,
    cost_only: bool,
    sync_cycles: u64,
}

/// Execute one CPE's program for simulated superstep `step`: fault checks,
/// context construction, the program body. Messages, puts and the result
/// stay in the node for the seam. The one way a CPE program runs, on
/// either host schedule, so both charge identical cycles and key faults
/// identically.
fn run_node<S, F>(cfg: &StepCfg, node: &mut CpeNode<S>, f: &mut F, step: u64)
where
    F: FnMut(&mut CpeCtx<'_>, &mut S) -> Result<(), SimError>,
{
    if let Some(fp) = cfg.fault {
        if fp.cpe_dead(node.row, node.col) {
            node.result = Err(SimError::CpeOffline {
                row: node.row,
                col: node.col,
            });
            return;
        }
        // The 8×8 position, not `id()`, as in `CpeCtx::enqueue_dma`.
        let id = node.row * crate::MESH_DIM + node.col;
        let stall = fp.cpe_stall(id, step);
        if stall > 0 {
            node.clock += stall;
            node.stats.fault_stall_cycles += stall;
        }
    }
    let mut ctx = CpeCtx {
        row: node.row,
        col: node.col,
        ldm: &mut node.ldm,
        clock: &mut node.clock,
        stats: &mut node.stats,
        row_inbox: &mut node.row_inbox,
        col_inbox: &mut node.col_inbox,
        dma_free: &mut node.dma_free,
        dma_seq: &mut node.dma_seq,
        dma: cfg.dma,
        fault: cfg.fault,
        cost_only: cfg.cost_only,
        block_hint: None,
        out_msgs: &mut node.out_msgs,
        out_puts: &mut node.out_puts,
        send_error: None,
    };
    let ran = f(&mut ctx, &mut node.state);
    node.result = ctx.send_error.map_or(ran, Err);
}

/// The mesh state a superstep boundary updates besides the nodes.
struct Seam {
    put_log: PutLog,
    supersteps: u64,
    /// Mesh-global bus-delivery counter keying message-drop decisions.
    msg_deliveries: u64,
}

impl Seam {
    /// The superstep boundary, after every CPE program of the step has run:
    /// surface the first error deterministically, deliver bus messages in
    /// CPE-id order, log DMA puts, synchronize clocks to the barrier. Reads
    /// each node's outbox and leaves it empty — on the error path too, so a
    /// failed step delivers and logs nothing and the next step starts clean.
    fn finish<S>(&mut self, cfg: &StepCfg, cpes: &mut [CpeNode<S>]) -> Result<(), SimError> {
        // Lowest CPE id wins.
        if let Some(failed) = cpes.iter().position(|c| c.result.is_err()) {
            for c in cpes.iter_mut() {
                c.out_msgs.clear();
                c.out_puts.clear();
            }
            return std::mem::replace(&mut cpes[failed].result, Ok(()));
        }

        // Deliver messages in CPE-id order for determinism. Each delivery
        // bumps a mesh-global counter; with an active fault plan a delivery
        // may be dropped (the receiver's later recv then hits EmptyInbox).
        let dim = cfg.dim;
        for id in 0..cpes.len() {
            let (row, col) = (id / dim, id % dim);
            // Out of the node while receivers' inboxes are borrowed; handed
            // back empty, capacity kept.
            let mut msgs = std::mem::take(&mut cpes[id].out_msgs);
            for OutMsg { bus, to, data } in msgs.drain(..) {
                // Receiver `k` along the sender's bus is CPE `base + k·stride`;
                // a broadcast skips the sender's own position.
                let (own, base, stride) = match bus {
                    Bus::Row => (col, row * dim, 1),
                    Bus::Col => (row, col, dim),
                };
                let receivers = match to {
                    Some(k) => k..k + 1,
                    None => 0..dim,
                };
                for k in receivers {
                    if to.is_none() && k == own {
                        continue;
                    }
                    let target = base + k * stride;
                    let seq = self.msg_deliveries;
                    self.msg_deliveries += 1;
                    if let Some(fp) = cfg.fault {
                        if fp.msg_dropped(id, target, seq) {
                            cpes[id].stats.msgs_dropped += 1;
                            continue;
                        }
                    }
                    match bus {
                        Bus::Row => cpes[target].row_inbox.push_back(data.clone()),
                        Bus::Col => cpes[target].col_inbox.push_back(data.clone()),
                    }
                }
            }
            cpes[id].out_msgs = msgs;
            self.put_log.append(&mut cpes[id].out_puts);
        }

        // Barrier: clocks synchronize to the slowest CPE.
        let max_clock = cpes.iter().map(|c| c.clock).max().unwrap_or(0) + cfg.sync_cycles;
        for c in cpes {
            c.clock = max_clock;
        }
        self.supersteps += 1;
        Ok(())
    }

    /// One whole superstep on the calling thread: every CPE program in
    /// CPE-id order, then the boundary. `f` may borrow mutable host state.
    fn step_inline<S, F>(
        &mut self,
        cfg: &StepCfg,
        cpes: &mut [CpeNode<S>],
        mut f: F,
    ) -> Result<(), SimError>
    where
        F: FnMut(&mut CpeCtx<'_>, &mut S) -> Result<(), SimError>,
    {
        let step = self.supersteps;
        for node in cpes.iter_mut() {
            run_node(cfg, node, &mut f, step);
        }
        self.finish(cfg, cpes)
    }
}

/// The CPE nodes of one mesh, shared by address across the lanes of one
/// [`sw_runtime::ExecutionContext::run_stepped`] call. Both dereferences in
/// the batch runner rest on the same two properties of that call:
///
/// * **Single writer.** Slot `k` of a step touches only nodes
///   `k·chunk .. (k+1)·chunk`. Slots are disjoint and each is claimed by
///   exactly one lane, so within a step every node is reached from one
///   lane and from nowhere else.
/// * **Last finisher.** The seam of a step runs once, on the lane whose slot
///   finished last, after acquiring every other slot's release; the next
///   step is published only when the seam has returned. So the seam sees
///   every write of its step, nothing runs beside it, and it may hold the
///   whole slice `&mut`.
///
/// The address comes from a `&mut [CpeNode<S>]` the batch runner holds for
/// the whole call, and `run_stepped` returns only after every lane has left
/// it, so the pointer never outlives the nodes.
struct RawShare<T>(*mut T);
// SAFETY: the wrapper only carries an address between lanes; every
// dereference follows the protocol above, under which a node is reached from
// one lane at a time. That passes `T` itself from lane to lane — `T: Send`.
unsafe impl<T: Send> Send for RawShare<T> {}
// SAFETY: as for `Send` — sharing `&RawShare` shares the address, and the
// protocol, not the wrapper, serializes access to the nodes behind it.
unsafe impl<T: Send> Sync for RawShare<T> {}

impl<T> RawShare<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// The serial phase of a batch that has none (a single superstep).
type NoPhase<S> = fn(usize, &mut CpeCtx<'_>, &mut S) -> Result<(), SimError>;

/// A cost-only mesh's put logs while it lives — its nodes' `out_puts` and
/// its seam's `put_log`, counts and records — parked in the run context's
/// scratch arena between meshes, keyed by CPE count. The lease holds the
/// mesh's empty logs in their place until the mesh drops and swaps them
/// back.
struct PutBuffers {
    log: PutLog,
    outs: Vec<PutLog>,
}

impl PutBuffers {
    /// Exchange these buffers with the ones `seam` and `cpes` hold.
    fn swap<S>(&mut self, seam: &mut Seam, cpes: &mut [CpeNode<S>]) {
        std::mem::swap(&mut seam.put_log, &mut self.log);
        for (node, out) in cpes.iter_mut().zip(&mut self.outs) {
            std::mem::swap(&mut node.out_puts, out);
        }
    }
}

/// One core group's 8×8 mesh plus its DMA engine and put log.
pub struct Mesh<S> {
    pub chip: ChipSpec,
    /// The runtime context whose worker pool executes parallel supersteps.
    rt: &'static sw_runtime::ExecutionContext,
    dma: DmaEngine,
    cpes: Vec<CpeNode<S>>,
    seam: Seam,
    /// Cycle cost of each superstep barrier.
    pub sync_cycles: u64,
    fault: Option<FaultPlan>,
    cost_only: bool,
    /// On a cost-only mesh, the lease its put buffers came from.
    puts: Option<sw_runtime::ScratchLease<'static, PutBuffers>>,
}

impl<S: Send> Mesh<S> {
    /// Build a mesh whose CPE states come from `init(row, col)`, running
    /// its supersteps on the process-wide [`sw_runtime::global`] context.
    pub fn new(chip: ChipSpec, init: impl FnMut(usize, usize) -> S) -> Self {
        Self::new_on(sw_runtime::global(), chip, init)
    }

    /// [`Self::new`] pinned to a specific execution context.
    pub fn new_on(
        rt: &'static sw_runtime::ExecutionContext,
        chip: ChipSpec,
        mut init: impl FnMut(usize, usize) -> S,
    ) -> Self {
        let dim = chip.mesh_dim;
        let mut cpes = Vec::with_capacity(dim * dim);
        for row in 0..dim {
            for col in 0..dim {
                cpes.push(CpeNode {
                    row,
                    col,
                    ldm: Ldm::new(chip.ldm_bytes),
                    clock: 0,
                    dma_free: 0,
                    dma_seq: 0,
                    stats: CpeStats::default(),
                    row_inbox: VecDeque::new(),
                    col_inbox: VecDeque::new(),
                    out_msgs: Vec::new(),
                    out_puts: PutLog::new(false),
                    result: Ok(()),
                    state: init(row, col),
                });
            }
        }
        Self {
            chip,
            rt,
            dma: DmaEngine::new(chip),
            cpes,
            seam: Seam {
                put_log: PutLog::new(false),
                supersteps: 0,
                msg_deliveries: 0,
            },
            sync_cycles: 8,
            fault: None,
            cost_only: false,
            puts: None,
        }
    }

    /// Make this a cost-only mesh: it moves no operand data and holds no
    /// LDM. DMA gets copy nothing, DMA puts are counted and the ones that
    /// end past every earlier put are recorded as `(offset, len)`, into
    /// buffers leased from the run context, [`Self::superstep`]
    /// runs inline (there is no resident data to touch), and
    /// [`Self::price_rotation`] may apply a whole GEMM rotation in one step.
    /// Bounds checks, cycle charges, counters, DMA queueing, fault keys, LDM
    /// allocation, overflow and high water, and [`Self::drain_puts`] errors
    /// are those of the functional mesh; drained outputs are not meaningful,
    /// and a program must not read LDM ([`CpeCtx::ldm`] debug-asserts).
    pub fn cost_only(mut self) -> Self {
        let n = self.cpes.len();
        let mut puts = self.rt.scratch(n, || PutBuffers {
            log: PutLog::new(true),
            outs: (0..n).map(|_| PutLog::new(true)).collect(),
        });
        puts.swap(&mut self.seam, &mut self.cpes);
        self.puts = Some(puts);
        self.cost_only = true;
        self
    }

    /// Whether this mesh was built with [`Self::cost_only`]. Kernels that
    /// do host arithmetic on LDM contents between charges read this to
    /// skip it.
    pub fn is_cost_only(&self) -> bool {
        self.cost_only
    }

    /// The execution context this mesh's supersteps run on.
    pub fn runtime(&self) -> &'static sw_runtime::ExecutionContext {
        self.rt
    }

    /// Activate a fault-injection plan for all subsequent supersteps.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Run one superstep: `f` executes on all 64 CPEs, then messages are
    /// delivered and clocks synchronize. Whether the CPEs fan out over the
    /// context's worker pool or run inline is decided by the mesh's
    /// resident LDM (`64 × high-water` doubles — a DMA or clear superstep
    /// cannot touch more; a cost-only mesh touches none), see
    /// [`Self::superstep_with`].
    pub fn superstep<F>(&mut self, f: F) -> Result<(), SimError>
    where
        F: Fn(&mut CpeCtx<'_>, &mut S) -> Result<(), SimError> + Sync,
    {
        let resident = if self.cost_only {
            0
        } else {
            self.cpes.len() * self.ldm_high_water()
        };
        self.superstep_with(sw_runtime::Work::Doubles(resident as u64), f)
    }

    /// [`Self::superstep`] with an explicit estimate of the step's host
    /// work: a one-round batch with no serial phase. Below the runtime's
    /// grain for that kind of work ([`sw_runtime::lanes_for`]) the CPE
    /// programs run inline in CPE-id order; at or above it they fan out
    /// over the worker pool under one handoff. The choice is host mechanics
    /// only: each CPE's program sees the same node, step number and fault
    /// keys either way, and the seam is shared.
    pub fn superstep_with<F>(&mut self, work: sw_runtime::Work, f: F) -> Result<(), SimError>
    where
        F: Fn(&mut CpeCtx<'_>, &mut S) -> Result<(), SimError> + Sync,
    {
        self.run_batch(
            1,
            work,
            None::<&NoPhase<S>>,
            &|_, ctx: &mut CpeCtx<'_>, s: &mut S| f(ctx, s),
        )
    }

    /// Run a *batch* of `rounds` rounds — each a serial superstep (e.g.
    /// the pack/broadcast phase of a GEMM rotation, too short to be worth a
    /// fan-out) followed by a parallel superstep (the compute phase) —
    /// under ONE pool handoff, or under none when `round_work` (the host
    /// work of one round's parallel superstep) is below the runtime's grain
    /// ([`sw_runtime::lanes_for`]).
    ///
    /// Semantics are exactly those of `2·rounds` single supersteps in
    /// order: same per-CPE execution order, same fault keying (the
    /// simulated step number advances once per superstep), same message
    /// delivery and barrier, and the same abort point on error — the first
    /// failing superstep skips all remaining rounds and returns its
    /// lowest-CPE-id error. Simulated cycles, counters and outputs are
    /// bit-identical at every thread count and on either side of the grain;
    /// only the number of pool handoffs changes (0 below the grain, 1 per
    /// batch above it at ≥2 threads). On a cost-only mesh a rotation of
    /// this fixed shape can skip the batch: see [`Self::price_rotation`].
    pub fn superstep_rounds<FS, FP>(
        &mut self,
        rounds: usize,
        round_work: sw_runtime::Work,
        serial_f: &FS,
        parallel_f: &FP,
    ) -> Result<(), SimError>
    where
        FS: Fn(usize, &mut CpeCtx<'_>, &mut S) -> Result<(), SimError> + Sync,
        FP: Fn(usize, &mut CpeCtx<'_>, &mut S) -> Result<(), SimError> + Sync,
    {
        self.run_batch(rounds, round_work, Some(serial_f), parallel_f)
    }

    /// Apply a whole register-communication rotation (§V-A, Fig. 3) in one
    /// exact step: the `2·dim` supersteps in which, in round `r`, column `r`
    /// broadcasts an `a_len` block on the row buses and row `r` a `b_len`
    /// block on the column buses, then every CPE receives what it does not
    /// own and is charged `round` (one round's compute counters, its
    /// `compute_cycles` also on the clock). Clocks, counters and the
    /// superstep and delivery numbers that key later faults land where
    /// stepping the rotation would leave them.
    ///
    /// Returns `false`, changing nothing, unless the mesh is cost-only, its
    /// fault plan cannot touch a superstep without DMA
    /// ([`FaultPlan::touches_dma_free_steps`]) and every transfer buffer is
    /// empty; the caller then steps the rotation.
    pub fn price_rotation(&mut self, a_len: usize, b_len: usize, round: &CpeStats) -> bool {
        let drained = |c: &CpeNode<S>| c.row_inbox.is_empty() && c.col_inbox.is_empty();
        if !self.cost_only
            || self.fault.is_some_and(|fp| fp.touches_dma_free_steps())
            || !self.cpes.iter().all(drained)
        {
            return false;
        }
        let dim = self.chip.mesh_dim as u64;
        let (va, vb) = (a_len.div_ceil(4) as u64, b_len.div_ceil(4) as u64);
        let sync = self.sync_cycles;
        // Round 0's pack barrier, from the current (possibly unequal) clocks:
        // column 0 puts A, row 0 puts B.
        let first = self
            .cpes
            .iter()
            .map(|c| c.clock + va * u64::from(c.col == 0) + vb * u64::from(c.row == 0))
            .max()
            .unwrap_or(0)
            + sync;
        // From there every barrier waits on the same CPE: in a compute
        // phase one that receives both blocks, in a later pack phase CPE
        // (r, r), which puts both.
        let receive = (va + vb + 2 * GET_LATENCY) * u64::from(dim > 1);
        let compute = receive + round.compute_cycles + sync;
        let clock = first + dim * compute + (dim - 1) * (va + vb + sync);
        for c in &mut self.cpes {
            c.clock = clock;
            c.stats = c.stats.combine(round, |total, once| total + dim * once);
            c.stats.bus_vectors_sent += va + vb;
            c.stats.bus_vectors_received += (dim - 1) * (va + vb);
        }
        self.seam.supersteps += 2 * dim;
        self.seam.msg_deliveries += 2 * dim * dim * (dim - 1);
        true
    }

    fn cfg(&self) -> StepCfg {
        StepCfg {
            dim: self.chip.mesh_dim,
            dma: self.dma,
            fault: self.fault,
            cost_only: self.cost_only,
            sync_cycles: self.sync_cycles,
        }
    }

    /// The one superstep runner. A batch is `rounds` rounds of an optional
    /// serial superstep followed by a parallel one; `lanes_for` picks one of
    /// two host schedules for the whole batch:
    ///
    /// * **inline** — every superstep runs on the caller, CPEs in id order;
    /// * **stepped** — the parallel supersteps are the steps of one
    ///   `run_stepped` call, chunked over the lanes. Round 0's serial
    ///   superstep runs inline before the handoff; every later one runs
    ///   inside the seam of the preceding parallel step, so its broadcasts
    ///   are in the inboxes before any lane claims the next step and the
    ///   lanes never idle through a one-slot step.
    ///
    /// Simulated superstep numbering is the same on both: with a serial
    /// phase, round `r` is supersteps `base + 2r` and `base + 2r + 1`.
    fn run_batch<FS, FP>(
        &mut self,
        rounds: usize,
        round_work: sw_runtime::Work,
        serial_f: Option<&FS>,
        parallel_f: &FP,
    ) -> Result<(), SimError>
    where
        FS: Fn(usize, &mut CpeCtx<'_>, &mut S) -> Result<(), SimError> + Sync,
        FP: Fn(usize, &mut CpeCtx<'_>, &mut S) -> Result<(), SimError> + Sync,
    {
        if rounds == 0 {
            return Ok(());
        }
        let cfg = self.cfg();
        let rt = self.rt;
        let (cpes, seam) = (&mut self.cpes[..], &mut self.seam);
        let n = cpes.len();
        let lanes = sw_runtime::lanes_for(n, round_work);
        if lanes <= 1 {
            for r in 0..rounds {
                if let Some(sf) = serial_f {
                    seam.step_inline(&cfg, cpes, |ctx, s| sf(r, ctx, s))?;
                }
                seam.step_inline(&cfg, cpes, |ctx, s| parallel_f(r, ctx, s))?;
            }
            return Ok(());
        }

        if let Some(sf) = serial_f {
            seam.step_inline(&cfg, cpes, |ctx, s| sf(0, ctx, s))?;
        }
        // Round `r`'s parallel superstep is simulated step `first + stride·r`.
        let first = seam.supersteps;
        let stride = 1 + u64::from(serial_f.is_some());
        // Chunk boundaries are a pure function of `(n, lanes)`; results are
        // per-CPE, so they affect nothing observable.
        let chunk = n.div_ceil(lanes);
        let slots = n.div_ceil(chunk);
        let nodes = RawShare(cpes.as_mut_ptr());
        // The seam is `Fn + Sync` but runs one lane at a time: the lock is
        // never contended, it only makes the exclusive access checkable.
        let seam_and_outcome = Mutex::new((seam, Ok(())));

        rt.run_stepped(
            rounds,
            |_| slots,
            |r, slot| {
                let step = first + stride * r as u64;
                for i in slot * chunk..((slot + 1) * chunk).min(n) {
                    // SAFETY: single writer (see `RawShare`) — `i` lies in
                    // this slot's range and below `n`.
                    let node = unsafe { &mut *nodes.get().add(i) };
                    run_node(
                        &cfg,
                        node,
                        &mut |ctx: &mut CpeCtx<'_>, s: &mut S| parallel_f(r, ctx, s),
                        step,
                    );
                }
            },
            |r| {
                let mut guard = seam_and_outcome
                    .lock()
                    .expect("a panicking seam aborts the batch before anyone locks again");
                let (seam, outcome) = &mut *guard;
                // SAFETY: last finisher (see `RawShare`) — every slot of
                // step `r` is done and no other step has been published.
                let cpes = unsafe { std::slice::from_raw_parts_mut(nodes.get(), n) };
                *outcome = seam.finish(&cfg, cpes).and_then(|()| match serial_f {
                    Some(sf) if r + 1 < rounds => {
                        seam.step_inline(&cfg, cpes, |ctx, s| sf(r + 1, ctx, s))
                    }
                    _ => Ok(()),
                });
                outcome.is_ok()
            },
        );

        let (_, outcome) = seam_and_outcome
            .into_inner()
            .expect("run_stepped resumes a seam panic before returning");
        outcome
    }

    /// Apply all logged DMA puts to the global output segment `out`, in the
    /// order they were logged; the first put ending past `out` is the
    /// error. A cost-only mesh logged no data: it only checks.
    pub fn drain_puts(&mut self, out: &mut [f64]) -> Result<(), SimError> {
        self.seam.put_log.drain(out.len(), Some(out))
    }

    /// [`Self::drain_puts`] against an output segment of `size` doubles that
    /// is not there: every put is checked, none applied. How a cost-only
    /// walk, which holds no output, ends.
    pub fn check_puts(&mut self, size: usize) -> Result<(), SimError> {
        self.seam.put_log.drain(size, None)
    }

    /// Number of logged-but-undrained puts.
    pub fn pending_puts(&self) -> usize {
        self.seam.put_log.len()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> CgStats {
        let mut totals = CpeStats::default();
        for c in &self.cpes {
            totals.add(&c.stats);
        }
        CgStats {
            cycles: self.cpes.iter().map(|c| c.clock).max().unwrap_or(0),
            totals,
            ldm_high_water_doubles: self.ldm_high_water() as u64,
        }
    }

    /// Peak LDM usage across the mesh, in doubles.
    pub fn ldm_high_water(&self) -> usize {
        self.cpes
            .iter()
            .map(|c| c.ldm.high_water_doubles())
            .max()
            .unwrap_or(0)
    }

    /// Supersteps executed.
    pub fn supersteps(&self) -> u64 {
        self.seam.supersteps
    }

    /// Per-CPE `(row, col, clock, counters)` snapshot, in CPE-id order.
    /// Determinism tests use this to assert that every individual CPE —
    /// not just the aggregate — lands on identical cycles and traffic
    /// regardless of host thread count.
    pub fn cpe_snapshots(&self) -> Vec<(usize, usize, u64, CpeStats)> {
        self.cpes
            .iter()
            .map(|c| (c.row, c.col, c.clock, c.stats))
            .collect()
    }

    /// Every CPE's program state, in CPE-id order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.cpes.iter().map(|c| &c.state)
    }

    /// Check that every transfer buffer has been drained (catches plans
    /// that broadcast more than they receive).
    pub fn assert_inboxes_empty(&self) -> Result<(), SimError> {
        for c in &self.cpes {
            if !c.row_inbox.is_empty() {
                return Err(SimError::Program(format!(
                    "CPE({},{}) finished with {} unread row messages",
                    c.row,
                    c.col,
                    c.row_inbox.len()
                )));
            }
            if !c.col_inbox.is_empty() {
                return Err(SimError::Program(format!(
                    "CPE({},{}) finished with {} unread col messages",
                    c.row,
                    c.col,
                    c.col_inbox.len()
                )));
            }
        }
        Ok(())
    }
}

impl<S> Drop for Mesh<S> {
    /// A cost-only mesh returns its put buffers to the arena emptied, on
    /// the error path too: whatever a walk left undrained is dropped here.
    fn drop(&mut self) {
        if let Some(mut puts) = self.puts.take() {
            self.seam.put_log.clear();
            for node in &mut self.cpes {
                node.out_puts.clear();
            }
            puts.swap(&mut self.seam, &mut self.cpes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_runtime::Work;

    fn mesh() -> Mesh<u64> {
        Mesh::new(ChipSpec::sw26010(), |r, c| (r * 8 + c) as u64)
    }

    /// One single superstep on the inline schedule, whatever its size: the
    /// plain loop the batch tests compare `superstep_rounds` against.
    fn step_inline<S: Send>(
        m: &mut Mesh<S>,
        f: impl FnMut(&mut CpeCtx<'_>, &mut S) -> Result<(), SimError>,
    ) -> Result<(), SimError> {
        let cfg = m.cfg();
        m.seam.step_inline(&cfg, &mut m.cpes, f)
    }

    #[test]
    fn mesh_has_64_cpes_with_coords() {
        let mut m = mesh();
        m.superstep(|ctx, s| {
            assert_eq!(ctx.id() as u64, *s);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn dma_round_trip_moves_data_and_time() {
        let mut m = mesh();
        let src: Vec<f64> = (0..1024).map(|i| i as f64).collect();
        let mut out = vec![0.0; 1024];
        m.superstep(|ctx, _| {
            let buf = ctx.ldm_alloc(16)?;
            let base = ctx.id() * 16;
            let h = ctx.dma_get(buf, 0, &src, base, 16)?;
            ctx.dma_wait(h);
            assert_eq!(ctx.ldm(buf)[0], base as f64);
            let h = ctx.dma_put(buf, 0, base, 16)?;
            ctx.dma_wait(h);
            Ok(())
        })
        .unwrap();
        m.drain_puts(&mut out).unwrap();
        assert_eq!(out, src);
        let st = m.stats();
        assert!(st.cycles > 0);
        assert_eq!(st.totals.dma_get_bytes, 64 * 16 * 8);
        assert_eq!(st.totals.dma_put_bytes, 64 * 16 * 8);
    }

    #[test]
    fn strided_get_packs_runs() {
        let mut m = mesh();
        let src: Vec<f64> = (0..100).map(|i| i as f64).collect();
        m.superstep(|ctx, _| {
            if ctx.id() != 0 {
                return Ok(());
            }
            let buf = ctx.ldm_alloc(6)?;
            // 3 runs of 2, stride 10, from offset 5: [5,6, 15,16, 25,26]
            let h = ctx.dma_get_strided(buf, 0, &src, 5, 3, 10, 2)?;
            ctx.dma_wait(h);
            assert_eq!(ctx.ldm(buf), &[5.0, 6.0, 15.0, 16.0, 25.0, 26.0]);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn bus_messages_arrive_next_superstep() {
        let mut m = mesh();
        m.superstep(|ctx, _| {
            if ctx.col == 0 {
                ctx.bcast_row(&[ctx.row as f64; 4]);
            }
            Ok(())
        })
        .unwrap();
        m.superstep(|ctx, _| {
            if ctx.col != 0 {
                let msg = ctx.recv_row()?;
                assert_eq!(&msg[..], &[ctx.row as f64; 4]);
            }
            Ok(())
        })
        .unwrap();
        m.assert_inboxes_empty().unwrap();
    }

    #[test]
    fn recv_before_send_is_a_deadlock_error() {
        let mut m = mesh();
        let err = m
            .superstep(|ctx, _| {
                ctx.recv_col()?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, SimError::EmptyInbox { bus: Bus::Col, .. }));
    }

    #[test]
    fn targeted_send_reaches_only_target() {
        let mut m = mesh();
        m.superstep(|ctx, _| {
            if ctx.row == 0 && ctx.col == 0 {
                ctx.send_row(3, &[42.0; 4]);
                ctx.send_col(5, &[7.0; 4]);
            }
            Ok(())
        })
        .unwrap();
        m.superstep(|ctx, _| {
            if ctx.row == 0 && ctx.col == 3 {
                assert_eq!(ctx.recv_row()?[0], 42.0);
            } else if ctx.row == 5 && ctx.col == 0 {
                assert_eq!(ctx.recv_col()?[0], 7.0);
            }
            Ok(())
        })
        .unwrap();
        m.assert_inboxes_empty().unwrap();
    }

    #[test]
    fn ids_on_a_4x4_mesh_are_0_to_16_once_each() {
        let chip = ChipSpec {
            mesh_dim: 4,
            cpes_per_cg: 16,
            ..ChipSpec::sw26010()
        };
        let mut m: Mesh<usize> = Mesh::new(chip, |_, _| usize::MAX);
        m.superstep(|ctx, s| {
            *s = ctx.id();
            Ok(())
        })
        .unwrap();
        let mut ids: Vec<usize> = m.states().copied().collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn a_send_outside_a_4x4_mesh_fails_the_superstep() {
        // On the degraded 4×4 chip, position 5 of a bus is off the mesh:
        // from CPE(0,0) a row send used to land in CPE(1,1)'s row inbox, and
        // from CPE(3,0) index past the last node.
        let chip = ChipSpec {
            mesh_dim: 4,
            cpes_per_cg: 16,
            ..ChipSpec::sw26010()
        };
        for (row, col) in [(0, 0), (3, 0)] {
            let mut m: Mesh<()> = Mesh::new(chip, |_, _| ());
            let err = m
                .superstep(|ctx, _| {
                    if (ctx.row, ctx.col) == (row, col) {
                        ctx.send_row(5, &[1.0; 4]);
                    }
                    if ctx.row == 3 && ctx.col == 3 {
                        ctx.send_col(4, &[2.0; 4]);
                    }
                    ctx.send_col(0, &[3.0; 4]);
                    Ok(())
                })
                .unwrap_err();
            let SimError::Program(msg) = err else {
                panic!("CPE({row},{col}): {err:?}")
            };
            assert!(msg.starts_with(&format!("CPE({row},{col}) sends")), "{msg}");
            m.assert_inboxes_empty().unwrap();
            assert_eq!(m.supersteps(), 0, "a failed step is not counted");
        }
    }

    #[test]
    fn clocks_synchronize_to_slowest() {
        let mut m = mesh();
        m.superstep(|ctx, _| {
            if ctx.id() == 13 {
                ctx.charge_compute(1000);
            }
            Ok(())
        })
        .unwrap();
        let base = m.stats().cycles;
        assert!(base >= 1000);
        // Everyone advanced to the barrier.
        m.superstep(|ctx, _| {
            assert!(ctx.clock() >= 1000);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn ldm_overflow_surfaces_as_error() {
        // A cost-only mesh holds no LDM but allocates over the same
        // capacity: it overflows at the same request with the same
        // accounting and reports the same high water, on either chip. In
        // the second step even CPEs fit and odd ones overflow; CPE 1's
        // error is the step's.
        let full = ChipSpec::sw26010();
        let quarter = ChipSpec {
            mesh_dim: 4,
            cpes_per_cg: 16,
            ..full
        };
        for (chip, high_water) in [(full, 1064 + 7100), (quarter, 1016 + 7100)] {
            let run = |cost_only: bool| {
                let mut m: Mesh<()> = Mesh::new(chip, |_, _| ());
                if cost_only {
                    m = m.cost_only();
                }
                m.superstep(|ctx, _| ctx.ldm_alloc(1000 + ctx.id()).map(drop))
                    .unwrap();
                let err = m
                    .superstep(|ctx, _| ctx.ldm_alloc(7100 + ctx.id() % 2 * 200).map(drop))
                    .unwrap_err();
                (err, m.ldm_high_water(), m.stats().ldm_high_water_doubles)
            };
            let overflow = LdmOverflow {
                requested_doubles: 7300,
                used_doubles: 1004,
                capacity_doubles: 8192,
            };
            let dim = chip.mesh_dim;
            let expect = (SimError::Ldm(overflow), high_water, high_water as u64);
            assert_eq!(run(false), expect, "functional {dim}×{dim}");
            assert_eq!(run(true), expect, "cost-only {dim}×{dim}");
        }
    }

    #[test]
    fn a_cost_only_mesh_returns_its_put_buffers_emptied() {
        // A mesh dropped mid-walk, after a failed step, with puts logged and
        // undrained: the next cost-only mesh on the same context starts
        // with no pending put but with the grown record buffers. Every CPE
        // puts the same 16 rising runs, so CPE 0's are the seam's records.
        let rt: &'static sw_runtime::ExecutionContext =
            Box::leak(Box::new(sw_runtime::ExecutionContext::new()));
        let puts = |ctx: &mut CpeCtx<'_>, _: &mut ()| {
            let buf = ctx.ldm_alloc(64)?;
            ctx.dma_put_strided(buf, 0, 0, 16, 8, 4).map(drop)
        };
        let build = || Mesh::<()>::new_on(rt, ChipSpec::sw26010(), |_, _| ()).cost_only();
        let mut m = build();
        m.superstep(puts).unwrap();
        let err = m.superstep(|ctx, s| {
            puts(ctx, s)?;
            Err(SimError::Program(format!("CPE {} fails", ctx.id())))
        });
        assert_eq!(err, Err(SimError::Program("CPE 0 fails".into())));
        assert_eq!(m.pending_puts(), 64 * 16);
        drop(m);
        let m = build();
        assert_eq!(m.pending_puts(), 0);
        let records = |log: &PutLog| match log {
            PutLog::Lens { count, records } => (*count, records.len(), records.capacity()),
            PutLog::Data(_) => panic!("a cost-only mesh logs lengths"),
        };
        let (count, held, capacity) = records(&m.seam.put_log);
        assert_eq!((count, held), (0, 0));
        assert!(capacity >= 16, "seam records capacity {capacity}");
        assert!(m.cpes.iter().all(|c| {
            let (count, held, capacity) = records(&c.out_puts);
            count == 0 && held == 0 && capacity >= 16
        }));
    }

    #[test]
    fn out_of_bounds_put_is_caught_at_drain() {
        let mut m = mesh();
        m.superstep(|ctx, _| {
            if ctx.id() == 0 {
                let buf = ctx.ldm_alloc(4)?;
                ctx.dma_put(buf, 0, 100, 4)?;
            }
            Ok(())
        })
        .unwrap();
        let mut out = vec![0.0; 10];
        assert!(matches!(
            m.drain_puts(&mut out),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn injected_dma_failures_retry_and_cost_cycles() {
        use crate::fault::FaultPlan;
        let src = vec![1.0; 64 * 256];
        let run = |fault: Option<FaultPlan>| {
            let mut m: Mesh<()> = Mesh::new(ChipSpec::sw26010(), |_, _| ());
            if let Some(fp) = fault {
                m.inject_faults(fp);
            }
            for _ in 0..16 {
                m.superstep(|ctx, _| {
                    let buf = ctx.ldm_alloc(256)?;
                    let h = ctx.dma_get(buf, 0, &src, ctx.id() * 256, 256)?;
                    ctx.dma_wait(h);
                    Ok(())
                })
                .unwrap();
            }
            m.stats()
        };
        let clean = run(None);
        // 16 supersteps × 64 CPEs: a 2% per-attempt rate makes >0 retries
        // overwhelmingly likely, and with max_retries=4 a full exhaustion
        // (p ≈ 0.02^5) essentially impossible.
        let faulty = run(Some(FaultPlan::none(1234).with_dma_fail_rate(0.02)));
        assert!(faulty.totals.dma_retries > 0, "no retries injected");
        assert!(faulty.totals.fault_retry_cycles > 0);
        assert!(faulty.cycles > clean.cycles, "retries must consume cycles");
        assert_eq!(faulty.totals.dma_get_bytes, clean.totals.dma_get_bytes);
        // Determinism: the same plan replays the identical outcome.
        let replay = run(Some(FaultPlan::none(1234).with_dma_fail_rate(0.02)));
        assert_eq!(replay.cycles, faulty.cycles);
        assert_eq!(replay.totals.dma_retries, faulty.totals.dma_retries);
    }

    #[test]
    fn exhausted_dma_retries_surface_as_fault_error() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let mut m = mesh();
        m.inject_faults(
            FaultPlan::none(7)
                .with_dma_fail_rate(1.0)
                .with_retry(RetryPolicy {
                    max_retries: 2,
                    base_backoff_cycles: 16,
                }),
        );
        let src = vec![0.0; 64];
        let err = m
            .superstep(|ctx, _| {
                let buf = ctx.ldm_alloc(1)?;
                ctx.dma_get(buf, 0, &src, ctx.id(), 1)?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, SimError::DmaFault { attempts: 3, .. }));
        assert!(err.is_transient());
    }

    #[test]
    fn dead_cpe_reports_offline_deterministically() {
        use crate::fault::FaultPlan;
        let mut m = mesh();
        m.inject_faults(FaultPlan::none(0).with_dead_cpe(3, 5));
        let err = m.superstep(|_, _| Ok(())).unwrap_err();
        assert_eq!(err, SimError::CpeOffline { row: 3, col: 5 });
        assert!(!err.is_transient());
    }

    #[test]
    fn dropped_broadcast_becomes_empty_inbox() {
        use crate::fault::FaultPlan;
        let mut m = mesh();
        // Drop everything: every receiver must then deadlock on recv.
        m.inject_faults(FaultPlan::none(3).with_msg_drop_rate(1.0));
        m.superstep(|ctx, _| {
            if ctx.col == 0 {
                ctx.bcast_row(&[1.0; 4]);
            }
            Ok(())
        })
        .unwrap();
        assert!(m.stats().totals.msgs_dropped > 0);
        let err = m
            .superstep(|ctx, _| {
                if ctx.col != 0 {
                    ctx.recv_row()?;
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, SimError::EmptyInbox { bus: Bus::Row, .. }));
    }

    #[test]
    fn cpe_stalls_slow_the_mesh_without_changing_results() {
        use crate::fault::FaultPlan;
        let src = vec![2.0; 64 * 32];
        let run = |fault: Option<FaultPlan>| {
            let mut m: Mesh<Vec<f64>> = Mesh::new(ChipSpec::sw26010(), |_, _| Vec::new());
            if let Some(fp) = fault {
                m.inject_faults(fp);
            }
            for _ in 0..8 {
                m.superstep(|ctx, s| {
                    let buf = ctx.ldm_alloc(32)?;
                    let h = ctx.dma_get(buf, 0, &src, ctx.id() * 32, 32)?;
                    ctx.dma_wait(h);
                    s.push(ctx.ldm(buf).iter().sum());
                    Ok(())
                })
                .unwrap();
            }
            m
        };
        let clean = run(None);
        let faulty = run(Some(FaultPlan::none(5).with_cpe_stalls(0.2, 5_000)));
        assert!(faulty.stats().totals.fault_stall_cycles > 0);
        assert!(faulty.stats().cycles > clean.stats().cycles);
        for (a, b) in clean.cpes.iter().zip(faulty.cpes.iter()) {
            assert_eq!(a.state, b.state, "stalls must not change data");
        }
    }

    #[test]
    fn fused_rounds_are_bit_identical_to_unfused_loop() {
        // A 6-round broadcast/compute rotation run both ways, at several
        // thread counts: per-CPE clocks, counters, states, put logs and
        // the superstep count must match exactly; only handoffs differ.
        let serial_phase = |r: usize, ctx: &mut CpeCtx<'_>, _s: &mut Vec<f64>| {
            if ctx.col == r {
                ctx.bcast_row(&[r as f64, ctx.row as f64, 3.0, 4.0]);
            }
            Ok(())
        };
        let parallel_phase = |r: usize, ctx: &mut CpeCtx<'_>, s: &mut Vec<f64>| {
            if ctx.col != r {
                let msg = ctx.recv_row()?;
                s.push(msg[0] + msg[1]);
            }
            ctx.charge_compute(10 + ctx.id() as u64);
            let buf = ctx.ldm_alloc(2)?;
            ctx.dma_put(buf, 0, ctx.id() * 2, 2)?;
            Ok(())
        };
        // A private context: the handoff-count assertion below must not
        // race other tests posting jobs to the global pool.
        let rt: &'static sw_runtime::ExecutionContext =
            Box::leak(Box::new(sw_runtime::ExecutionContext::new()));
        let build = || Mesh::<Vec<f64>>::new_on(rt, ChipSpec::sw26010(), |_, _| Vec::new());
        // Both sides of the grain: a round too small to repay a step
        // barrier runs inline (no handoff at any lane count), one above it
        // crosses the pool exactly once per batch.
        let (small, large) = (Work::Macs(1 << 10), Work::Macs(1 << 20));
        for threads in [1, 2, 4, 8] {
            for work in [small, large] {
                sw_runtime::with_threads(threads, || {
                    let mut unfused = build();
                    for r in 0..6 {
                        step_inline(&mut unfused, |ctx, s| serial_phase(r, ctx, s)).unwrap();
                        unfused
                            .superstep_with(work, |ctx, s| parallel_phase(r, ctx, s))
                            .unwrap();
                    }
                    let mut fused = build();
                    let before = fused.runtime().pool_handoffs();
                    fused
                        .superstep_rounds(6, work, &serial_phase, &parallel_phase)
                        .unwrap();
                    let fused_handoffs = fused.runtime().pool_handoffs() - before;
                    assert_eq!(fused.supersteps(), unfused.supersteps());
                    assert_eq!(fused.cpe_snapshots(), unfused.cpe_snapshots());
                    assert_eq!(
                        fused.seam.put_log, unfused.seam.put_log,
                        "threads = {threads}"
                    );
                    for (a, b) in fused.cpes.iter().zip(unfused.cpes.iter()) {
                        assert_eq!(a.state, b.state);
                    }
                    let expect = u64::from(threads > 1 && work == large);
                    assert_eq!(
                        fused_handoffs, expect,
                        "{work:?} @ {threads} threads: one handoff per batch above the grain, none below"
                    );
                });
            }
        }
    }

    #[test]
    fn fused_rounds_abort_on_error_like_the_unfused_loop() {
        let serial_phase = |r: usize, ctx: &mut CpeCtx<'_>, _s: &mut u64| {
            if ctx.col == r {
                ctx.bcast_row(&[1.0; 4]);
            }
            Ok(())
        };
        let parallel_phase = |r: usize, ctx: &mut CpeCtx<'_>, s: &mut u64| {
            if r == 2 && ctx.id() == 9 {
                return Err(SimError::Program("round 2 blows up".into()));
            }
            if ctx.col != r {
                ctx.recv_row()?;
            }
            *s += 1;
            Ok(())
        };
        let run = |fused: bool, work: Work| {
            let mut m = Mesh::<u64>::new(ChipSpec::sw26010(), |_, _| 0);
            let err = if fused {
                m.superstep_rounds(6, work, &serial_phase, &parallel_phase)
                    .unwrap_err()
            } else {
                (|| {
                    for r in 0..6 {
                        step_inline(&mut m, |ctx, s| serial_phase(r, ctx, s))?;
                        m.superstep_with(work, |ctx, s| parallel_phase(r, ctx, s))?;
                    }
                    Ok(())
                })()
                .unwrap_err()
            };
            (m.supersteps(), err)
        };
        for threads in [1, 4] {
            // Inline (below the grain) and on the pool (above it).
            for work in [Work::Macs(1 << 10), Work::Macs(1 << 20)] {
                sw_runtime::with_threads(threads, || {
                    let (fused_steps, fused_err) = run(true, work);
                    let (unfused_steps, unfused_err) = run(false, work);
                    assert_eq!(fused_err, unfused_err, "{work:?} @ {threads} threads");
                    assert_eq!(fused_steps, unfused_steps, "abort point matches");
                });
            }
        }
    }

    #[test]
    fn failed_superstep_delivers_nothing_and_leaves_no_residue() {
        // Node-owned outboxes outlive the superstep that filled them, so a
        // step that fails after other CPEs have broadcast and issued puts
        // must still deliver and log nothing — and must not leak those
        // messages or puts into the next superstep on the same mesh.
        let inbox_lens = |m: &Mesh<u64>| -> Vec<(usize, usize)> {
            m.cpes
                .iter()
                .map(|c| (c.row_inbox.len(), c.col_inbox.len()))
                .collect()
        };
        for threads in [1, 4] {
            for work in [Work::Doubles(1 << 10), Work::Doubles(1 << 20)] {
                sw_runtime::with_threads(threads, || {
                    let mut m = mesh();
                    // Something already in flight: one unread column
                    // message per CPE off row 0, and 64 logged puts.
                    m.superstep_with(work, |ctx, _| {
                        if ctx.row == 0 {
                            ctx.bcast_col(&[ctx.col as f64; 4]);
                        }
                        let buf = ctx.ldm_alloc(4)?;
                        ctx.dma_put(buf, 0, ctx.id() * 4, 4)?;
                        Ok(())
                    })
                    .unwrap();
                    let (inboxes, puts, steps) = (inbox_lens(&m), m.pending_puts(), m.supersteps());
                    assert_eq!(puts, 64);

                    let err = m
                        .superstep_with(work, |ctx, _| {
                            ctx.bcast_row(&[666.0; 4]);
                            ctx.send_col(7 - ctx.row, &[666.0; 4]);
                            let buf = ctx.ldm_alloc(4)?;
                            ctx.dma_put(buf, 0, 0, 4)?;
                            if ctx.id() == 40 || ctx.id() == 9 {
                                return Err(SimError::Program(format!("CPE {} fails", ctx.id())));
                            }
                            Ok(())
                        })
                        .unwrap_err();
                    let ctx = format!("{work:?} @ {threads} threads");
                    assert_eq!(err, SimError::Program("CPE 9 fails".into()), "{ctx}");
                    assert_eq!(m.pending_puts(), puts, "{ctx}");
                    assert_eq!(inbox_lens(&m), inboxes, "{ctx}");
                    assert_eq!(m.supersteps(), steps, "a failed step is not counted");

                    // The next superstep delivers its own messages only.
                    m.superstep_with(work, |ctx, _| {
                        if ctx.row != 0 {
                            assert_eq!(&ctx.recv_col()?[..], &[ctx.col as f64; 4]);
                        }
                        if ctx.col == 0 {
                            ctx.bcast_row(&[ctx.row as f64; 4]);
                        }
                        Ok(())
                    })
                    .unwrap();
                    assert_eq!(m.pending_puts(), puts, "{ctx}");
                    m.superstep_with(work, |ctx, _| {
                        if ctx.col != 0 {
                            assert_eq!(&ctx.recv_row()?[..], &[ctx.row as f64; 4]);
                        }
                        Ok(())
                    })
                    .unwrap();
                    m.assert_inboxes_empty().unwrap();
                });
            }
        }
    }

    #[test]
    fn double_buffering_hides_dma_latency() {
        // Two plans moving identical data: one waits for each DMA before
        // computing, one overlaps the next get with current compute. The
        // overlap must be strictly faster.
        let src = vec![1.0; 64 * 512];
        let compute_per_tile = 4000u64;
        let tiles = 8usize;

        let run = |overlap: bool| -> u64 {
            let mut m: Mesh<()> = Mesh::new(ChipSpec::sw26010(), |_, _| ());
            m.superstep(|ctx, _| {
                let bufs = [ctx.ldm_alloc(512)?, ctx.ldm_alloc(512)?];
                if overlap {
                    let mut pending = ctx.dma_get(bufs[0], 0, &src, 0, 512)?;
                    for t in 0..tiles {
                        let cur = pending;
                        if t + 1 < tiles {
                            pending = ctx.dma_get(bufs[(t + 1) % 2], 0, &src, 0, 512)?;
                        }
                        ctx.dma_wait(cur);
                        ctx.charge_compute(compute_per_tile);
                    }
                } else {
                    for t in 0..tiles {
                        let h = ctx.dma_get(bufs[t % 2], 0, &src, 0, 512)?;
                        ctx.dma_wait(h);
                        ctx.charge_compute(compute_per_tile);
                    }
                }
                Ok(())
            })
            .unwrap();
            m.stats().cycles
        };

        let serial = run(false);
        let overlapped = run(true);
        assert!(
            overlapped < serial,
            "overlap {overlapped} !< serial {serial}"
        );
    }
}
