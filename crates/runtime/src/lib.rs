//! The persistent runtime layer: a worker pool spawned once per
//! [`ExecutionContext`] and reused by every parallel region in the
//! workspace — mesh supersteps, multi-CG fan-outs, bench sweeps — instead
//! of paying a fresh scoped-thread spawn per superstep.
//!
//! # Handoff protocol
//!
//! Work arrives as a *job*: a closure plus a number of `slots` (the
//! deterministic chunks of the old `shims/rayon` partitioning —
//! `chunk = n.div_ceil(threads)`, chunks in index order). The posting
//! thread pushes the job onto a queue guarded by one mutex, wakes the
//! workers through a condvar, and then participates itself: caller and
//! workers race to claim slot indices from an atomic counter until the
//! job is exhausted. The caller blocks until every claimed slot has
//! *finished* (not merely been claimed), so the job's closure — borrowed
//! from the caller's stack — provably outlives all uses.
//!
//! # Determinism
//!
//! The pool changes *who* runs a slot, never *what* the slots are: slot
//! boundaries depend only on the item count and the effective thread
//! count, and results are written into slot-indexed positions of the
//! output, so a [`ExecutionContext::map_index_affine`] over the same input is
//! bit-identical regardless of which worker executed which slot, in which
//! order, on how many cores. The simulator additionally synchronizes all
//! simulated clocks at superstep barriers, so simulated time is
//! independent of the host schedule entirely; the golden-digest suite
//! (`tests/determinism.rs`) pins both properties at thread counts 1, 4,
//! and 8.
//!
//! # Panics
//!
//! A panic in a slot is caught, held until every other slot of that job
//! has finished, and then resumed on the posting thread — matching
//! `std::thread::scope` semantics. The pool itself is never poisoned: no
//! lock is held across user code, and workers survive to serve the next
//! job.

use std::any::{Any, TypeId};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// Thread-count policy
// ---------------------------------------------------------------------------

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// The pool lane this thread represents: worker `w` is lane `w + 1`,
    /// the posting thread is lane 0 (represented as `None` so posts from
    /// arbitrary threads behave identically). Used by [`ExecutionContext::
    /// run_affine`] to keep slot `i` on the same OS thread across calls.
    static WORKER_LANE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Run `f` with every parallel region on this thread using exactly
/// `threads` lanes (still capped by the item count). Subsumes the old
/// `rayon::with_max_threads`: determinism tests pin the fan-out to 1, 4,
/// 8, … and assert identical simulation results. Note that unlike a plain
/// cap this *raises* the lane count on single-core hosts, so the
/// schedules being compared are genuinely different. Restores the
/// previous override on exit, including across panics.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "thread count must be positive");
    let prev = THREAD_OVERRIDE.with(|c| c.replace(Some(threads)));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// The active [`with_threads`] override on this thread, if any.
pub fn current_override() -> Option<usize> {
    THREAD_OVERRIDE.with(|c| c.get())
}

/// The `SWDNN_THREADS` environment override, read once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SWDNN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
}

/// The lane count parallel regions on this thread will use, resolved from
/// (in priority order) the [`with_threads`] override, the `SWDNN_THREADS`
/// environment variable, and the machine's `available_parallelism`.
fn effective_threads() -> usize {
    current_override()
        .or_else(env_threads)
        .unwrap_or_else(machine_threads)
}

// ---------------------------------------------------------------------------
// Grain: is a step worth crossing the pool?
// ---------------------------------------------------------------------------

/// A deterministic estimate of the host work in ONE parallel step (one
/// superstep, or one round of a fused batch), summed over all its items and
/// known before the step runs. The unit names the kind of work so each kind
/// is held against its own calibrated grain in [`lanes_for`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Work {
    /// Multiply-accumulates the step executes (a GEMM rotation round:
    /// `dim²·m8·n8·k8`).
    Macs(u64),
    /// Doubles the step can touch at most — for a mesh superstep the
    /// resident LDM, `64 × high-water` (DMA copies move no more than that).
    Doubles(u64),
}

/// Steps below this many MACs run inline.
///
/// Calibration (2-vCPU reference box, `SWDNN_THREADS=2`, benchmark probes):
/// back to back with both lanes spinning a handoff is
/// `runtime.handoff_us` ≈ 1.7 µs and a fused step
/// `runtime.stepped_step_us` ≈ 0.85 µs, but between real supersteps the
/// lanes park, and `plans.gemm_call_us` — one 8-round rotation of 1 024
/// MACs/step — is ≈ 275 µs on the pool against ≈ 95 µs inline: ≈ 22 µs of
/// pool cost per step, ≈ 12 µs once the rounds are large enough to keep the
/// lanes awake. Inline the tiled microkernel retires ≈ 12 MAC/ns, so a step
/// of `m` MACs offers `p` ideal lanes at most `m·(1 − 1/p)/12` ns: about
/// 3·10⁵ MACs to break even at two lanes, 1.7·10⁵ at eight. 2¹⁷ is just
/// under the many-lane figure — below it no lane count repays the step
/// barrier; above it the fused path is left exactly as it was (on this box,
/// whose two vCPUs speed a rotation up by < 1.1×, the measured crossover is
/// nearer 2·10⁶). Every training-sized rotation (512–12 288 MACs/step)
/// falls below, every Table III rotation (≥ 786 432) above.
const MAC_GRAIN: u64 = 1 << 17;

/// Supersteps whose resident LDM is below this many doubles run inline.
///
/// Calibration (same box): a superstep of 64 strided DMA gets touching a
/// third of the resident LDM costs, inline vs pooled, 4.6 vs 19.7 µs at
/// 1 536 resident doubles, 8.4 vs 24.0 at 49 152, 13.9 vs 30.5 at 98 304,
/// 25.4 vs 57.8 at 196 608 and 86 vs 73 at 393 216 — ≈ 15 µs to cross the
/// pool, which `p` ideal lanes repay once the inline step exceeds
/// `15·p/(p − 1)` µs: ≈ 2·10⁵ resident doubles at two lanes, ≈ 1.3·10⁵ at
/// eight. 2¹⁷ is that many-lane bound. Training-sized tiles hold at most
/// 45 312 doubles, the Table III tiles at least 159 744.
const DOUBLES_GRAIN: u64 = 1 << 17;

/// How many lanes a step of `items` items and estimated `work` should fan
/// out over: 1 (run inline on the caller) when the estimate is under the
/// grain for its kind, otherwise the effective lane count (the
/// [`with_threads`] override, else `SWDNN_THREADS`, else the machine's
/// parallelism) capped by `items`. A pure function of `items`, `work` and
/// that lane count, so whether a
/// region crosses the pool — and hence every handoff count — depends on
/// the problem's shape and the lane count, never on timing.
pub fn lanes_for(items: usize, work: Work) -> usize {
    let worth_it = match work {
        Work::Macs(m) => m >= MAC_GRAIN,
        Work::Doubles(d) => d >= DOUBLES_GRAIN,
    };
    if worth_it {
        lanes(items)
    } else {
        1
    }
}

/// How many lanes a region of `items` independent items fans out over:
/// the effective lane count (the [`with_threads`] override, else
/// `SWDNN_THREADS`, else the machine's parallelism) capped by `items`,
/// and at least one. What [`ExecutionContext::run`] uses for `items`
/// slots.
pub fn lanes(items: usize) -> usize {
    effective_threads().min(items.max(1))
}

/// Human-readable description of the resolved thread policy, for bench
/// banners (so a snapshot's host numbers can be tied to the lane count
/// that produced them).
pub fn thread_policy() -> String {
    if let Some(n) = current_override() {
        format!("{n} (with_threads override)")
    } else if let Some(n) = env_threads() {
        format!("{n} (SWDNN_THREADS)")
    } else {
        format!("{} (available_parallelism)", machine_threads())
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// One parallel region in flight. The closure pointer is lifetime-erased;
/// safety rests on the posting thread keeping the closure alive until
/// `wait` observes every slot finished.
struct Job {
    /// The user closure, called once per slot index.
    task: *const (dyn Fn(usize) + Sync),
    /// Total slots; claimed from `next_slot` until exhausted.
    slots: usize,
    next_slot: AtomicUsize,
    /// Slots not yet *finished* (claimed-and-returned). Guards `done`.
    unfinished: Mutex<usize>,
    done: Condvar,
    /// First (lowest-slot) captured panic, resumed by the poster.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

// SAFETY: every field but `task` is `Send`. The raw closure pointer is only
// dereferenced between job post and the poster's `wait` returning, during
// which the closure is kept alive by the posting stack frame, so moving the
// `Job` (inside its `Arc`) to a worker moves no ownership of the closure.
unsafe impl Send for Job {}
// SAFETY: every field but `task` is `Sync` (atomics, mutexes, a condvar).
// `task` points at a closure created under a `Sync` bound (`run` takes
// `impl Fn(usize) + Sync`), so calling it from several workers at once is
// what its type already permits.
unsafe impl Sync for Job {}

impl Job {
    fn exhausted(&self) -> bool {
        self.next_slot.load(Ordering::Relaxed) >= self.slots
    }

    /// Claim and run slots until none remain. Called by workers and by
    /// the posting thread alike.
    fn run_slots(&self) {
        loop {
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
            if slot >= self.slots {
                return;
            }
            // SAFETY: see the struct-level invariant — the poster keeps
            // the closure alive until every slot has finished.
            let task = unsafe { &*self.task };
            let outcome = catch_unwind(AssertUnwindSafe(|| task(slot)));
            if let Err(payload) = outcome {
                let mut held = self.panic.lock().unwrap();
                // Keep the lowest-slot panic so the propagated payload is
                // deterministic when several slots blow up at once.
                match &*held {
                    Some((lowest, _)) if *lowest <= slot => {}
                    _ => *held = Some((slot, payload)),
                }
            }
            let mut left = self.unfinished.lock().unwrap();
            *left -= 1;
            if *left == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Block until every slot has finished running.
    fn wait(&self) {
        let mut left = self.unfinished.lock().unwrap();
        while *left > 0 {
            left = self.done.wait(left).unwrap();
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

struct PoolState {
    queue: VecDeque<Arc<Job>>,
    shutdown: bool,
    spawned: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers: a job was posted, or shutdown began.
    work: Condvar,
}

fn worker_loop(shared: Arc<PoolShared>, lane: usize) {
    WORKER_LANE.with(|c| c.set(Some(lane)));
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                // Exhausted jobs linger at the front until someone looks;
                // drop them so their Arc (and closure pointer) is released
                // promptly.
                while st.queue.front().is_some_and(|j| j.exhausted()) {
                    st.queue.pop_front();
                }
                if let Some(j) = st.queue.front() {
                    break Arc::clone(j);
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        job.run_slots();
    }
}

/// Scratch arena key: one pool of parked values per (type, caller key).
type ScratchKey = (TypeId, usize);

/// A persistent worker pool plus the policies and arenas every layer of
/// the stack shares: thread-count resolution ([`with_threads`], then
/// `SWDNN_THREADS`) and
/// reusable host-side scratch (e.g. the GEMM pack arenas), keyed so
/// concurrent leases get distinct instances.
///
/// One context is meant to be shared process-wide ([`global`]); the
/// simulator, executor, serving engine, and benches all thread a
/// `&'static ExecutionContext` through their layers. Dropping a
/// (non-global) context shuts the pool down and joins every worker.
pub struct ExecutionContext {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    scratch: Mutex<HashMap<ScratchKey, Vec<Box<dyn Any + Send>>>>,
    /// Jobs actually posted to the worker queue (parallel regions only;
    /// inline serial regions are free and not counted). The currency of
    /// the superstep tax: each handoff pays a condvar wake plus a join
    /// barrier, so fused paths are judged by how few of these they issue.
    pool_handoffs: AtomicU64,
}

impl Default for ExecutionContext {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ExecutionContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spawned = self.shared.state.lock().unwrap().spawned;
        f.debug_struct("ExecutionContext")
            .field("workers", &spawned)
            .field("effective_threads", &effective_threads())
            .finish()
    }
}

/// The process-wide context. Never dropped; its workers live for the
/// process. Everything that does not explicitly receive a context uses
/// this one.
pub fn global() -> &'static ExecutionContext {
    static GLOBAL: OnceLock<ExecutionContext> = OnceLock::new();
    GLOBAL.get_or_init(ExecutionContext::new)
}

impl ExecutionContext {
    /// A context with no workers yet; workers spawn lazily on the first
    /// parallel region that wants them.
    pub fn new() -> Self {
        ExecutionContext {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    shutdown: false,
                    spawned: 0,
                }),
                work: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
            scratch: Mutex::new(HashMap::new()),
            pool_handoffs: AtomicU64::new(0),
        }
    }

    /// Total jobs posted to the worker queue since this context was
    /// created. Monotone; callers measure a region by delta. Zero when
    /// every region so far ran inline (effective thread count 1).
    pub fn pool_handoffs(&self) -> u64 {
        self.pool_handoffs.load(Ordering::Relaxed)
    }

    /// Spawn workers up to `target` (the posting thread is lane 0, so a
    /// `t`-lane region wants `t - 1` workers).
    fn ensure_workers(&self, target: usize) {
        let mut new_handles = Vec::new();
        {
            let mut st = self.shared.state.lock().unwrap();
            while st.spawned < target {
                let shared = Arc::clone(&self.shared);
                let name = format!("sw-runtime-{}", st.spawned);
                let lane = st.spawned + 1;
                let handle = std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(shared, lane))
                    .expect("spawn sw-runtime worker");
                new_handles.push(handle);
                st.spawned += 1;
            }
        }
        if !new_handles.is_empty() {
            self.handles.lock().unwrap().extend(new_handles);
        }
    }

    /// Spawn the workers the current thread policy calls for, so the
    /// first measured superstep does not pay thread-creation cost. Benches
    /// call this before their timed region.
    pub fn prewarm(&self) {
        let t = effective_threads();
        if t > 1 {
            self.ensure_workers(t - 1);
        }
    }

    /// Workers currently spawned (not necessarily busy).
    #[cfg(test)]
    fn workers(&self) -> usize {
        self.shared.state.lock().unwrap().spawned
    }

    /// Run `f(slot)` for every `slot in 0..slots` across the pool, blocking
    /// until all slots finish. With an effective thread count of one the
    /// slots run inline on the caller — the fast path on single-core hosts
    /// and under `with_threads(1)`. Panics in any slot are re-raised here
    /// after the region completes (lowest slot wins); the pool survives.
    pub fn run(&self, slots: usize, f: impl Fn(usize) + Sync) {
        if slots == 0 {
            return;
        }
        let threads = lanes(slots);
        if threads <= 1 {
            for s in 0..slots {
                f(s);
            }
            return;
        }
        self.ensure_workers(threads - 1);
        let local: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: erasing the closure's lifetime is sound because this
        // frame owns `f` and does not return until `job.wait()` has
        // observed every slot finished.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(local) };
        let job = Arc::new(Job {
            task: erased,
            slots,
            next_slot: AtomicUsize::new(0),
            unfinished: Mutex::new(slots),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            st.queue.push_back(Arc::clone(&job));
        }
        self.pool_handoffs.fetch_add(1, Ordering::Relaxed);
        self.shared.work.notify_all();
        job.run_slots();
        job.wait();
        // The workers' lazy front-of-queue cleanup usually removes the
        // exhausted job; make sure it is gone before the closure dies.
        {
            let mut st = self.shared.state.lock().unwrap();
            st.queue.retain(|j| !Arc::ptr_eq(j, &job));
        }
        let held = job.panic.lock().unwrap().take();
        if let Some((_, payload)) = held {
            resume_unwind(payload);
        }
    }

    /// Run `f(slot, i)` for every index `i` of every slot's `items(slot)`,
    /// one slot per [`ExecutionContext::run`] slot. Each slot takes its
    /// indices in ascending order and stops at its first error. Returns
    /// the `n` values in index order, or the error of the lowest failing
    /// index, whichever lane ran what and in whatever order they finished.
    ///
    /// Run to the end, the slots' `items` must name every index in `0..n`
    /// exactly once; they may draw them from one shared counter. Since a
    /// slot stops only at an error, an index that no slot ran lies above
    /// a failing one, whose error the gather returns first.
    pub fn gather_by_index<T, E, I>(
        &self,
        n: usize,
        slots: usize,
        items: impl Fn(usize) -> I + Sync,
        f: impl Fn(usize, usize) -> Result<T, E> + Sync,
    ) -> Result<Vec<T>, E>
    where
        T: Send + Sync,
        E: Send + Sync,
        I: IntoIterator<Item = usize>,
    {
        let done: Vec<OnceLock<Result<T, E>>> = (0..n).map(|_| OnceLock::new()).collect();
        self.run(slots, |slot| {
            for i in items(slot) {
                if done[i].get_or_init(|| f(slot, i)).is_err() {
                    break;
                }
            }
        });
        done.into_iter()
            .map(|d| d.into_inner().expect("every index is named by one slot"))
            .collect()
    }

    /// Run `steps` *dependent* parallel regions under ONE pool handoff.
    ///
    /// Step `k` fans out over `slots_for(k)` slots, each running
    /// `work(k, slot)`. When the last slot of a step finishes, the lane
    /// that finished it runs `seam(k)` exactly once — with every write of
    /// step `k` visible — and its return value decides whether the
    /// remaining steps run (`false` aborts the call). All lanes then move
    /// to step `k + 1` without returning to the pool queue, so the condvar
    /// wake + join barrier is paid once per call instead of once per step.
    ///
    /// Slot boundaries, seam order, and the work each slot performs are a
    /// pure function of `(steps, slots_for, effective_threads())` — which
    /// lane runs which slot varies, but nothing observable does. With an
    /// effective thread count of one the whole schedule runs inline in the
    /// identical order (step-major, slots ascending, seam after each).
    ///
    /// `slots_for(k)` must be at least 1 for every step. A panic in `work`
    /// or `seam` aborts the remaining steps and is resumed on the caller.
    pub fn run_stepped(
        &self,
        steps: usize,
        slots_for: impl Fn(usize) -> usize + Sync,
        work: impl Fn(usize, usize) + Sync,
        seam: impl Fn(usize) -> bool + Sync,
    ) {
        if steps == 0 {
            return;
        }
        let max_slots = (0..steps).map(&slots_for).max().unwrap_or(1);
        assert!(
            (0..steps).all(|k| slots_for(k) >= 1),
            "run_stepped requires at least one slot per step"
        );
        let threads = lanes(max_slots);
        if threads <= 1 {
            for step in 0..steps {
                for slot in 0..slots_for(step) {
                    work(step, slot);
                }
                if !seam(step) {
                    return;
                }
            }
            return;
        }

        // One packed word drives the whole schedule: the high 32 bits hold
        // the current step, the low 32 a claim counter that restarts at
        // zero when the step advances. Lanes `fetch_add` tickets; a ticket
        // whose claim lands below the step's slot count runs that slot, a
        // ticket above it ("overclaim") means every slot of the step is
        // already claimed and the lane waits for the seam to advance the
        // step. The advance `store` wipes the low word, so stale tickets
        // from the old step decode as overclaims and are harmless (ABA
        // safe: claims never carry across steps).
        struct Ctl {
            packed: AtomicU64,
            /// Slots of the current step not yet finished; the lane that
            /// decrements this to zero owns the seam.
            unfinished: AtomicUsize,
            park: Mutex<()>,
            advance: Condvar,
            /// First captured panic; once set, remaining steps are skipped.
            panic: Mutex<Option<Box<dyn Any + Send>>>,
            aborted: AtomicBool,
        }
        let ctl = Ctl {
            packed: AtomicU64::new(0),
            unfinished: AtomicUsize::new(slots_for(0)),
            park: Mutex::new(()),
            advance: Condvar::new(),
            panic: Mutex::new(None),
            aborted: AtomicBool::new(false),
        };
        // When the lane count exceeds the machine's cores
        // (`with_threads`/`SWDNN_THREADS` oversubscription) an overclaimed
        // lane can neither spin usefully (it steals cycles from the lane
        // holding the work) nor park productively (it will wake, claim
        // nothing, and park again every step). Such lanes leave the
        // schedule instead: slot claims are dynamic, and the last finisher
        // of each step carries on to the next, so the remaining lanes —
        // in the limit, one — drive every step to completion with
        // identical results and near-serial scheduling overhead.
        let oversubscribed = threads > machine_threads();
        let capture = |payload: Box<dyn Any + Send>| {
            let mut held = ctl.panic.lock().unwrap();
            if held.is_none() {
                *held = Some(payload);
            }
            ctl.aborted.store(true, Ordering::Release);
        };

        self.run(threads, |_| loop {
            let ticket = ctl.packed.fetch_add(1, Ordering::AcqRel);
            let step = (ticket >> 32) as usize;
            let claim = (ticket & 0xffff_ffff) as usize;
            if step >= steps {
                return;
            }
            if claim < slots_for(step) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| work(step, claim))) {
                    capture(payload);
                }
                if ctl.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                    // Last finisher of the step: run the seam, decide the
                    // next step, publish it, wake parked lanes. Acquire on
                    // the decrement above makes every slot's writes
                    // visible here; Release on the stores below makes the
                    // seam's writes visible to whoever claims next.
                    let cont = if ctl.aborted.load(Ordering::Acquire) {
                        false
                    } else {
                        match catch_unwind(AssertUnwindSafe(|| seam(step))) {
                            Ok(c) => c,
                            Err(payload) => {
                                capture(payload);
                                false
                            }
                        }
                    };
                    let next = if cont { step + 1 } else { steps };
                    if next < steps {
                        ctl.unfinished.store(slots_for(next), Ordering::Release);
                    }
                    ctl.packed.store((next as u64) << 32, Ordering::Release);
                    // Taking the park lock before notifying closes the
                    // missed-wakeup window against lanes between their
                    // re-check and their `wait`.
                    let _g = ctl.park.lock().unwrap();
                    ctl.advance.notify_all();
                }
            } else {
                if oversubscribed {
                    return;
                }
                // Overclaim: spin briefly (seams are short), then park.
                let mut spins = 0u32;
                while (ctl.packed.load(Ordering::Acquire) >> 32) as usize == step {
                    spins += 1;
                    if spins < 16_384 {
                        std::hint::spin_loop();
                    } else {
                        let g = ctl.park.lock().unwrap();
                        if (ctl.packed.load(Ordering::Acquire) >> 32) as usize == step {
                            drop(ctl.advance.wait(g).unwrap());
                        }
                    }
                }
            }
        });

        let held = ctl.panic.lock().unwrap().take();
        if let Some(payload) = held {
            resume_unwind(payload);
        }
    }

    /// [`Self::run`] with per-lane slot affinity: slot `i` prefers the OS
    /// thread that is pool lane `i`, so state a slot touches every call
    /// (e.g. one CG's simulation arrays in the serve dispatcher) stays on
    /// one thread's cache instead of migrating between requests. Falls
    /// back to any unclaimed slot when the preferred one is taken; by
    /// pigeonhole (one claim per invocation) every slot runs exactly once.
    /// Purely a scheduling hint — observable results are identical to
    /// [`Self::run`].
    fn run_affine(&self, slots: usize, f: impl Fn(usize) + Sync) {
        if slots == 0 {
            return;
        }
        let threads = lanes(slots);
        if threads <= 1 {
            for s in 0..slots {
                f(s);
            }
            return;
        }
        let taken: Vec<AtomicBool> = (0..slots).map(|_| AtomicBool::new(false)).collect();
        self.run(slots, |_| {
            let pref = WORKER_LANE.with(|c| c.get()).unwrap_or(0) % slots;
            let slot = (0..slots)
                .map(|i| (pref + i) % slots)
                .find(|&i| !taken[i].swap(true, Ordering::AcqRel))
                .expect("pigeonhole: an unclaimed slot always exists");
            f(slot);
        });
    }

    /// `(0..n).map(f)` across the pool, results in index order. Chunking
    /// is the deterministic static partition the old rayon shim used:
    /// `chunk = n.div_ceil(threads)`, chunks in order — so the slot
    /// boundaries (and therefore everything observable) depend only on
    /// `n` and the effective thread count, never on scheduling. Chunk `i`
    /// prefers pool lane `i` across calls.
    pub fn map_index_affine<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let threads = lanes(n);
        if threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let chunk = n.div_ceil(threads);
        let slots = n.div_ceil(chunk);
        let mut out: Vec<R> = Vec::with_capacity(n);
        let base = SendPtr(out.as_mut_ptr());
        self.run_affine(slots, |slot| {
            let lo = slot * chunk;
            let hi = ((slot + 1) * chunk).min(n);
            for i in lo..hi {
                // SAFETY: slots cover disjoint index ranges and each index
                // is written exactly once, into capacity reserved above.
                unsafe { base.get().add(i).write(f(i)) };
            }
        });
        // SAFETY: `run_affine` returns only after every slot finished, so
        // all `n` elements are initialized. (On a panic it unwinds first
        // and the written elements leak — safe, and only on the panic path.)
        unsafe { out.set_len(n) };
        out
    }

    /// Consume `items`, mapping `f(index, item)` across the pool; results
    /// in index order. Backs the rayon façade's single-pass `collect`.
    pub fn map_vec<I, R, F>(&self, items: Vec<I>, f: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(usize, I) -> R + Sync,
    {
        let n = items.len();
        let threads = lanes(n);
        if threads <= 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }
        let mut items = items;
        let src = SendPtr(items.as_mut_ptr());
        // The elements now belong to the slots: each is moved out exactly
        // once by `ptr::read`. Emptying the Vec first keeps its Drop from
        // double-freeing them; on a panic the unread tail leaks (safe).
        // SAFETY: 0 <= capacity, and no element is left for the Vec to
        // drop: all `n` now belong to the slots below.
        unsafe { items.set_len(0) };
        let out = self.map_index_affine(n, |i| {
            // SAFETY: each index read exactly once, see above.
            let item = unsafe { src.get().add(i).read() };
            f(i, item)
        });
        drop(items);
        out
    }

    /// Lease a reusable scratch value of type `T` under `key` (e.g. the
    /// mesh dimension for GEMM pack arenas). A parked value from an
    /// earlier lease with the same `(T, key)` is handed back if one is
    /// free, else `init` builds a fresh one; concurrent leases therefore
    /// always get distinct instances. The value returns to the arena when
    /// the lease drops.
    pub fn scratch<T, F>(&self, key: usize, init: F) -> ScratchLease<'_, T>
    where
        T: Send + 'static,
        F: FnOnce() -> T,
    {
        let parked = self
            .scratch
            .lock()
            .unwrap()
            .get_mut(&(TypeId::of::<T>(), key))
            .and_then(Vec::pop);
        let value = match parked {
            Some(boxed) => boxed
                .downcast::<T>()
                .expect("scratch arena keyed by TypeId"),
            None => Box::new(init()),
        };
        ScratchLease {
            ctx: self,
            key,
            value: Some(value),
        }
    }
}

impl Drop for ExecutionContext {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.get_mut().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// A leased scratch value; dereferences to `T` and returns the value to
/// the context's arena on drop (even when dropped during unwinding).
pub struct ScratchLease<'a, T: Send + 'static> {
    ctx: &'a ExecutionContext,
    key: usize,
    value: Option<Box<T>>,
}

impl<T: Send + 'static> Deref for ScratchLease<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.value.as_ref().expect("leased value present")
    }
}

impl<T: Send + 'static> DerefMut for ScratchLease<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.value.as_mut().expect("leased value present")
    }
}

impl<T: Send + 'static> Drop for ScratchLease<'_, T> {
    fn drop(&mut self) {
        if let Some(boxed) = self.value.take() {
            self.ctx
                .scratch
                .lock()
                .unwrap()
                .entry((TypeId::of::<T>(), self.key))
                .or_default()
                .push(boxed as Box<dyn Any + Send>);
        }
    }
}

// ---------------------------------------------------------------------------
// Broadcast payload pool
// ---------------------------------------------------------------------------

/// A free-list of `Arc<[f64]>` broadcast payloads keyed by length.
///
/// The mesh bus hands `Arc<[f64]>` payloads to every receiver; once all
/// receivers drop their clones the allocation is dead. Allocating a fresh
/// `Arc` per broadcast made the allocator a contended hot path across
/// lanes. Instead, broadcasters park their previous payload here when
/// they replace it and lease it back on the next broadcast:
/// [`PayloadPool::lease_from`] returns a parked buffer of the right length
/// whose refcount has dropped back to one (refilled with the new bytes via
/// `copy_from_slice`, so contents are bit-identical to a fresh
/// `Arc::from`), or falls back to a fresh allocation.
///
/// Buffers still referenced by in-flight receivers stay in the list and
/// are skipped (the `Arc::get_mut` probe fails); they become leasable as
/// soon as the last receiver drops. In a steady rotation every broadcast
/// after warmup reuses — the counters make that assertable in tests.
#[derive(Default)]
pub struct PayloadPool {
    free: HashMap<usize, Vec<Arc<[f64]>>>,
    fresh_allocs: u64,
    reuses: u64,
}

impl PayloadPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// An `Arc` with the contents of `data`: a recycled buffer when one of
    /// the right length is free (no other `Arc` clones alive), else fresh.
    pub fn lease_from(&mut self, data: &[f64]) -> Arc<[f64]> {
        if let Some(list) = self.free.get_mut(&data.len()) {
            if let Some(pos) = list.iter_mut().position(|a| Arc::get_mut(a).is_some()) {
                let mut arc = list.swap_remove(pos);
                Arc::get_mut(&mut arc)
                    .expect("probed unique above")
                    .copy_from_slice(data);
                self.reuses += 1;
                return arc;
            }
        }
        self.fresh_allocs += 1;
        Arc::from(data)
    }

    /// Park a payload for future leases. Safe to call while receivers
    /// still hold clones — it stays parked until it is the last reference.
    pub fn recycle(&mut self, arc: Arc<[f64]>) {
        self.free.entry(arc.len()).or_default().push(arc);
    }

    /// Payloads allocated because nothing suitable was parked.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Payloads served from the free-list.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// A raw pointer that crosses threads. Safety is argued at each use site:
/// every wrapped pointer is only dereferenced at indices owned exclusively
/// by one slot of one job.
struct SendPtr<T>(*mut T);
// SAFETY: the wrapper only carries an address to the slots of one job; each
// slot writes or reads whole `T`s at indices no other slot touches, which
// moves those `T`s between threads — hence `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` shares the address only; the disjoint-index
// rule above, not the wrapper, keeps two slots off the same `T`.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the `Sync`
    /// wrapper, not the raw pointer, under edition-2021 precise capture.
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_index_matches_serial_at_every_thread_count() {
        let ctx = ExecutionContext::new();
        let want: Vec<usize> = (0..103).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let got = with_threads(threads, || ctx.map_index_affine(103, |i| i * 3 + 1));
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn map_vec_moves_each_item_exactly_once() {
        let ctx = ExecutionContext::new();
        let items: Vec<String> = (0..57).map(|i| format!("item-{i}")).collect();
        let got = with_threads(4, || ctx.map_vec(items, |i, s| format!("{i}:{s}")));
        let want: Vec<String> = (0..57).map(|i| format!("{i}:item-{i}")).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn panic_propagates_without_poisoning_the_pool() {
        let ctx = ExecutionContext::new();
        let result = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                ctx.run(64, |slot| {
                    if slot == 13 {
                        panic!("boom");
                    }
                })
            }))
        });
        assert!(result.is_err(), "slot panic must reach the caller");
        // The same pool serves the next region: nothing was poisoned.
        let after = with_threads(4, || ctx.map_index_affine(64, |i| i * 2));
        assert_eq!(after, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_regions_do_not_deadlock() {
        // A slot that posts its own region must make progress even when
        // every worker is busy: posters always participate in their own
        // jobs, so the inner region completes on the posting lane alone
        // in the worst case.
        let ctx = ExecutionContext::new();
        let total = AtomicU64::new(0);
        with_threads(4, || {
            ctx.run(8, |outer| {
                let inner: u64 = ctx
                    .map_index_affine(8, |i| (outer * 8 + i) as u64)
                    .iter()
                    .sum();
                total.fetch_add(inner, Ordering::Relaxed);
            });
        });
        assert_eq!(total.into_inner(), (0..64).sum::<u64>());
    }

    #[test]
    fn gather_by_index_returns_values_or_the_lowest_error_by_index() {
        // Three contiguous chunks of ten indices; a chunk stops at its
        // first error, so index 6 is never run once 5 fails.
        let ctx = ExecutionContext::new();
        let chunks = [0..4, 4..7, 7..10];
        let ran: Vec<AtomicBool> = (0..10).map(|_| AtomicBool::new(false)).collect();
        for threads in [1, 2, 3, 8] {
            with_threads(threads, || {
                let got =
                    ctx.gather_by_index(10, 3, |k| chunks[k].clone(), |_, i| Ok::<_, usize>(i * i));
                assert_eq!(got, Ok((0..10).map(|i| i * i).collect()), "{threads}");
                ran.iter().for_each(|r| r.store(false, Ordering::Relaxed));
                let got = ctx.gather_by_index(
                    10,
                    3,
                    |k| chunks[k].clone(),
                    |k, i| {
                        ran[i].store(true, Ordering::Relaxed);
                        if matches!(i, 5 | 8 | 9) {
                            Err((k, i))
                        } else {
                            Ok(i)
                        }
                    },
                );
                assert_eq!(got, Err((1, 5)), "{threads}");
                assert!(!ran[6].load(Ordering::Relaxed), "{threads}");
                assert!(!ran[9].load(Ordering::Relaxed), "{threads}");
            });
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        assert_eq!(current_override(), None);
        let nested = with_threads(1, || with_threads(2, current_override));
        assert_eq!(nested, Some(2));
        assert_eq!(current_override(), None);
        // Restored across panics too.
        let _ = catch_unwind(|| with_threads(3, || panic!("boom")));
        assert_eq!(current_override(), None);
    }

    #[test]
    fn lanes_for_is_one_below_the_grain_and_the_policy_at_it() {
        for (below, at) in [
            (Work::Macs(MAC_GRAIN - 1), Work::Macs(MAC_GRAIN)),
            (
                Work::Doubles(DOUBLES_GRAIN - 1),
                Work::Doubles(DOUBLES_GRAIN),
            ),
        ] {
            for threads in [1, 2, 8] {
                with_threads(threads, || {
                    assert_eq!(lanes_for(64, below), 1, "{below:?} @ {threads}");
                    assert_eq!(lanes_for(64, at), threads, "{at:?} @ {threads}");
                    assert_eq!(lanes_for(3, at), threads.min(3), "capped by items");
                });
            }
        }
    }

    #[test]
    fn drop_joins_all_workers() {
        let ctx = ExecutionContext::new();
        with_threads(4, || ctx.prewarm());
        assert_eq!(ctx.workers(), 3, "prewarm spawns threads-1 workers");
        // Drop must shut the pool down and join every worker; a hang here
        // is the failure mode this test exists to catch.
        drop(ctx);
    }

    #[test]
    fn scratch_lease_reuses_parked_values_per_key() {
        let ctx = ExecutionContext::new();
        {
            let mut a = ctx.scratch::<Vec<u64>, _>(8, Vec::new);
            a.extend_from_slice(&[1, 2, 3]);
        }
        // Same key: the parked value (with its contents) comes back.
        {
            let a = ctx.scratch::<Vec<u64>, _>(8, Vec::new);
            assert_eq!(&*a, &[1, 2, 3]);
            // While `a` is out, a second lease must get a distinct value.
            let b = ctx.scratch::<Vec<u64>, _>(8, Vec::new);
            assert!(b.is_empty());
        }
        // Different key: fresh value.
        let c = ctx.scratch::<Vec<u64>, _>(4, Vec::new);
        assert!(c.is_empty());
    }

    #[test]
    fn deterministic_chunking_is_independent_of_workers() {
        // Record which slot handled each index; the mapping must be a
        // pure function of (n, threads), not of scheduling. Run the same
        // region repeatedly and require identical slot assignments.
        let ctx = ExecutionContext::new();
        let assign = |ctx: &ExecutionContext| -> Vec<usize> {
            let slots: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            ctx.run(4, |slot| {
                let chunk = 100usize.div_ceil(4);
                for s in slots.iter().take((slot + 1) * chunk).skip(slot * chunk) {
                    s.store(slot + 1, Ordering::Relaxed);
                }
            });
            slots.into_iter().map(AtomicUsize::into_inner).collect()
        };
        let first = with_threads(4, || assign(&ctx));
        for _ in 0..5 {
            assert_eq!(with_threads(4, || assign(&ctx)), first);
        }
        assert!(first.iter().all(|&s| s >= 1), "every index covered");
    }

    #[test]
    fn run_stepped_runs_every_slot_and_seam_in_one_handoff() {
        let ctx = ExecutionContext::new();
        for threads in [1, 2, 4, 8] {
            let cells: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
            let seams = AtomicU64::new(0);
            let before = ctx.pool_handoffs();
            with_threads(threads, || {
                ctx.run_stepped(
                    10,
                    |step| if step % 2 == 0 { 1 } else { 8 },
                    |step, slot| {
                        let width = if step % 2 == 0 { 64 } else { 8 };
                        for i in slot * width..(slot + 1) * width {
                            cells[i % 64].fetch_add(1, Ordering::Relaxed);
                        }
                    },
                    |_| {
                        seams.fetch_add(1, Ordering::Relaxed);
                        true
                    },
                );
            });
            let handoffs = ctx.pool_handoffs() - before;
            // 10 cells-touches per index: 5 serial steps + 5 fanned steps.
            assert!(
                cells.iter().all(|c| c.load(Ordering::Relaxed) == 10),
                "threads = {threads}"
            );
            assert_eq!(seams.load(Ordering::Relaxed), 10);
            assert_eq!(handoffs, u64::from(threads > 1), "one handoff total");
        }
    }

    #[test]
    fn run_stepped_seam_sees_step_writes_and_can_abort() {
        let ctx = ExecutionContext::new();
        for threads in [1, 4] {
            let sum = AtomicU64::new(0);
            let steps_run = AtomicU64::new(0);
            with_threads(threads, || {
                ctx.run_stepped(
                    100,
                    |_| 8,
                    |_, slot| {
                        sum.fetch_add(slot as u64, Ordering::Relaxed);
                    },
                    |step| {
                        // All 8 slots of this step must be visible here.
                        let expect = (step as u64 + 1) * 28;
                        assert_eq!(sum.load(Ordering::Relaxed), expect);
                        steps_run.fetch_add(1, Ordering::Relaxed);
                        step < 2 // abort after the third step
                    },
                );
            });
            assert_eq!(steps_run.load(Ordering::Relaxed), 3, "threads = {threads}");
            assert_eq!(sum.load(Ordering::Relaxed), 3 * 28);
        }
    }

    #[test]
    fn run_stepped_panic_aborts_and_propagates() {
        let ctx = ExecutionContext::new();
        let seams = AtomicU64::new(0);
        let result = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                ctx.run_stepped(
                    50,
                    |_| 8,
                    |step, slot| {
                        if step == 1 && slot == 3 {
                            panic!("superstep boom");
                        }
                    },
                    |_| {
                        seams.fetch_add(1, Ordering::Relaxed);
                        true
                    },
                );
            }))
        });
        assert!(result.is_err(), "slot panic must reach the caller");
        assert!(
            seams.load(Ordering::Relaxed) < 50,
            "remaining steps skipped"
        );
        // Pool still serves the next region.
        let after = with_threads(4, || ctx.map_index_affine(16, |i| i));
        assert_eq!(after, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn run_affine_covers_every_slot_exactly_once() {
        let ctx = ExecutionContext::new();
        for threads in [1, 2, 4, 8] {
            let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            with_threads(threads, || {
                ctx.run_affine(4, |slot| {
                    hits[slot].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads = {threads}"
            );
        }
        let got = with_threads(4, || ctx.map_index_affine(103, |i| i * 7));
        assert_eq!(got, (0..103).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn payload_pool_reuses_buffers_once_refcount_drops() {
        let mut pool = PayloadPool::new();
        let a = pool.lease_from(&[1.0, 2.0, 3.0]);
        assert_eq!(pool.fresh_allocs(), 1);
        let receiver = Arc::clone(&a);
        pool.recycle(a);
        // Receiver still holds a clone: must not be handed out.
        let b = pool.lease_from(&[4.0, 5.0, 6.0]);
        assert_eq!(pool.fresh_allocs(), 2);
        assert_eq!(&*receiver, &[1.0, 2.0, 3.0], "live payload untouched");
        drop(receiver);
        pool.recycle(b);
        // Both parked buffers are now unique; leases reuse, bytes match.
        let c = pool.lease_from(&[7.0, 8.0, 9.0]);
        assert_eq!(pool.fresh_allocs(), 2);
        assert_eq!(pool.reuses(), 1);
        assert_eq!(&*c, &[7.0, 8.0, 9.0]);
        // Length mismatch: fresh.
        let d = pool.lease_from(&[1.0]);
        assert_eq!(pool.fresh_allocs(), 3);
        drop((c, d));
    }

    #[test]
    fn zero_and_one_slot_regions_run_inline() {
        let ctx = ExecutionContext::new();
        ctx.run(0, |_| panic!("never called"));
        let hits = AtomicU64::new(0);
        with_threads(8, || {
            ctx.run(1, |slot| {
                assert_eq!(slot, 0);
                hits.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert_eq!(hits.into_inner(), 1);
        assert_eq!(ctx.workers(), 0, "single-slot regions spawn nothing");
    }
}
