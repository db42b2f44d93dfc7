//! Per-CG health tracking: a deterministic circuit breaker per core group.
//!
//! The sharded dispatcher routes every batch across the chip's core
//! groups; when one CG starts failing (injected DMA exhaustion, a dead
//! CPE, a dropped bus message deadlock) the dispatcher must stop sending
//! work there *before* every request pays the retry tax. Each CG gets a
//! classic three-state breaker driven entirely by the serving engine's
//! logical clock — no wall time, no background threads — so breaker
//! transitions replay identically on every run and at every worker-pool
//! thread count:
//!
//! * **Closed** — healthy; requests route normally. `trip_after`
//!   *consecutive* failures open the breaker.
//! * **Open** — in cooldown until `open_until_us`; the CG's row-split
//!   share is rerouted to healthy CGs (or the fallback chain when none
//!   remain).
//! * **Half-open** — cooldown elapsed; exactly **one** probe batch is
//!   admitted. Success closes the breaker (full share restored), failure
//!   re-opens it for another cooldown.
//!
//! All counters are monotonic and snapshot-safe; the board exposes them
//! for the `sw-obs` per-CG health report and the Chrome-trace breaker
//! track.

/// Breaker tuning shared by every CG on one dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip a Closed breaker.
    pub trip_after: u32,
    /// Cooldown a tripped breaker waits before admitting a probe (µs of
    /// logical time).
    pub cooldown_us: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self {
            trip_after: 3,
            cooldown_us: 50_000,
        }
    }
}

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    /// Cooling down until the contained logical time.
    Open {
        until_us: u64,
    },
    /// Cooldown elapsed; waiting for (or running) the single probe.
    HalfOpen,
}

impl BreakerState {
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open { .. } => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// How a CG may be used for the next batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Availability {
    /// Closed breaker: routable at full share.
    Ready,
    /// Half-open breaker: routable as the single probe.
    Probe,
    /// Open breaker (or a probe already in flight): do not route.
    Unavailable,
}

/// Monotonic per-CG health counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CgHealthStats {
    pub successes: u64,
    pub failures: u64,
    pub trips: u64,
    pub probes: u64,
}

/// One CG's breaker.
#[derive(Clone, Copy, Debug)]
pub struct CgBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// True while a half-open probe has been admitted but its outcome has
    /// not yet been recorded — guarantees "exactly one probe".
    probe_in_flight: bool,
    pub stats: CgHealthStats,
}

impl Default for CgBreaker {
    fn default() -> Self {
        Self {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_in_flight: false,
            stats: CgHealthStats::default(),
        }
    }
}

impl CgBreaker {
    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Advance Open → HalfOpen when the cooldown has elapsed, then report
    /// how this CG may be used at `now_us`. Admitting a probe marks it in
    /// flight: further calls return [`Availability::Unavailable`] until
    /// [`CgBreaker::record`] lands the probe's outcome.
    pub fn availability(&mut self, now_us: u64) -> Availability {
        if let BreakerState::Open { until_us } = self.state {
            if now_us >= until_us {
                self.state = BreakerState::HalfOpen;
            }
        }
        match self.state {
            BreakerState::Closed => Availability::Ready,
            BreakerState::Open { .. } => Availability::Unavailable,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    Availability::Unavailable
                } else {
                    self.probe_in_flight = true;
                    self.stats.probes += 1;
                    Availability::Probe
                }
            }
        }
    }

    /// Record one batch outcome on this CG. Returns `true` when the call
    /// tripped the breaker Closed/HalfOpen → Open.
    pub fn record(&mut self, success: bool, now_us: u64, policy: &BreakerPolicy) -> bool {
        let was_probe = matches!(self.state, BreakerState::HalfOpen);
        self.probe_in_flight = false;
        if success {
            self.stats.successes += 1;
            self.consecutive_failures = 0;
            self.state = BreakerState::Closed;
            return false;
        }
        self.stats.failures += 1;
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        let trips = was_probe || self.consecutive_failures >= policy.trip_after;
        if trips {
            self.state = BreakerState::Open {
                until_us: now_us + policy.cooldown_us,
            };
            self.stats.trips += 1;
        }
        trips
    }
}

/// The dispatcher's routing table: one breaker per CG.
#[derive(Clone, Debug)]
pub struct HealthBoard {
    pub policy: BreakerPolicy,
    breakers: Vec<CgBreaker>,
}

/// A set of core-group indices, held as a bitmask so that routing a batch
/// allocates nothing. Indices run below `CgSet::CAPACITY`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CgSet(u64);

impl CgSet {
    /// Largest CG count a set (and so a [`HealthBoard`]) can hold.
    pub const CAPACITY: usize = u64::BITS as usize;

    /// Callers hold `cg` below `CgSet::CAPACITY`.
    pub(crate) fn insert(&mut self, cg: usize) {
        self.0 |= 1 << cg;
    }

    pub fn contains(&self, cg: usize) -> bool {
        cg < Self::CAPACITY && self.0 >> cg & 1 == 1
    }

    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The members in index order.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let cg = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                cg
            })
        })
    }

    /// The `k` lowest-indexed members.
    pub(crate) fn first(&self, k: usize) -> CgSet {
        let mut set = CgSet::default();
        for cg in self.iter().take(k) {
            set.insert(cg);
        }
        set
    }

    /// The members not in `other`.
    pub(crate) fn without(&self, other: CgSet) -> CgSet {
        CgSet(self.0 & !other.0)
    }
}

/// A routing decision for one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    /// CGs the batch may use (probes included).
    pub cgs: CgSet,
    /// Subset of `cgs` running as half-open probes.
    pub probes: CgSet,
}

impl HealthBoard {
    /// One closed breaker per CG. Panics if `cgs` exceeds
    /// `CgSet::CAPACITY`; [`super::ServeEngine::new`] rejects such a
    /// configuration with an error before building a board.
    pub fn new(cgs: usize, policy: BreakerPolicy) -> Self {
        assert!(cgs <= CgSet::CAPACITY, "{cgs} CGs exceed a CgSet");
        Self {
            policy,
            breakers: vec![CgBreaker::default(); cgs],
        }
    }

    pub fn breaker(&self, cg: usize) -> &CgBreaker {
        &self.breakers[cg]
    }

    pub fn len(&self) -> usize {
        self.breakers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.breakers.is_empty()
    }

    /// Decide which CGs the next batch may use at `now_us`. Empty `cgs`
    /// means every breaker is open: the caller must take the fallback
    /// chain (degraded mesh → host reference).
    pub fn route(&mut self, now_us: u64) -> Route {
        let mut route = Route {
            cgs: CgSet::default(),
            probes: CgSet::default(),
        };
        for (g, b) in self.breakers.iter_mut().enumerate() {
            match b.availability(now_us) {
                Availability::Ready => route.cgs.insert(g),
                Availability::Probe => {
                    route.cgs.insert(g);
                    route.probes.insert(g);
                }
                Availability::Unavailable => {}
            }
        }
        route
    }

    /// Record a batch outcome on `cg`; returns `true` on a fresh trip.
    pub fn record(&mut self, cg: usize, success: bool, now_us: u64) -> bool {
        let policy = self.policy;
        self.breakers[cg].record(success, now_us, &policy)
    }

    /// Un-admit probes that were routed but will not run (the row split
    /// left them out). Without this an abandoned probe admission would
    /// block the half-open CG forever.
    pub fn cancel_probes(&mut self, probes: CgSet) {
        for g in probes.iter() {
            let b = &mut self.breakers[g];
            if matches!(b.state, BreakerState::HalfOpen) && b.probe_in_flight {
                b.probe_in_flight = false;
                b.stats.probes -= 1;
            }
        }
    }

    /// Number of currently-open breakers (for counters/summaries).
    pub fn open_count(&self) -> usize {
        self.breakers
            .iter()
            .filter(|b| matches!(b.state, BreakerState::Open { .. }))
            .count()
    }

    /// Aggregate stats across CGs.
    pub fn totals(&self) -> CgHealthStats {
        let mut t = CgHealthStats::default();
        for b in &self.breakers {
            t.successes += b.stats.successes;
            t.failures += b.stats.failures;
            t.trips += b.stats.trips;
            t.probes += b.stats.probes;
        }
        t
    }

    /// Per-CG `(state name, stats)` snapshot for observability.
    pub fn snapshot(&self) -> Vec<(&'static str, CgHealthStats)> {
        self.breakers
            .iter()
            .map(|b| (b.state.name(), b.stats))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            trip_after: 3,
            cooldown_us: 1_000,
        }
    }

    #[test]
    fn trips_only_at_the_configured_threshold() {
        let mut b = CgBreaker::default();
        let p = policy();
        assert!(!b.record(false, 0, &p));
        assert!(!b.record(false, 0, &p));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record(false, 0, &p), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open { until_us: 1_000 });
        assert_eq!(b.stats.trips, 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = CgBreaker::default();
        let p = policy();
        b.record(false, 0, &p);
        b.record(false, 0, &p);
        b.record(true, 0, &p);
        b.record(false, 0, &p);
        b.record(false, 0, &p);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "interleaved success must reset the streak"
        );
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let mut b = CgBreaker::default();
        let p = policy();
        for _ in 0..3 {
            b.record(false, 0, &p);
        }
        assert_eq!(b.availability(500), Availability::Unavailable, "cooling");
        assert_eq!(b.availability(1_000), Availability::Probe, "cooldown over");
        assert_eq!(
            b.availability(1_000),
            Availability::Unavailable,
            "second ask while the probe is in flight must be refused"
        );
        assert!(!b.record(true, 1_500, &p));
        assert_eq!(b.state(), BreakerState::Closed, "probe success closes");
        assert_eq!(b.availability(1_500), Availability::Ready);
        assert_eq!(b.stats.probes, 1);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let mut b = CgBreaker::default();
        let p = policy();
        for _ in 0..3 {
            b.record(false, 0, &p);
        }
        assert_eq!(b.availability(1_000), Availability::Probe);
        assert!(b.record(false, 1_200, &p), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open { until_us: 2_200 });
        assert_eq!(b.availability(2_199), Availability::Unavailable);
        assert_eq!(b.availability(2_200), Availability::Probe);
    }

    #[test]
    fn board_routes_around_open_breakers() {
        let mut board = HealthBoard::new(4, policy());
        for _ in 0..3 {
            board.record(1, false, 0);
        }
        let r = board.route(0);
        assert_eq!(r.cgs.iter().collect::<Vec<_>>(), vec![0, 2, 3]);
        assert!(r.probes.is_empty());
        assert_eq!(board.open_count(), 1);
        // After the cooldown CG 1 returns as a probe.
        let r = board.route(1_000);
        assert_eq!(r.cgs.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(r.probes.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn cancel_probes_releases_an_unused_admission() {
        let mut board = HealthBoard::new(2, policy());
        for _ in 0..3 {
            board.record(0, false, 0);
        }
        let r = board.route(1_000);
        assert_eq!(r.probes.iter().collect::<Vec<_>>(), vec![0]);
        board.cancel_probes(r.probes);
        let again = board.route(1_000);
        assert_eq!(again.probes, r.probes, "cancelled probe is re-admittable");
        assert_eq!(
            board.breaker(0).stats.probes,
            1,
            "cancelled admit uncounted"
        );
    }
}
