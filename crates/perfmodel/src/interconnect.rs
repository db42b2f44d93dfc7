//! Modeled multi-chip interconnect: per-link latency + bandwidth, and
//! collective (allreduce) schedules built on top.
//!
//! Sunway TaihuLight connects SW26010 nodes through a custom fat-tree
//! network; swCaffe-style data-parallel training and fleet serving both
//! charge their cross-chip traffic against that network. This module is
//! the chip-to-chip analogue of [`crate::dma`]: a two-parameter
//! (latency, bandwidth) cost per link, plus closed-form costs for the
//! two allreduce schedules the cluster layer uses:
//!
//! * **ring** — `2·(C−1)` steps, each moving `bytes/C` per link; optimal
//!   wire bytes for large tensors (`2·bytes·(C−1)/C` per chip);
//! * **tree** — `2·⌈log₂C⌉` steps, each moving the full tensor; fewer
//!   latency terms, so it wins for small tensors where the per-step
//!   latency dominates the wire time.
//!
//! Costs are *timing only*: the cluster layer computes gradients in a
//! fixed order independent of the schedule, so schedule choice moves
//! simulated time and wire-byte counters, never numerics.
//!
//! Beyond the closed forms, this module carries the **topology-aware**
//! model the bucketized collective path uses:
//!
//! * [`CollectiveSchedule`] — a collective as *data*: explicit rounds of
//!   `src → dst` transfers (ring and tree constructors today, future
//!   schedules are new data, not new code);
//! * [`Topology`] — switch groups with shared duplex uplinks, so
//!   cross-group transfers contend for an oversubscribed resource;
//! * [`NetworkModel`] + [`LinkOccupancy`] — executes schedules against
//!   per-link occupancy timelines: transfers sharing a send port, a
//!   receive port, or a group uplink serialize deterministically, and
//!   collectives launched back to back pipeline through the same
//!   occupancy state. On a flat topology the executed ring/tree times
//!   reproduce the closed forms (a property test pins it); on a grouped
//!   topology congestion is priced instead of wished away.

/// Per-link characteristics of the modeled chip-to-chip network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterconnectSpec {
    /// One-way link latency per message, µs of simulated time.
    pub link_latency_us: f64,
    /// Link bandwidth, GB/s (bytes/ns).
    pub link_gbps: f64,
}

impl InterconnectSpec {
    /// TaihuLight-like node network: ~8 GB/s per direction with a ~1 µs
    /// MPI-grade injection latency.
    pub const fn sw_cluster() -> Self {
        Self {
            link_latency_us: 1.0,
            link_gbps: 8.0,
        }
    }

    /// Time for one `bytes`-sized message over one link, µs.
    pub fn transfer_us(&self, bytes: u64) -> f64 {
        self.link_latency_us + bytes as f64 / (self.link_gbps * 1e3)
    }

    /// Ring allreduce over `chips` peers: reduce-scatter then allgather,
    /// `2·(C−1)` steps each moving a `bytes/C` segment. Returns 0 for a
    /// single chip (no wire traffic).
    fn ring_allreduce_us(&self, bytes: u64, chips: usize) -> f64 {
        if chips <= 1 {
            return 0.0;
        }
        let steps = 2 * (chips - 1);
        let segment = (bytes as f64 / chips as f64).ceil() as u64;
        steps as f64 * self.transfer_us(segment)
    }

    /// Tree allreduce (reduce then broadcast): `2·⌈log₂C⌉` steps moving
    /// the whole tensor each step.
    fn tree_allreduce_us(&self, bytes: u64, chips: usize) -> f64 {
        if chips <= 1 {
            return 0.0;
        }
        let rounds = (chips as f64).log2().ceil() as usize;
        (2 * rounds) as f64 * self.transfer_us(bytes)
    }

    /// The schedule the cluster uses for a tensor of `bytes`: whichever
    /// of ring/tree is cheaper under this spec.
    pub fn allreduce_us(&self, bytes: u64, chips: usize) -> (AllreduceKind, f64) {
        let ring = self.ring_allreduce_us(bytes, chips);
        let tree = self.tree_allreduce_us(bytes, chips);
        if tree < ring {
            (AllreduceKind::Tree, tree)
        } else {
            (AllreduceKind::Ring, ring)
        }
    }

    /// Bytes each chip puts on the wire under the given schedule — the
    /// Demmel-style first-class metric; the oracle for
    /// [`CollectiveSchedule::wire_bytes_per_chip`].
    #[cfg(test)]
    fn allreduce_wire_bytes_per_chip(&self, kind: AllreduceKind, bytes: u64, chips: usize) -> u64 {
        if chips <= 1 {
            return 0;
        }
        match kind {
            AllreduceKind::Ring => {
                let segment = (bytes as f64 / chips as f64).ceil() as u64;
                2 * (chips as u64 - 1) * segment
            }
            AllreduceKind::Tree => {
                let rounds = (chips as f64).log2().ceil() as u64;
                2 * rounds * bytes
            }
        }
    }
}

impl Default for InterconnectSpec {
    fn default() -> Self {
        Self::sw_cluster()
    }
}

/// Which collective schedule an allreduce used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllreduceKind {
    Ring,
    Tree,
}

impl AllreduceKind {
    pub fn name(&self) -> &'static str {
        match self {
            AllreduceKind::Ring => "ring",
            AllreduceKind::Tree => "tree",
        }
    }
}

/// Switch-group overlay on the per-link [`InterconnectSpec`].
///
/// Chips are partitioned into groups of `group_size` consecutive ids
/// (TaihuLight: four SW26010 nodes per board, boards joined by the
/// supernode switch). Transfers inside a group ride dedicated links;
/// transfers that cross a group boundary additionally occupy one duplex
/// uplink on *each* side, and a group's uplinks are shared by all of its
/// cross-group flows — that sharing is where oversubscription shows up
/// as serialization instead of free parallelism.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Topology {
    /// Chips per switch group; `0` means flat (no shared resources
    /// beyond each chip's own send/receive ports).
    pub group_size: usize,
    /// Duplex uplinks per group; cross-group transfers pick the
    /// least-busy one (ties to the lowest index, so the choice is
    /// deterministic).
    pub uplinks_per_group: usize,
    /// Uplink bandwidth, GB/s. `None` inherits the intra-group link
    /// bandwidth; a smaller value models a tapered fat-tree.
    pub uplink_gbps: Option<f64>,
}

impl Topology {
    /// Every chip pair has a dedicated path — the PR 7 model.
    pub const fn flat() -> Self {
        Self {
            group_size: 0,
            uplinks_per_group: 0,
            uplink_gbps: None,
        }
    }

    /// TaihuLight-like supernode tier: 4 chips per board, one duplex
    /// uplink per board into the switch (4:1 oversubscribed when every
    /// chip talks off-board at once).
    pub const fn sw_supernode() -> Self {
        Self {
            group_size: 4,
            uplinks_per_group: 1,
            uplink_gbps: None,
        }
    }

    /// Is grouping active at all?
    fn is_grouped(&self) -> bool {
        self.group_size > 0 && self.uplinks_per_group > 0
    }

    /// The switch group `chip` belongs to (`None` on a flat topology).
    pub fn group_of(&self, chip: usize) -> Option<usize> {
        if self.is_grouped() {
            Some(chip / self.group_size)
        } else {
            None
        }
    }

    /// Do `src → dst` cross a group boundary?
    fn crosses_groups(&self, src: usize, dst: usize) -> bool {
        match (self.group_of(src), self.group_of(dst)) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }
}

impl Default for Topology {
    fn default() -> Self {
        Self::flat()
    }
}

/// One point-to-point transfer inside a collective round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub src: usize,
    pub dst: usize,
    pub bytes: u64,
}

/// One bulk-synchronous round: its transfers are nominally concurrent,
/// but shared links may serialize them; the next round starts only when
/// every transfer of this round has finished.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Round {
    pub transfers: Vec<Transfer>,
}

/// A collective schedule as data: which bytes move between which chips
/// in which round. Numerics live elsewhere (the cluster layer reduces in
/// fixed microbatch order whatever the schedule); this object decides
/// only time and wire bytes when executed by a [`NetworkModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectiveSchedule {
    pub kind: AllreduceKind,
    /// Participating chip ids, ascending. Need not be contiguous — an
    /// elastic trainer builds schedules over failure survivors.
    pub members: Vec<usize>,
    /// Size of the tensor being reduced, bytes.
    pub tensor_bytes: u64,
    pub rounds: Vec<Round>,
}

impl CollectiveSchedule {
    /// Ring allreduce over `members`: reduce-scatter then allgather,
    /// `2·(C−1)` rounds in which member `i` sends a `⌈bytes/C⌉` segment
    /// to member `i+1 (mod C)`.
    pub fn ring(members: &[usize], bytes: u64) -> Self {
        let c = members.len();
        let mut rounds = Vec::new();
        if c > 1 {
            let segment = bytes.div_ceil(c as u64);
            for _ in 0..2 * (c - 1) {
                rounds.push(Round {
                    transfers: (0..c)
                        .map(|i| Transfer {
                            src: members[i],
                            dst: members[(i + 1) % c],
                            bytes: segment,
                        })
                        .collect(),
                });
            }
        }
        Self {
            kind: AllreduceKind::Ring,
            members: members.to_vec(),
            tensor_bytes: bytes,
            rounds,
        }
    }

    /// Tree allreduce over `members`: recursive-halving reduce toward
    /// `members[0]`, then the mirror broadcast — `2·⌈log₂C⌉` rounds
    /// moving the whole tensor per transfer.
    fn tree(members: &[usize], bytes: u64) -> Self {
        let c = members.len();
        let mut reduce = Vec::new();
        let mut stride = 1usize;
        while stride < c {
            let mut transfers = Vec::new();
            let mut i = 0usize;
            while i + stride < c {
                transfers.push(Transfer {
                    src: members[i + stride],
                    dst: members[i],
                    bytes,
                });
                i += 2 * stride;
            }
            reduce.push(Round { transfers });
            stride *= 2;
        }
        let mut rounds = reduce.clone();
        for r in reduce.iter().rev() {
            rounds.push(Round {
                transfers: r
                    .transfers
                    .iter()
                    .map(|t| Transfer {
                        src: t.dst,
                        dst: t.src,
                        bytes: t.bytes,
                    })
                    .collect(),
            });
        }
        Self {
            kind: AllreduceKind::Tree,
            members: members.to_vec(),
            tensor_bytes: bytes,
            rounds,
        }
    }

    /// The schedule the cluster uses for this tensor: whichever of
    /// ring/tree the closed-form (uncontended) model prices cheaper.
    pub fn plan(spec: &InterconnectSpec, members: &[usize], bytes: u64) -> Self {
        match spec.allreduce_us(bytes, members.len()).0 {
            AllreduceKind::Ring => Self::ring(members, bytes),
            AllreduceKind::Tree => Self::tree(members, bytes),
        }
    }

    /// Bytes the busiest member puts on the wire under this schedule.
    pub fn wire_bytes_per_chip(&self) -> u64 {
        let mut sent = std::collections::BTreeMap::new();
        for r in &self.rounds {
            for t in &r.transfers {
                *sent.entry(t.src).or_insert(0u64) += t.bytes;
            }
        }
        sent.values().copied().max().unwrap_or(0)
    }
}

/// Occupancy of one named network resource (a chip's send/receive port
/// or a group uplink).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkUse {
    /// Simulated time until which the resource is busy, µs.
    pub busy_until_us: f64,
    /// Total busy time accumulated, µs.
    pub busy_us: f64,
    /// Total bytes carried.
    pub bytes: u64,
}

/// Per-link occupancy timelines shared by every collective charged to
/// the same network. Executing two schedules through one occupancy makes
/// them contend for ports and uplinks exactly like two gradient buckets
/// in flight at once.
#[derive(Clone, Debug, Default)]
pub struct LinkOccupancy {
    links: std::collections::BTreeMap<String, LinkUse>,
}

impl LinkOccupancy {
    pub fn new() -> Self {
        Self::default()
    }

    fn busy_until(&self, name: &str) -> f64 {
        self.links.get(name).map(|l| l.busy_until_us).unwrap_or(0.0)
    }

    fn occupy(&mut self, name: &str, finish_us: f64, dur_us: f64, bytes: u64) {
        let l = self.links.entry(name.to_string()).or_default();
        l.busy_until_us = l.busy_until_us.max(finish_us);
        l.busy_us += dur_us;
        l.bytes += bytes;
    }

    /// Every `(link name, usage)` pair, deterministically sorted.
    pub fn links(&self) -> impl Iterator<Item = (&str, &LinkUse)> {
        self.links.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn get(&self, name: &str) -> LinkUse {
        self.links.get(name).copied().unwrap_or_default()
    }
}

/// Outcome of executing one schedule against the shared occupancy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CollectiveCost {
    /// When the first transfer actually started, µs (≥ the requested
    /// earliest start when the network was already busy).
    pub start_us: f64,
    /// When the last round finished, µs.
    pub finish_us: f64,
}

/// The topology-aware network: a link spec plus the group structure,
/// executing [`CollectiveSchedule`]s over [`LinkOccupancy`] timelines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    pub spec: InterconnectSpec,
    pub topology: Topology,
}

impl NetworkModel {
    pub fn new(spec: InterconnectSpec, topology: Topology) -> Self {
        Self { spec, topology }
    }

    /// Name of chip `chip`'s send port resource.
    fn tx_link(chip: usize) -> String {
        format!("tx-{chip}")
    }

    /// Name of chip `chip`'s receive port resource.
    fn rx_link(chip: usize) -> String {
        format!("rx-{chip}")
    }

    /// Name of uplink `k` of group `group`.
    pub fn uplink(group: usize, k: usize) -> String {
        format!("uplink-{group}-{k}")
    }

    /// Pick the least-busy uplink of `group` (lowest index wins ties).
    fn choose_uplink(&self, occ: &LinkOccupancy, group: usize) -> String {
        let mut best = Self::uplink(group, 0);
        let mut best_busy = occ.busy_until(&best);
        for k in 1..self.topology.uplinks_per_group {
            let name = Self::uplink(group, k);
            let busy = occ.busy_until(&name);
            if busy < best_busy {
                best_busy = busy;
                best = name;
            }
        }
        best
    }

    /// Duration of one transfer: latency plus wire time at the narrowest
    /// link on the path (the uplink, when the transfer crosses groups
    /// and the uplink is tapered).
    fn transfer_dur_us(&self, t: &Transfer) -> f64 {
        let mut gbps = self.spec.link_gbps;
        if self.topology.crosses_groups(t.src, t.dst) {
            gbps = gbps.min(self.topology.uplink_gbps.unwrap_or(gbps));
        }
        self.spec.link_latency_us + t.bytes as f64 / (gbps * 1e3)
    }

    /// Execute `sched` no earlier than `earliest_us`, serializing on
    /// whatever `occ` says is busy and charging every resource touched.
    ///
    /// Determinism: transfers are processed in their stored order inside
    /// each round, rounds strictly in order, and uplink choice breaks
    /// ties by index — the result is a pure function of
    /// `(self, occ, sched, earliest_us)`.
    pub fn execute(
        &self,
        occ: &mut LinkOccupancy,
        sched: &CollectiveSchedule,
        earliest_us: f64,
    ) -> CollectiveCost {
        let mut round_start = earliest_us;
        let mut first_start = f64::INFINITY;
        for round in &sched.rounds {
            let mut round_end = round_start;
            for t in &round.transfers {
                let tx = Self::tx_link(t.src);
                let rx = Self::rx_link(t.dst);
                let mut resources = vec![tx, rx];
                if self.topology.crosses_groups(t.src, t.dst) {
                    let sg = self.topology.group_of(t.src).expect("grouped");
                    let dg = self.topology.group_of(t.dst).expect("grouped");
                    resources.push(self.choose_uplink(occ, sg));
                    resources.push(self.choose_uplink(occ, dg));
                }
                let start = resources
                    .iter()
                    .map(|r| occ.busy_until(r))
                    .fold(round_start, f64::max);
                let dur = self.transfer_dur_us(t);
                let finish = start + dur;
                for r in &resources {
                    occ.occupy(r, finish, dur, t.bytes);
                }
                first_start = first_start.min(start);
                round_end = round_end.max(finish);
            }
            round_start = round_end;
        }
        if !first_start.is_finite() {
            first_start = earliest_us;
        }
        CollectiveCost {
            start_us: first_start,
            finish_us: round_start,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_latency_plus_wire_time() {
        let net = InterconnectSpec::sw_cluster();
        // 8 KB at 8 GB/s = 1 µs of wire time + 1 µs latency.
        assert!((net.transfer_us(8_000) - 2.0).abs() < 1e-12);
        // Latency floor: an empty message still costs the latency.
        assert!((net.transfer_us(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_chip_allreduce_is_free() {
        let net = InterconnectSpec::sw_cluster();
        assert_eq!(net.ring_allreduce_us(1 << 20, 1), 0.0);
        assert_eq!(net.tree_allreduce_us(1 << 20, 1), 0.0);
        assert_eq!(
            net.allreduce_wire_bytes_per_chip(AllreduceKind::Ring, 1 << 20, 1),
            0
        );
    }

    #[test]
    fn ring_wins_large_tensors_tree_wins_small() {
        let net = InterconnectSpec::sw_cluster();
        let (kind, _) = net.allreduce_us(64 << 20, 8);
        assert_eq!(kind, AllreduceKind::Ring, "64 MB: bandwidth-bound");
        let (kind, _) = net.allreduce_us(256, 8);
        assert_eq!(kind, AllreduceKind::Tree, "256 B: latency-bound");
    }

    #[test]
    fn ring_step_count_and_segments() {
        let net = InterconnectSpec {
            link_latency_us: 0.0,
            link_gbps: 1.0,
        };
        // 4 chips, 4000 bytes → 6 steps × 1000 bytes / (1 GB/s) = 6 µs.
        assert!((net.ring_allreduce_us(4_000, 4) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn tree_rounds_are_log2_ceil() {
        let net = InterconnectSpec {
            link_latency_us: 1.0,
            link_gbps: 1e12, // wire time ~0
        };
        // 8 chips → 3 rounds each way → 6 µs of pure latency.
        assert!((net.tree_allreduce_us(1, 8) - 6.0).abs() < 1e-6);
        // 5 chips round up to 3 rounds too.
        assert!((net.tree_allreduce_us(1, 5) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn ring_wire_bytes_approach_2x_tensor() {
        let net = InterconnectSpec::sw_cluster();
        let bytes = 1 << 20;
        let wire = net.allreduce_wire_bytes_per_chip(AllreduceKind::Ring, bytes, 8);
        let optimal = 2 * bytes * 7 / 8;
        assert_eq!(wire, optimal, "ring is wire-byte optimal");
        let tree = net.allreduce_wire_bytes_per_chip(AllreduceKind::Tree, bytes, 8);
        assert!(tree > wire, "tree trades wire bytes for latency terms");
    }

    #[test]
    fn executed_schedules_match_closed_forms_on_flat_topology() {
        let spec = InterconnectSpec::sw_cluster();
        let net = NetworkModel::new(spec, Topology::flat());
        for &chips in &[2usize, 3, 4, 5, 8] {
            let members: Vec<usize> = (0..chips).collect();
            let bytes = 40_000u64;
            for sched in [
                CollectiveSchedule::ring(&members, bytes),
                CollectiveSchedule::tree(&members, bytes),
            ] {
                let mut occ = LinkOccupancy::new();
                let cost = net.execute(&mut occ, &sched, 10.0);
                let closed = match sched.kind {
                    AllreduceKind::Ring => spec.ring_allreduce_us(bytes, chips),
                    AllreduceKind::Tree => spec.tree_allreduce_us(bytes, chips),
                };
                assert!((cost.start_us - 10.0).abs() < 1e-9);
                assert!(
                    (cost.finish_us - 10.0 - closed).abs() < 1e-6 * closed.max(1.0),
                    "{} chips={chips}: executed {} vs closed {}",
                    sched.kind.name(),
                    cost.finish_us - 10.0,
                    closed
                );
            }
        }
    }

    #[test]
    fn schedule_wire_bytes_match_closed_form() {
        let spec = InterconnectSpec::sw_cluster();
        let members: Vec<usize> = (0..8).collect();
        let bytes = 1 << 20;
        let ring = CollectiveSchedule::ring(&members, bytes);
        assert_eq!(
            ring.wire_bytes_per_chip(),
            spec.allreduce_wire_bytes_per_chip(AllreduceKind::Ring, bytes, 8)
        );
        let single = CollectiveSchedule::ring(&[3], bytes);
        assert_eq!(single.wire_bytes_per_chip(), 0);
        assert!(single.rounds.is_empty());
    }

    #[test]
    fn back_to_back_collectives_serialize_on_shared_ports() {
        let net = NetworkModel::new(InterconnectSpec::sw_cluster(), Topology::flat());
        let members: Vec<usize> = (0..4).collect();
        let sched = CollectiveSchedule::ring(&members, 40_000);
        let mut occ = LinkOccupancy::new();
        let a = net.execute(&mut occ, &sched, 0.0);
        let b = net.execute(&mut occ, &sched, 0.0);
        let single = a.finish_us;
        // The second collective wants to start at 0 but every port is
        // busy until `single`; it serializes behind the first.
        assert!(b.start_us >= single - 1e-9, "second waits for ports");
        assert!((b.finish_us - 2.0 * single).abs() < 1e-6 * single);
        // Determinism: replaying from scratch reproduces both costs.
        let mut occ2 = LinkOccupancy::new();
        assert_eq!(net.execute(&mut occ2, &sched, 0.0), a);
        assert_eq!(net.execute(&mut occ2, &sched, 0.0), b);
    }

    #[test]
    fn oversubscribed_uplink_slows_cross_group_traffic() {
        let spec = InterconnectSpec::sw_cluster();
        let members: Vec<usize> = (0..8).collect();
        let sched = CollectiveSchedule::ring(&members, 400_000);
        let mut flat_occ = LinkOccupancy::new();
        let flat = NetworkModel::new(spec, Topology::flat()).execute(&mut flat_occ, &sched, 0.0);
        let mut grp_occ = LinkOccupancy::new();
        let grouped =
            NetworkModel::new(spec, Topology::sw_supernode()).execute(&mut grp_occ, &sched, 0.0);
        // Chips 3→4 and 7→0 cross the board boundary and share each
        // board's single duplex uplink, so the grouped run is slower.
        assert!(
            grouped.finish_us > flat.finish_us,
            "grouped {} must exceed flat {}",
            grouped.finish_us,
            flat.finish_us
        );
        let up = grp_occ.get(&NetworkModel::uplink(0, 0));
        assert!(up.bytes > 0, "uplink-0-0 carried traffic");
        assert!(flat_occ.get(&NetworkModel::uplink(0, 0)).bytes == 0);
    }

    #[test]
    fn schedules_support_non_contiguous_survivor_sets() {
        let net = NetworkModel::new(InterconnectSpec::sw_cluster(), Topology::flat());
        let members = [0usize, 2, 5];
        for sched in [
            CollectiveSchedule::ring(&members, 10_000),
            CollectiveSchedule::tree(&members, 10_000),
        ] {
            for t in sched.rounds.iter().flat_map(|r| r.transfers.iter()) {
                assert!(members.contains(&t.src) && members.contains(&t.dst));
                assert_ne!(t.src, t.dst);
            }
            let mut occ = LinkOccupancy::new();
            let cost = net.execute(&mut occ, &sched, 0.0);
            assert!(cost.finish_us > 0.0);
        }
    }

    #[test]
    fn tapered_uplink_prices_narrowest_hop() {
        let spec = InterconnectSpec {
            link_latency_us: 0.0,
            link_gbps: 8.0,
        };
        let topo = Topology {
            group_size: 2,
            uplinks_per_group: 1,
            uplink_gbps: Some(2.0),
        };
        let net = NetworkModel::new(spec, topo);
        let sched = CollectiveSchedule {
            kind: AllreduceKind::Ring,
            members: vec![0, 2],
            tensor_bytes: 8_000,
            rounds: vec![Round {
                transfers: vec![Transfer {
                    src: 0,
                    dst: 2,
                    bytes: 8_000,
                }],
            }],
        };
        let mut occ = LinkOccupancy::new();
        let cost = net.execute(&mut occ, &sched, 0.0);
        // 8 KB at the 2 GB/s uplink = 4 µs, not the 1 µs the 8 GB/s
        // chip ports could do.
        assert!((cost.finish_us - 4.0).abs() < 1e-9);
    }
}
