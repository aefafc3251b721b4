//! Deterministic fault injection for the live pipeline.
//!
//! A [`FaultPlan`] is a per-cycle schedule of [`Fault`] values: every
//! failure the supervised pipeline, the campaign driver, the egress swarm
//! and the shard federation must absorb, from stage panics and transfer
//! stalls to poisoned members, shard kills and network partitions. Plans
//! are built explicitly with [`FaultPlan::with`] (tests), parsed from the
//! compact spec grammar documented on [`FaultPlan::parse`] (the `--inject`
//! and `--faults` flags of the examples), or generated from a seed — so
//! every failure scenario is reproducible bit-for-bit, which is what makes
//! degraded-mode behaviour testable at all.

use bda_num::rng::SplitMix64;
use std::collections::BTreeMap;

/// The pipeline stages a fault can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    Scan,
    Transfer,
    Assimilation,
    Forecast,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Stage::Scan => "scan",
            Stage::Transfer => "transfer",
            Stage::Assimilation => "assimilation",
            Stage::Forecast => "forecast",
        };
        f.write_str(s)
    }
}

/// One injected failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the named stage closure (scan, assimilation or
    /// forecast; transfer has no user closure to panic in).
    StagePanic(Stage),
    /// The transfer appears stalled: the receiver's first `timeouts`
    /// watchdog windows elapse without data before the volume shows up.
    TransferStall { timeouts: usize },
    /// The volume payload is corrupted after the scan-time checksum is
    /// taken, so the assimilation side must reject it.
    CorruptVolume,
    /// The scan produces nothing at all (radar outage for one cycle).
    DropScan,
    /// The volume is sent twice with the same sequence number — a transfer
    /// daemon replay. The receiver must drop the second copy.
    DuplicateVolume,
    /// The volume carries a scan timestamp far older than the staleness
    /// horizon — a backlogged delivery. The receiver must reject it with a
    /// typed stale outcome rather than assimilate old weather.
    StaleScan,
    /// Member `member`'s forecast state is poisoned with NaN at the start
    /// of the cycle — the health scan must quarantine and respawn it.
    MemberNan { member: usize },
    /// Member `member`'s forecast state is seeded with an Inf so its
    /// integration blows up — surfaces as a typed `MemberError`.
    MemberBlowUp { member: usize },
    /// The whole process dies abruptly at the start of the cycle, before
    /// any checkpoint for it is taken — the in-process stand-in for
    /// `kill -9`, exercised by the checkpoint/resume path.
    Crash,
    /// `n` egress subscribers stop draining their sockets starting this
    /// cycle — the serve layer must evict them instead of letting the
    /// broadcast stall.
    SlowClients { n: usize },
    /// `n` extra subscribers connect (or reconnect) in a burst during this
    /// cycle — an egress connection storm the acceptor must absorb without
    /// missing the publish deadline.
    ConnStorm { n: usize },
    /// Federation shard `shard` is SIGKILLed at the start of this cycle —
    /// the supervisor must respawn it and the shard must resume from its
    /// own scoped checkpoint while its peers keep cycling.
    ShardKill { shard: usize },
    /// Federation shard `shard` misses its halo deadline this cycle (it
    /// publishes a stall marker instead of its analyzed strip) — peers
    /// must step the degradation ladder, not block.
    ShardStall { shard: usize },
    /// Federation shard `shard`'s halo for this cycle is dropped in
    /// transit — receivers reuse the previous-cycle halo, flagged.
    HaloDrop { shard: usize },
    /// Network partition between shards `a` and `b` for this cycle: every
    /// message of the cycle is dropped in both directions on that link
    /// (halos, replay requests, heartbeats). Both ends must step their
    /// degradation ladder for each other while the rest of the federation
    /// keeps exchanging normally. A plan stores it with `a < b`.
    Partition { a: usize, b: usize },
    /// Shard `shard`'s egress is stalled in-network for this cycle: its
    /// messages are delayed past the receivers' halo deadline and released
    /// late (reordered behind newer traffic). Peers must degrade, then
    /// discard the late arrival as stale — never apply it backwards.
    NetStall { shard: usize },
    /// Shard `shard`'s egress is mangled on the wire for this cycle:
    /// garbage bytes injected mid-stream, frame bytes corrupted,
    /// truncation. Receivers must resync at the next frame magic and type
    /// the damage — no panic, nothing corrupt applied.
    WireGarbage { shard: usize },
}

impl Fault {
    /// The fault with a `Partition`'s endpoints in `a < b` order, so a
    /// link is one value whichever end names it first.
    fn canonical(self) -> Self {
        match self {
            Fault::Partition { a, b } => Fault::Partition {
                a: a.min(b),
                b: a.max(b),
            },
            f => f,
        }
    }

    /// The fault a spec token's kind names, `kind` being the text before
    /// `@` (see [`FaultPlan::parse`]); `windows` is the `xN` suffix a
    /// `stall` token may carry after its cycle.
    fn from_kind(kind: &str, windows: Option<&str>) -> Option<Self> {
        Some(match kind {
            "panic:scan" => Fault::StagePanic(Stage::Scan),
            "panic:assim" => Fault::StagePanic(Stage::Assimilation),
            "panic:fcst" => Fault::StagePanic(Stage::Forecast),
            "stall" => Fault::TransferStall {
                timeouts: windows.map_or(Some(1), |n| n.parse().ok())?,
            },
            "corrupt" => Fault::CorruptVolume,
            "drop" => Fault::DropScan,
            "dup" => Fault::DuplicateVolume,
            "stale" => Fault::StaleScan,
            "crash" => Fault::Crash,
            _ => {
                let (name, arg) = kind.split_once(':')?;
                if name == "partition" {
                    // The one kind whose argument is a pair of shards.
                    let (a, b) = arg.split_once('-')?;
                    let (a, b) = (a.parse().ok()?, b.parse().ok()?);
                    return (a != b).then_some(Fault::Partition { a, b });
                }
                let n: usize = arg.parse().ok()?;
                match name {
                    "nan" => Fault::MemberNan { member: n },
                    "blowup" => Fault::MemberBlowUp { member: n },
                    "slowclient" => Fault::SlowClients { n },
                    "connstorm" => Fault::ConnStorm { n },
                    "shardkill" => Fault::ShardKill { shard: n },
                    "shardstall" => Fault::ShardStall { shard: n },
                    "halodrop" => Fault::HaloDrop { shard: n },
                    "netstall" => Fault::NetStall { shard: n },
                    "wiregarbage" => Fault::WireGarbage { shard: n },
                    _ => return None,
                }
            }
        })
    }
}

/// Per-cycle fault schedule. Ordered map so iteration (and therefore any
/// behaviour derived from it) is deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    by_cycle: BTreeMap<usize, Vec<Fault>>,
}

/// Per-cycle probabilities for [`FaultPlan::random`].
#[derive(Clone, Copy, Debug)]
pub struct FaultRates {
    pub panic_assimilation: f64,
    pub panic_forecast: f64,
    pub panic_scan: f64,
    pub stall: f64,
    pub corrupt: f64,
    pub drop_scan: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        Self {
            panic_assimilation: 0.03,
            panic_forecast: 0.02,
            panic_scan: 0.02,
            stall: 0.05,
            corrupt: 0.03,
            drop_scan: 0.03,
        }
    }
}

impl FaultPlan {
    /// The empty plan: nothing is injected, the pipeline runs clean.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no cycle has any fault scheduled.
    pub fn is_empty(&self) -> bool {
        self.by_cycle.is_empty()
    }

    /// Schedule `fault` on `cycle`, after any fault already scheduled
    /// there. A `Partition` is stored with its endpoints in `a < b` order.
    pub fn with(mut self, cycle: usize, fault: Fault) -> Self {
        self.by_cycle
            .entry(cycle)
            .or_default()
            .push(fault.canonical());
        self
    }

    /// Faults scheduled for `cycle`, in schedule order (empty slice when
    /// none).
    pub fn faults_for(&self, cycle: usize) -> &[Fault] {
        self.by_cycle.get(&cycle).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `cycle` has `fault` scheduled. A `Partition` matches with
    /// its endpoints in either order.
    pub fn has(&self, cycle: usize, fault: Fault) -> bool {
        self.faults_for(cycle).contains(&fault.canonical())
    }

    /// What `pick` extracts from each fault scheduled for `cycle`, in
    /// schedule order, e.g. the shard of every `ShardKill`.
    pub fn select<'a, R>(
        &'a self,
        cycle: usize,
        pick: impl FnMut(&Fault) -> Option<R> + 'a,
    ) -> impl Iterator<Item = R> + 'a {
        self.faults_for(cycle).iter().filter_map(pick)
    }

    /// Total number of scheduled faults.
    pub fn len(&self) -> usize {
        self.by_cycle.values().map(Vec::len).sum()
    }

    /// Seed-driven plan over `n_cycles`: each fault class fires
    /// independently per cycle with its [`FaultRates`] probability. The
    /// same `(seed, n_cycles, rates)` always yields the same plan.
    pub fn random(seed: u64, n_cycles: usize, rates: FaultRates) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = Self::none();
        for cycle in 0..n_cycles {
            if rng.next_uniform() < rates.panic_scan {
                plan = plan.with(cycle, Fault::StagePanic(Stage::Scan));
            }
            if rng.next_uniform() < rates.panic_assimilation {
                plan = plan.with(cycle, Fault::StagePanic(Stage::Assimilation));
            }
            if rng.next_uniform() < rates.panic_forecast {
                plan = plan.with(cycle, Fault::StagePanic(Stage::Forecast));
            }
            if rng.next_uniform() < rates.stall {
                let timeouts = 1 + rng.next_index(2); // 1 or 2 windows
                plan = plan.with(cycle, Fault::TransferStall { timeouts });
            }
            if rng.next_uniform() < rates.corrupt {
                plan = plan.with(cycle, Fault::CorruptVolume);
            }
            if rng.next_uniform() < rates.drop_scan {
                plan = plan.with(cycle, Fault::DropScan);
            }
        }
        plan
    }

    /// Parse the compact fault spec: comma-separated tokens, each `KIND@C`
    /// (schedule on cycle `C`) or `random:SEED`. This is the one grammar
    /// of every fault flag:
    ///
    /// * `panic:scan@C` / `panic:assim@C` / `panic:fcst@C` — panic in that
    ///   stage;
    /// * `stall@CxN` — stall the transfer for `N` watchdog windows
    ///   (`stall@C` means one window);
    /// * `corrupt@C` — corrupt the volume payload;
    /// * `drop@C` — drop the scan;
    /// * `dup@C` — deliver the volume twice (replay);
    /// * `stale@C` — back-date the scan past the staleness horizon;
    /// * `nan:M@C` — poison member `M` with NaN at the start of the cycle;
    /// * `blowup:M@C` — seed member `M` with Inf at the start of the cycle;
    /// * `crash@C` — kill the process abruptly at the start of the cycle;
    /// * `slowclient:N@C` — `N` egress subscribers stop draining from this
    ///   cycle on;
    /// * `connstorm:N@C` — `N` extra egress subscribers burst-connect;
    /// * `shardkill:S@C` — SIGKILL federation shard `S` at the start of the
    ///   cycle;
    /// * `shardstall:S@C` — shard `S` misses its halo deadline;
    /// * `halodrop:S@C` — shard `S`'s halo is dropped in transit;
    /// * `partition:A-B@C` — the network link between shards `A` and
    ///   `B` (`A != B`) is cut in both directions;
    /// * `netstall:S@C` — shard `S`'s network egress is delayed past the
    ///   halo deadline and released late (reordered);
    /// * `wiregarbage:S@C` — shard `S`'s wire traffic is mangled (garbage
    ///   injection, corruption, truncation);
    /// * `random:SEED` — the plan [`FaultPlan::random`] draws from `SEED`
    ///   over `n_cycles` at default rates.
    pub fn parse(spec: &str, n_cycles: usize) -> Result<Self, String> {
        let mut plan = Self::none();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(seed) = token.strip_prefix("random:") {
                let seed = seed.parse().map_err(|_| format!("bad seed in `{token}`"))?;
                let random = Self::random(seed, n_cycles, FaultRates::default());
                for (cycle, faults) in random.by_cycle {
                    plan.by_cycle.entry(cycle).or_default().extend(faults);
                }
                continue;
            }
            let (kind, at) = token
                .split_once('@')
                .ok_or_else(|| format!("missing `@cycle` in `{token}`"))?;
            let (at, windows) = match at.split_once('x') {
                Some((c, n)) if kind == "stall" => (c, Some(n)),
                _ => (at, None),
            };
            let cycle = at.parse().map_err(|_| format!("bad cycle in `{token}`"))?;
            let fault = Fault::from_kind(kind, windows)
                .ok_or_else(|| format!("unknown fault kind or bad argument in `{token}`"))?;
            plan = plan.with(cycle, fault);
        }
        Ok(plan)
    }

    /// Serialize the plan back to the compact spec grammar accepted by
    /// [`FaultPlan::parse`]. For any plan, `parse(&plan.to_spec(), n)`
    /// reconstructs an equal plan — the round-trip contract the parse
    /// tests pin down.
    pub fn to_spec(&self) -> String {
        let mut tokens = Vec::with_capacity(self.len());
        for (&cycle, faults) in &self.by_cycle {
            for f in faults {
                tokens.push(match *f {
                    Fault::StagePanic(Stage::Scan) => format!("panic:scan@{cycle}"),
                    Fault::StagePanic(Stage::Assimilation) => format!("panic:assim@{cycle}"),
                    Fault::StagePanic(Stage::Forecast) | Fault::StagePanic(Stage::Transfer) => {
                        format!("panic:fcst@{cycle}")
                    }
                    Fault::TransferStall { timeouts: 1 } => format!("stall@{cycle}"),
                    Fault::TransferStall { timeouts } => format!("stall@{cycle}x{timeouts}"),
                    Fault::CorruptVolume => format!("corrupt@{cycle}"),
                    Fault::DropScan => format!("drop@{cycle}"),
                    Fault::DuplicateVolume => format!("dup@{cycle}"),
                    Fault::StaleScan => format!("stale@{cycle}"),
                    Fault::MemberNan { member } => format!("nan:{member}@{cycle}"),
                    Fault::MemberBlowUp { member } => format!("blowup:{member}@{cycle}"),
                    Fault::Crash => format!("crash@{cycle}"),
                    Fault::SlowClients { n } => format!("slowclient:{n}@{cycle}"),
                    Fault::ConnStorm { n } => format!("connstorm:{n}@{cycle}"),
                    Fault::ShardKill { shard } => format!("shardkill:{shard}@{cycle}"),
                    Fault::ShardStall { shard } => format!("shardstall:{shard}@{cycle}"),
                    Fault::HaloDrop { shard } => format!("halodrop:{shard}@{cycle}"),
                    Fault::Partition { a, b } => format!("partition:{a}-{b}@{cycle}"),
                    Fault::NetStall { shard } => format!("netstall:{shard}@{cycle}"),
                    Fault::WireGarbage { shard } => format!("wiregarbage:{shard}@{cycle}"),
                });
            }
        }
        tokens.join(", ")
    }

    /// Deterministically corrupt a payload in place (used by the injector:
    /// flips one bit past the point where the scan-time checksum was taken).
    pub fn corrupt_payload(payload: &mut [u8]) {
        if payload.is_empty() {
            return;
        }
        let mid = payload.len() / 2;
        payload[mid] ^= 0x5A;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec naming every `Fault` variant (and every stage a token can
    /// name), all on cycle 7, in `to_spec`'s canonical form.
    const EVERY_KIND: &str = "panic:scan@7, panic:assim@7, panic:fcst@7, stall@7, stall@7x3, \
        corrupt@7, drop@7, dup@7, stale@7, nan:2@7, blowup:0@7, crash@7, slowclient:50@7, \
        connstorm:200@7, shardkill:1@7, shardstall:0@7, halodrop:2@7, partition:0-2@7, \
        netstall:1@7, wiregarbage:0@7";

    /// `fault`'s spec token on cycle 7, written out independently of
    /// `to_spec`. Exhaustive on purpose: a new `Fault` variant does not
    /// compile until it has a token here (and one in `EVERY_KIND`).
    fn token(fault: Fault) -> String {
        match fault {
            Fault::StagePanic(Stage::Scan) => "panic:scan@7".into(),
            Fault::StagePanic(Stage::Assimilation) => "panic:assim@7".into(),
            Fault::StagePanic(Stage::Forecast | Stage::Transfer) => "panic:fcst@7".into(),
            Fault::TransferStall { timeouts: 1 } => "stall@7".into(),
            Fault::TransferStall { timeouts } => format!("stall@7x{timeouts}"),
            Fault::CorruptVolume => "corrupt@7".into(),
            Fault::DropScan => "drop@7".into(),
            Fault::DuplicateVolume => "dup@7".into(),
            Fault::StaleScan => "stale@7".into(),
            Fault::MemberNan { member } => format!("nan:{member}@7"),
            Fault::MemberBlowUp { member } => format!("blowup:{member}@7"),
            Fault::Crash => "crash@7".into(),
            Fault::SlowClients { n } => format!("slowclient:{n}@7"),
            Fault::ConnStorm { n } => format!("connstorm:{n}@7"),
            Fault::ShardKill { shard } => format!("shardkill:{shard}@7"),
            Fault::ShardStall { shard } => format!("shardstall:{shard}@7"),
            Fault::HaloDrop { shard } => format!("halodrop:{shard}@7"),
            Fault::Partition { a, b } => format!("partition:{a}-{b}@7"),
            Fault::NetStall { shard } => format!("netstall:{shard}@7"),
            Fault::WireGarbage { shard } => format!("wiregarbage:{shard}@7"),
        }
    }

    #[test]
    fn every_variant_parses_from_its_token_and_round_trips() {
        let plan = FaultPlan::parse(EVERY_KIND, 8).unwrap();
        assert_eq!(plan.to_spec(), EVERY_KIND);
        let tokens: Vec<&str> = EVERY_KIND.split(", ").collect();
        assert_eq!(plan.len(), tokens.len());
        for (&fault, spec) in plan.faults_for(7).iter().zip(tokens) {
            assert_eq!(token(fault), spec);
            let single = FaultPlan::parse(spec, 8).unwrap();
            assert_eq!(single, FaultPlan::none().with(7, fault), "{spec}");
            assert_eq!(single.to_spec(), spec);
        }
    }

    #[test]
    fn parse_rejects_malformed_tokens() {
        let corpus = [
            // Unknown kinds, and arguments on kinds that take none.
            "explode@3 panic@3 panic:transfer@3 corrupt:1@3 stall:1@3 crash:0@3 @3",
            // Missing or malformed cycles.
            "corrupt corrupt@x stale@ dup@x crash@3x2 nan:1@2@3 blowup:1@y partition:0-1@x",
            // Malformed stall windows, members, client counts, shards, seeds.
            "stall@3x stall@x2 stall@1x2x3 nan:x@3 nan:@3 slowclient:x@2 connstorm:3@y",
            "shardkill:x@2 shardstall:@2 netstall:x@2 wiregarbage:1@y random:x random:5@3",
            // Partitions need two distinct shards.
            "partition:1-1@2 partition:0@2 partition:a-b@2 partition:0-1-2@3",
        ];
        // Specs with inner spaces; one bad token spoils the whole spec.
        let spaced = ["nan: 2@3", "drop@1, explode@2"];
        for spec in corpus.iter().flat_map(|g| g.split(' ')).chain(spaced) {
            assert!(FaultPlan::parse(spec, 8).is_err(), "accepted `{spec}`");
        }
    }

    #[test]
    fn parse_empty_spec_is_empty_plan() {
        assert!(FaultPlan::parse("", 8).unwrap().is_empty());
        assert!(FaultPlan::parse(" , ", 8).unwrap().is_empty());
        assert_eq!(FaultPlan::none().to_spec(), "");
    }

    #[test]
    fn stall_without_count_means_one_window() {
        let plan = FaultPlan::parse("stall@4, stall@5x0", 8).unwrap();
        assert!(plan.has(4, Fault::TransferStall { timeouts: 1 }));
        assert!(plan.has(5, Fault::TransferStall { timeouts: 0 }));
    }

    #[test]
    fn same_cycle_tokens_keep_schedule_order_and_sum() {
        let plan = FaultPlan::parse(
            "slowclient:50@2, connstorm:200@4, drop@2, nan:4@3, slowclient:10@2, nan:2@3",
            8,
        )
        .unwrap();
        let slow = |f: &Fault| match *f {
            Fault::SlowClients { n } => Some(n),
            _ => None,
        };
        assert_eq!(plan.select(2, slow).sum::<usize>(), 60);
        assert_eq!(plan.select(4, slow).sum::<usize>(), 0);
        let nans: Vec<usize> = plan
            .select(3, |f| match *f {
                Fault::MemberNan { member } => Some(member),
                _ => None,
            })
            .collect();
        assert_eq!(nans, [4, 2]);
        assert!(plan.has(2, Fault::DropScan));
        assert!(!plan.has(3, Fault::DropScan));
        assert!(plan.faults_for(0).is_empty());
    }

    #[test]
    fn partitions_are_canonical_in_either_order() {
        let built = FaultPlan::none().with(2, Fault::Partition { a: 3, b: 1 });
        let parsed = FaultPlan::parse("partition:3-1@2", 8).unwrap();
        assert_eq!(built, parsed);
        assert_eq!(built.faults_for(2), &[Fault::Partition { a: 1, b: 3 }]);
        assert_eq!(built.to_spec(), "partition:1-3@2");
        assert!(built.has(2, Fault::Partition { a: 1, b: 3 }));
        assert!(built.has(2, Fault::Partition { a: 3, b: 1 }));
        assert!(!built.has(2, Fault::Partition { a: 1, b: 2 }));
        assert!(!built.has(3, Fault::Partition { a: 1, b: 3 }));
    }

    #[test]
    fn random_plans_are_deterministic_in_seed() {
        let a = FaultPlan::random(42, 200, FaultRates::default());
        let b = FaultPlan::random(42, 200, FaultRates::default());
        let c = FaultPlan::random(43, 200, FaultRates::default());
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds produced identical plans");
        assert!(
            !a.is_empty(),
            "default rates over 200 cycles injected nothing"
        );
        // `random:SEED` expands to the same plan, and it survives the trip.
        assert_eq!(FaultPlan::parse("random:42", 200).unwrap(), a);
        assert_eq!(FaultPlan::parse(&a.to_spec(), 200).unwrap(), a);
    }

    #[test]
    fn corrupt_payload_flips_exactly_one_bit() {
        let mut p = vec![0u8; 9];
        FaultPlan::corrupt_payload(&mut p);
        assert_eq!(p.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(p[4], 0x5A);
        let mut empty: Vec<u8> = vec![];
        FaultPlan::corrupt_payload(&mut empty); // must not panic
    }
}
