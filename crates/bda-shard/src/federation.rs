//! Deterministic in-process federation driver.
//!
//! [`Federation`] runs every shard worker inside one process with a
//! strict phase discipline per cycle — kills/respawns, then every shard's
//! publish, then every shard's collect — so federated campaigns are
//! bit-reproducible and the shard-fault scenarios (`shardkill`,
//! `shardstall`, `halodrop`) land on exact expected outcome tables. It is
//! generic over the halo transport: [`LocalFederation`] spools halos
//! through the file bus and collects with a single poll, [`NetFederation`]
//! pushes them over loopback sockets and blocks each collect up to the
//! halo deadline ([`HaloTransport::ASYNC_PUBLISH`]). Opening a shard's bus
//! is the only other per-transport step. The multi-*process* flavour of
//! the same protocol lives in `examples/federation.rs` under the
//! `bda_workflow::shard_supervisor`; all of them drive the identical
//! [`ShardWorker`] cycle code, which is what makes the in-process modes
//! faithful models.
//!
//! A `shardkill:S@C` here is a *virtual SIGKILL*: worker `S` (and its
//! bus) is dropped on the floor at the start of cycle `C` (whatever
//! in-memory state it had is gone) and rebuilt from its own scoped
//! checkpoint, replaying forward to rejoin the federation in the same
//! cycle — exactly the recovery path a real killed process takes, minus
//! the wall clock.

use crate::bus::{HaloBus, HaloTransport};
use crate::chaos::ChaosProxy;
use crate::netbus::{NetBus, NetBusConfig};
use crate::worker::{ShardConfig, ShardWorker};
use bda_core::osse::OsseConfig;
use bda_num::Real;
use bda_workflow::FaultPlan;
use std::path::PathBuf;
use std::time::Duration;

/// Federation-wide configuration, expanded per shard by
/// [`FederationConfig::shard_config`].
#[derive(Clone, Debug)]
pub struct FederationConfig {
    pub osse: OsseConfig,
    pub n_shards: usize,
    pub n_cycles: usize,
    pub spinup_seconds: f64,
    /// Root directory: the halo bus spools under `<dir>/bus`, and every
    /// shard checkpoints under the *shared* `<dir>/ckpt` (scoped filenames
    /// keep them apart — deliberately exercising the collision guard).
    pub dir: PathBuf,
    pub checkpoint_every: usize,
    pub plan: FaultPlan,
}

impl FederationConfig {
    pub fn new(
        osse: OsseConfig,
        n_shards: usize,
        n_cycles: usize,
        dir: impl Into<PathBuf>,
    ) -> Self {
        Self {
            osse,
            n_shards,
            n_cycles,
            spinup_seconds: 0.0,
            dir: dir.into(),
            checkpoint_every: 1,
            plan: FaultPlan::none(),
        }
    }

    /// The per-shard worker configuration for shard `s`.
    pub fn shard_config(&self, s: usize) -> ShardConfig {
        let mut cfg = ShardConfig::new(self.osse.clone(), self.n_shards, s, self.n_cycles);
        cfg.spinup_seconds = self.spinup_seconds;
        cfg.bus_dir = self.dir.join("bus");
        cfg.ckpt_dir = self.dir.join("ckpt");
        cfg.checkpoint_every = self.checkpoint_every;
        cfg.plan = self.plan.clone();
        cfg
    }
}

/// All shards in one process, phase-locked per cycle, over transport `B`.
pub struct Federation<T: Real, B: HaloTransport> {
    pub cfg: FederationConfig,
    pub workers: Vec<ShardWorker<T, B>>,
    /// Every shard's collect deadline and poll, and the socket bus options.
    net: NetTuning,
    open_bus: fn(&FederationConfig, &NetTuning, usize) -> Result<B, String>,
    /// In-path proxies (socket chaos mode) — held for their lifetime.
    _proxies: Vec<ChaosProxy>,
}

/// The file-spool federation: single-poll collects, so by the time any
/// shard collects, every live shard has published and the no-fault path
/// is timeout-free.
pub type LocalFederation<T> = Federation<T, HaloBus>;

/// The socket federation: every halo crosses a real loopback socket
/// through [`NetBus`] — and, in chaos mode, through an in-path
/// [`ChaosProxy`] per shard. Collects block up to the halo deadline
/// (pushes are asynchronous; the deadline is how network faults turn into
/// ladder rungs). Everything downstream of the transport is the identical
/// [`ShardWorker`] cycle code, so a clean socket run is bit-identical to
/// the file run and to single-process.
pub type NetFederation<T> = Federation<T, NetBus>;

impl<T: Real, B: HaloTransport> Federation<T, B> {
    fn launch(
        cfg: FederationConfig,
        net: NetTuning,
        open_bus: fn(&FederationConfig, &NetTuning, usize) -> Result<B, String>,
        proxies: Vec<ChaosProxy>,
    ) -> Result<Self, String> {
        let mut fed = Self {
            cfg,
            net,
            workers: Vec::new(),
            open_bus,
            _proxies: proxies,
        };
        for s in 0..fed.cfg.n_shards {
            let (w, _) = fed.start_worker(s)?;
            fed.workers.push(w);
        }
        Ok(fed)
    }

    /// Open shard `s`'s bus and start (or resume) its worker; the flag
    /// says whether a checkpoint was resumed.
    fn start_worker(&self, s: usize) -> Result<(ShardWorker<T, B>, bool), String> {
        let mut sc = self.cfg.shard_config(s);
        sc.halo_deadline = self.net.halo_deadline;
        sc.poll = self.net.poll;
        let bus = (self.open_bus)(&self.cfg, &self.net, s)?;
        ShardWorker::start_or_resume_on(sc, bus)
    }

    /// Run the full campaign: every cycle applies scheduled virtual kills
    /// (drop + rebuild-from-checkpoint + replay), then all shards publish,
    /// then all shards collect.
    pub fn run(&mut self) -> Result<(), String> {
        for cycle in 0..bda_num::cast::u64_of(self.cfg.n_cycles) {
            for s in self
                .cfg
                .plan
                .shard_kills(bda_num::cast::index_of_u64(cycle))
            {
                self.respawn(s, cycle)?;
            }
            let mut pendings = Vec::with_capacity(self.workers.len());
            for w in &mut self.workers {
                pendings.push(w.run_cycle_publish(cycle)?);
            }
            for (w, p) in self.workers.iter_mut().zip(pendings) {
                w.run_cycle_collect(p, B::ASYNC_PUBLISH);
            }
        }
        Ok(())
    }

    /// Virtual SIGKILL of shard `s` at the start of `cycle`: the worker
    /// *and its bus* are dropped (on sockets: listener closed, links cut —
    /// a real dead process), a fresh one resumes from its own scoped
    /// checkpoint, and the missed cycles are replayed. On the file spool
    /// the peers' frames for those cycles are still there and republishes
    /// are idempotent; over sockets the fresh bus starts under a bumped
    /// epoch, replay collects pull missed halos from peer history via
    /// `REQ`, and anything still written by the old instance is fenced off
    /// as a typed stale reject. Either way the replay reconverges
    /// bit-for-bit before `cycle` begins.
    pub fn respawn(&mut self, s: usize, cycle: u64) -> Result<(), String> {
        // Drop first: kill semantics, and it frees the registry slot.
        let _ = self.workers.remove(s);
        let (mut w, resumed) = self.start_worker(s)?;
        if !resumed && cycle > 0 {
            return Err(format!(
                "shard {s} killed at cycle {cycle} but no checkpoint found"
            ));
        }
        while w.next_cycle() < cycle {
            let c = w.next_cycle();
            let p = w.run_cycle_publish(c)?;
            w.run_cycle_collect(p, B::ASYNC_PUBLISH);
        }
        self.workers.insert(s, w);
        Ok(())
    }

    /// Shard `s`'s outcome table.
    pub fn table(&self, s: usize) -> String {
        self.workers[s].table()
    }
}

impl<T: Real> LocalFederation<T> {
    /// Build and start (or resume) every shard worker on the file spool
    /// under `<dir>/bus`.
    pub fn start(cfg: FederationConfig) -> Result<Self, String> {
        let open_bus = |cfg: &FederationConfig, _: &NetTuning, _: usize| {
            HaloBus::new(cfg.dir.join("bus")).map_err(|e| format!("open bus: {e}"))
        };
        Self::launch(cfg, NetTuning::default(), open_bus, Vec::new())
    }
}

/// Tuning knobs for an in-process *socket* federation — how long a
/// collect waits (short, so injected network faults expire onto the
/// ladder within test time) and whether the chaos proxies sit in-path.
#[derive(Clone, Debug)]
pub struct NetTuning {
    /// Blocking-collect deadline per peer halo.
    pub halo_deadline: Duration,
    pub poll: Duration,
    /// Put a [`ChaosProxy`] in front of every shard and route the fault
    /// plan's network faults through it.
    pub chaos: bool,
    /// How long a `netstall` holds a message — keep it beyond
    /// `halo_deadline` so stalled peers degrade instead of racing.
    pub stall_delay: Duration,
    pub seed: u64,
}

impl Default for NetTuning {
    fn default() -> Self {
        Self {
            halo_deadline: Duration::from_millis(1500),
            poll: Duration::from_millis(5),
            chaos: false,
            stall_delay: Duration::from_millis(2500),
            seed: 0xC_4A05,
        }
    }
}

impl<T: Real> NetFederation<T> {
    /// Start every shard on its own socket bus (and, in chaos mode, its
    /// own in-path proxy).
    pub fn start(cfg: FederationConfig, net: NetTuning) -> Result<Self, String> {
        let proxies = if net.chaos {
            (0..cfg.n_shards)
                .map(|s| {
                    ChaosProxy::start(
                        s,
                        cfg.plan.clone(),
                        cfg.dir.join("bus"),
                        net.stall_delay,
                        net.seed ^ 0x9E37,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?
        } else {
            Vec::new()
        };
        let open_bus = |cfg: &FederationConfig, net: &NetTuning, s: usize| {
            let mut bc = NetBusConfig::new(s, cfg.n_shards);
            bc.raw_registry = net.chaos;
            bc.seed ^= net.seed;
            NetBus::start(bc, cfg.dir.join("bus"))
        };
        Self::launch(cfg, net, open_bus, proxies)
    }
}
