//! Shard-federation correctness, anchored the hard way.
//!
//! 1. **Bit-parity**: a seeded OSSE produces a bit-identical analysis
//!    single-process vs S=2 and S=4 shards when no faults are injected —
//!    member states compared by bit pattern, outcome tables by bytes.
//! 2. **Kill/resume**: a virtually SIGKILLed shard resumes from its own
//!    scoped checkpoint mid-campaign and the federation's final tables
//!    and states still match the unfaulted run exactly.
//! 3. **Ladder determinism**: `halodrop`/`shardstall` scenarios land on
//!    exact expected outcome tables (the affected cycle degrades to
//!    `halo-reuse` on every *peer*, the faulty shard itself completes).

use bda::core::osse::{Osse, OsseConfig};
use bda::shard::federation::NetTuning;
use bda::shard::{FederationConfig, LocalFederation, NetFederation};
use bda::workflow::{Fault, FaultPlan};
use std::path::PathBuf;

const CYCLES: usize = 3;

fn config() -> OsseConfig {
    OsseConfig::reduced(10, 8, 6, 2, 11)
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bda-shard-parity-{tag}-{}", std::process::id()))
}

fn member_bits(flats: &[Vec<f32>]) -> Vec<Vec<u32>> {
    flats
        .iter()
        .map(|f| f.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The single-process reference: same OSSE, same cycles, plus the
/// campaign-style outcome table for byte comparison.
fn reference() -> (Vec<Vec<u32>>, String, Vec<f64>) {
    let mut osse = Osse::<f32>::new(config());
    let mut records = Vec::new();
    let mut posteriors = Vec::new();
    for c in 0..CYCLES {
        let out = osse.cycle();
        posteriors.push(out.posterior_rmse_dbz);
        // Reuse the shard worker's record grammar via the same fields the
        // single-process campaign logs (bda_core::resume::record_of).
        let label = if out.below_quorum {
            "below-quorum"
        } else if out.n_obs_used == 0 {
            "forecast-only"
        } else if out.ensemble_degraded() {
            "degraded"
        } else {
            "completed"
        };
        let mut detail = format!(
            "alive {}, obs {}/{}, {}, rmse {:.9e}->{:.9e}",
            out.n_alive,
            out.n_obs_used,
            out.n_obs_scanned,
            out.qc.summary(),
            out.prior_rmse_dbz,
            out.posterior_rmse_dbz
        );
        if !out.respawned.is_empty() {
            detail.push_str(&format!(", respawned {:?}", out.respawned));
        }
        for e in &out.member_errors {
            detail.push_str(&format!(", {e}"));
        }
        records.push(bda::io::checkpoint::OutcomeRecord {
            cycle: c as u64,
            label: label.into(),
            detail,
            retries: 0,
        });
    }
    (
        member_bits(&osse.analyzed_flats()),
        bda::shard::outcome_table(&records),
        posteriors,
    )
}

fn run_federation(n_shards: usize, plan: FaultPlan, tag: &str) -> LocalFederation<f32> {
    let dir = tmp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FederationConfig::new(config(), n_shards, CYCLES, dir);
    cfg.plan = plan;
    let mut fed = LocalFederation::start(cfg).expect("federation start");
    fed.run().expect("federation run");
    fed
}

#[test]
fn sharded_analysis_is_bit_identical_to_single_process() {
    let (ref_bits, ref_table, ref_posteriors) = reference();
    for n_shards in [2usize, 4] {
        let fed = run_federation(n_shards, FaultPlan::none(), &format!("clean{n_shards}"));
        for (s, w) in fed.workers.iter().enumerate() {
            assert_eq!(
                member_bits(&w.osse.analyzed_flats()),
                ref_bits,
                "S={n_shards} shard {s}: assembled ensemble diverged from single-process"
            );
            assert_eq!(
                w.table(),
                ref_table,
                "S={n_shards} shard {s}: outcome table diverged"
            );
            for (c, out) in w.outcomes.iter().enumerate() {
                assert_eq!(
                    out.posterior_rmse_dbz.to_bits(),
                    ref_posteriors[c].to_bits(),
                    "S={n_shards} shard {s} cycle {c}: posterior RMSE diverged"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&fed.cfg.dir);
    }
}

#[test]
fn sigkilled_shard_resumes_from_its_own_checkpoint() {
    let (ref_bits, ref_table, _) = reference();
    // Kill shard 1 at the start of cycle 2: its in-memory state vanishes,
    // it must rebuild from its scoped checkpoint (written before cycle 1)
    // and replay cycle 1 from the halos still spooled on the bus.
    let plan = FaultPlan::none().with(2, Fault::ShardKill { shard: 1 });
    let fed = run_federation(2, plan, "kill");
    for (s, w) in fed.workers.iter().enumerate() {
        assert_eq!(
            member_bits(&w.osse.analyzed_flats()),
            ref_bits,
            "shard {s} diverged after the kill/resume"
        );
        assert_eq!(w.table(), ref_table, "shard {s} table diverged");
    }
    // The checkpoint directory is shared: both shards' scoped snapshots
    // coexist and neither scan crossed over (a cross-resume would have
    // broken the bit-parity asserted above). Both scopes must be present.
    let ckpt = fed.cfg.dir.join("ckpt");
    for scope in ["s000", "s001"] {
        assert!(
            bda::io::latest_checkpoint_scoped::<f32>(&ckpt, Some(scope))
                .expect("scan")
                .is_some(),
            "no scoped checkpoint for {scope}"
        );
    }
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

fn run_net_federation(n_shards: usize, plan: FaultPlan, tag: &str) -> NetFederation<f32> {
    let dir = tmp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FederationConfig::new(config(), n_shards, CYCLES, dir);
    cfg.plan = plan;
    let mut fed = NetFederation::start(cfg, NetTuning::default()).expect("net federation start");
    fed.run().expect("net federation run");
    fed
}

#[test]
fn socket_federation_is_bit_identical_to_single_process() {
    // The same parity anchor as the file bus, but every halo crossed a
    // real loopback socket (sealed BDAN frames, push + REQ-pull): the
    // transport seam must be invisible to the analysis.
    let (ref_bits, ref_table, ref_posteriors) = reference();
    for n_shards in [2usize, 4] {
        let fed = run_net_federation(n_shards, FaultPlan::none(), &format!("net{n_shards}"));
        for (s, w) in fed.workers.iter().enumerate() {
            assert_eq!(
                member_bits(&w.osse.analyzed_flats()),
                ref_bits,
                "S={n_shards} shard {s}: socket-federated ensemble diverged"
            );
            assert_eq!(
                w.table(),
                ref_table,
                "S={n_shards} shard {s}: outcome table diverged over sockets"
            );
            for (c, out) in w.outcomes.iter().enumerate() {
                assert_eq!(
                    out.posterior_rmse_dbz.to_bits(),
                    ref_posteriors[c].to_bits(),
                    "S={n_shards} shard {s} cycle {c}: posterior RMSE diverged over sockets"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&fed.cfg.dir);
    }
}

#[test]
fn sigkilled_shard_resumes_over_sockets_with_bit_parity() {
    // Kill shard 1 at the start of cycle 2 in a *socket* federation: the
    // respawn bumps its fenced epoch, and the replayed cycles pull every
    // missed halo from peer history via REQ — no file spool involved.
    let (ref_bits, ref_table, _) = reference();
    let plan = FaultPlan::none().with(2, Fault::ShardKill { shard: 1 });
    let fed = run_net_federation(2, plan, "netkill");
    for (s, w) in fed.workers.iter().enumerate() {
        assert_eq!(
            member_bits(&w.osse.analyzed_flats()),
            ref_bits,
            "shard {s} diverged after the socket kill/resume"
        );
        assert_eq!(w.table(), ref_table, "shard {s} table diverged");
        assert!(
            w.bus().epoch() >= 1,
            "shard {s} should be running under a fenced epoch"
        );
    }
    // The respawned shard runs under a bumped epoch; its peer fenced the
    // pre-kill instance out.
    assert_eq!(fed.workers[1].bus().epoch(), 2);
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

#[test]
fn halodrop_lands_on_the_exact_expected_table() {
    // Shard 0's halo for cycle 1 is dropped in transit: shard 1 reuses
    // shard 0's cycle-0 halo (flagged), shard 0 itself is unaffected.
    let plan = FaultPlan::none().with(1, Fault::HaloDrop { shard: 0 });
    let fed = run_federation(2, plan, "halodrop");
    let labels = |s: usize| -> Vec<String> {
        fed.workers[s]
            .records
            .iter()
            .map(|r| r.label.clone())
            .collect()
    };
    assert_eq!(labels(0), ["completed", "completed", "completed"]);
    assert_eq!(labels(1), ["completed", "halo-reuse", "completed"]);
    assert!(fed.workers[1].records[1]
        .detail
        .contains("reused halo of [0]"));
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}

#[test]
fn shardstall_degrades_peers_not_the_laggard() {
    // Shard 1 misses its halo deadline on cycle 1 (publishes a stall
    // marker): both peers step to halo-reuse; shard 1 completes its own
    // cycle late but intact.
    let plan = FaultPlan::none().with(1, Fault::ShardStall { shard: 1 });
    let fed = run_federation(3, plan, "stall");
    let labels = |s: usize| -> Vec<String> {
        fed.workers[s]
            .records
            .iter()
            .map(|r| r.label.clone())
            .collect()
    };
    assert_eq!(labels(0), ["completed", "halo-reuse", "completed"]);
    assert_eq!(labels(1), ["completed", "completed", "completed"]);
    assert_eq!(labels(2), ["completed", "halo-reuse", "completed"]);
    for s in [0, 2] {
        assert!(fed.workers[s].records[1]
            .detail
            .contains("reused halo of [1]"));
    }
    let _ = std::fs::remove_dir_all(&fed.cfg.dir);
}
