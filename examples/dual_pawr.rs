//! Dual-PAWR federation — two MP-PAWRs assimilated across shard processes.
//!
//! "We have new MP-PAWRs installed in Osaka and Kobe, and the dual coverage
//! is available. Our recent simulation study ... suggested that multiple
//! PAWR coverage be beneficial for disastrous heavy rain prediction"
//! (Maejima et al. 2022, the paper's §8 outlook). The default mode makes
//! that outlook *operational*: the two-radar network drives a sharded
//! federation ([`bda::shard::LocalFederation`], S=2) — every shard
//! assimilates both radars' observations over its own x-strip and
//! assembles the rest from peer halos — and the example verifies the
//! federated analysis is **bit-identical** to the single-process dual-radar
//! run, failing (non-zero exit) otherwise. Coverage and analysis-quality
//! numbers against a single radar are reported alongside.
//!
//! ```text
//! cargo run --release --example dual_pawr [-- --cycles N] [--shards S]
//! cargo run --release --example dual_pawr -- --legacy   # original study
//! ```
//!
//! `--legacy` keeps the original single-process coverage study (single vs
//! dual radar, no federation).

use bda::core::osse::{Osse, OsseConfig};
use bda::shard::{FederationConfig, LocalFederation};
use bda_bench::cli;

const SPINUP_S: f64 = 840.0;

fn dual_config() -> OsseConfig {
    OsseConfig::reduced(18, 10, 10, 3, 515).with_dual_radar()
}

/// Default mode: the dual-radar OSSE federated over `shards` shard
/// workers, bit-audited against the identical single-process run.
fn federated_main(cycles: usize, shards: usize) -> i32 {
    println!("=== dual-PAWR federation: 2 radars x {shards} shards x {cycles} cycles ===\n");

    // Single-process reference, same seed, same network, same spin-up —
    // every shard repeats the identical deterministic spin-up, which is
    // what lets the strips line up bit-for-bit afterwards.
    let mut reference = Osse::<f32>::new(dual_config());
    reference.spinup_system(SPINUP_S);
    let coverage = reference
        .coverage_mask(2000.0)
        .iter()
        .filter(|&&v| v)
        .count();
    let mut obs_used = 0;
    let mut last_rmse = f64::NAN;
    for out in reference.run_cycles(cycles) {
        obs_used = out.n_obs_used;
        last_rmse = out.posterior_rmse_dbz;
    }
    let ref_bits: Vec<Vec<u32>> = reference
        .analyzed_flats()
        .iter()
        .map(|f| f.iter().map(|v| v.to_bits()).collect())
        .collect();

    // The same campaign, sharded: each worker analyzes its x-strip of the
    // dual-coverage domain and assembles the peers' strips from halos.
    let dir = std::env::temp_dir().join(format!("bda-dual-pawr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FederationConfig::new(dual_config(), shards, cycles, dir.clone());
    cfg.spinup_seconds = SPINUP_S;
    let mut fed = match LocalFederation::<f32>::start(cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("federation start: {e}");
            return 1;
        }
    };
    if let Err(e) = fed.run() {
        eprintln!("federation run: {e}");
        return 1;
    }

    let mut failures = 0;
    for (s, w) in fed.workers.iter().enumerate() {
        let bits: Vec<Vec<u32>> = w
            .osse
            .analyzed_flats()
            .iter()
            .map(|f| f.iter().map(|v| v.to_bits()).collect())
            .collect();
        if bits == ref_bits {
            println!("shard {s}: assembled dual-radar ensemble bit-identical to single-process");
        } else {
            eprintln!("shard {s}: FAIL — assembled ensemble diverged from reference");
            failures += 1;
        }
    }
    println!("\n{}", fed.table(0));
    println!(
        "dual coverage: {coverage} cells at 2 km, {obs_used} obs/cycle, final posterior RMSE {last_rmse:.3} dBZ"
    );
    let _ = std::fs::remove_dir_all(&dir);
    if failures == 0 {
        println!(
            "\ndual-PAWR federation OK: both radars, {shards} shards, one analysis — bit for bit"
        );
        0
    } else {
        eprintln!("\ndual-PAWR federation FAILED: {failures} shard(s) diverged");
        1
    }
}

/// `--legacy`: the original single-vs-dual coverage study.
fn legacy_run(label: &str, dual: bool, cycles: usize) -> (f64, usize, usize) {
    let mut cfg = OsseConfig::reduced(18, 10, 10, 3, 515);
    if dual {
        cfg = cfg.with_dual_radar();
    } else {
        // Match the dual setup's per-radar range so the comparison is about
        // geometry, not raw reach.
        cfg.radar.range_max = cfg.model.grid.lx() * 0.75;
        cfg.radar.x = cfg.model.grid.lx() * 0.3;
        cfg.radar.y = cfg.model.grid.ly() * 0.35;
    }
    let grid = cfg.model.grid.clone();
    let mut osse = Osse::<f32>::new(cfg);
    osse.spinup_system(840.0);

    let covered = osse.coverage_mask(2000.0).iter().filter(|&&v| v).count();
    let mut last_rmse = f64::NAN;
    let mut obs_used = 0;
    for out in osse.run_cycles(cycles) {
        last_rmse = out.posterior_rmse_dbz;
        obs_used = out.n_obs_used;
    }
    println!(
        "{label:<14} coverage {covered:>4}/{} cells  obs/cycle {obs_used:>6}  final posterior RMSE {last_rmse:.3} dBZ",
        grid.nx * grid.ny
    );
    (last_rmse, covered, obs_used)
}

fn legacy_main(cycles: usize) -> i32 {
    println!("=== dual-PAWR coverage study (§8 / Maejima et al. 2022) ===\n");
    let (single_rmse, single_cov, single_obs) = legacy_run("single radar", false, cycles);
    let (dual_rmse, dual_cov, dual_obs) = legacy_run("dual network", true, cycles);

    println!("\nsummary:");
    println!(
        "  coverage gain: {:+.0}% of the domain",
        (dual_cov as f64 - single_cov as f64) / (18.0 * 18.0) * 100.0
    );
    println!(
        "  observation gain: {:.1}x per cycle",
        dual_obs as f64 / single_obs.max(1) as f64
    );
    if dual_rmse < single_rmse {
        println!(
            "  analysis RMSE: {single_rmse:.3} -> {dual_rmse:.3} dBZ ({:.0}% better with dual coverage)",
            (1.0 - dual_rmse / single_rmse) * 100.0
        );
        println!("\nthe dual network fills the single radar's blind spots and adds a second");
        println!("Doppler look angle over the overlap — the benefit §8 anticipates for Expo 2025.");
    } else {
        println!(
            "  analysis RMSE: {single_rmse:.3} vs {dual_rmse:.3} dBZ (no gain at this scale/seed; try more --cycles)"
        );
    }
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let cycles = cli::flag(&argv, "--cycles").unwrap_or(4);
    let code = if argv.iter().any(|a| a == "--legacy") {
        legacy_main(cycles)
    } else {
        federated_main(cycles, cli::flag(&argv, "--shards").unwrap_or(2))
    };
    std::process::exit(code);
}
