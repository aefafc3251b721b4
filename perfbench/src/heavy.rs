//! `heavy_rain_cycle`: the single-process OSSE cycle (part <1> of the
//! paper) in a raining case, closed loop: each cycle is due when the
//! previous one has produced its analysis map.

use crate::report::{masked_rmse, peak_rss_mb, state_digest, Agg, Report};
use crate::trace::{self, span};
use crate::{cpu_seconds, Args};
use bda_core::osse::{CycleOutcome, Osse, OsseConfig};
use bda_core::products::reflectivity_map;
use bda_letkf::diagnostics::innovation_statistics;
use bda_letkf::obs::QcPipeline;
use bda_letkf::{analyze_quorum_region, AnalysisStats, ObsEnsemble};
use bda_num::SplitMix64;
use bda_pawr::operator::ensemble_equivalents;
use bda_scale::model::Boundary;
use bda_scale::{BaseState, ANALYZED_VARS};
use std::time::Instant;

/// The `heavy_rain_osse` case, spun up 900 model-s.
pub const SPINUP_S: f64 = 900.0;
/// Nominal cycle cost used to turn `--seconds` into a cycle count.
const NOMINAL_CYCLE_S: f64 = 0.8;

/// The case: `heavy_rain_osse`'s storm and ensemble (`reduced(20, 12, 12,
/// 4, 729)`), 43 dBZ after spin-up.
pub const STORM: u64 = 729;

/// The case's configuration. The benchmark seed is set afterwards as the
/// radar's noise seed (see [`crate::observe_with`]).
pub fn config() -> OsseConfig {
    OsseConfig::reduced(20, 12, 12, 4, STORM)
}

/// What one timed cycle produced.
struct Cycle {
    wall_s: f64,
    to_product_s: f64,
    out: CycleOutcome,
}

pub fn run(args: &Args, rep: &mut Report) {
    let t0 = Instant::now();
    let mut osse = Osse::<f32>::new(config());
    osse.spinup_system(SPINUP_S);
    crate::observe_with(&mut osse, args.seed);
    rep.sample("setup_s", "s", Agg::Median, t0.elapsed().as_secs_f64());
    let truth_max = osse.truth_max_dbz();
    rep.check(truth_max >= 30.0, || {
        format!("rain guard: truth maximum {truth_max:.1} dBZ < 30 dBZ at the first timed cycle")
    });

    let n = crate::cycles_for(args.seconds, NOMINAL_CYCLE_S);
    if !args.trace {
        let cycles: Vec<Cycle> = (0..n).map(|_| untraced_cycle(&mut osse)).collect();
        score(&osse, &cycles, rep);
        for c in &cycles {
            rep.sample("cycle_s", "s", Agg::Median, c.wall_s);
            rep.sample("scan_to_ack_p50_s", "s", Agg::Median, c.to_product_s);
            rep.sample("scan_to_ack_p90_s", "s", Agg::P90, c.to_product_s);
            rep.sample(
                "analysis_rmse_dbz",
                "dBZ",
                Agg::Mean,
                c.out.posterior_rmse_dbz,
            );
        }
        rep.sample("peak_rss_mb", "MB", Agg::Median, peak_rss_mb());
        return;
    }

    // Traced run: the same cycles twice from one post-spin-up state, first
    // through `Osse::cycle`, then through the public calls it makes, with
    // spans around each. Both must end in the same state, with the same
    // counts in every cycle.
    let n = (n / 2).max(3);
    let start = osse.snapshot_state();
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let plain: Vec<Cycle> = (0..n).map(|_| untraced_cycle(&mut osse)).collect();
    let busy = crate::cpu_busy_ratio(cpu0, t);
    let plain_digest = state_digest(&osse);
    score(&osse, &plain, rep);

    osse.restore_state(&start);
    let base = osse.base().clone();
    trace::install();
    let mut traced = Vec::with_capacity(n);
    for c in 0..n {
        let t = Instant::now();
        let out = traced_cycle(&mut osse, &base, c as u64);
        traced.push((t.elapsed().as_secs_f64(), out));
    }
    let spans = trace::finish();
    let traced_digest = state_digest(&osse);
    rep.check(plain_digest == traced_digest, || {
        format!("traced state digest {traced_digest:016x} != untraced {plain_digest:016x}")
    });
    for (c, (p, (_, o))) in plain.iter().zip(&traced).enumerate() {
        let (a, b) = (crate::outcome_counts(&p.out), crate::outcome_counts(o));
        let same = a == b && p.out.posterior_rmse_dbz.to_bits() == o.posterior_rmse_dbz.to_bits();
        rep.check(same, || {
            format!("traced cycle {c} differs from untraced: {b} vs {a}")
        });
    }

    let walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
    let plain_walls: Vec<f64> = plain.iter().map(|c| c.wall_s).collect();
    let outs: Vec<&CycleOutcome> = traced.iter().map(|(_, o)| o).collect();
    crate::layer_metrics(rep, &spans);
    let coverage = crate::closed_loop_coverage(&spans);
    let covered = crate::median(&coverage);
    rep.check(covered >= 0.9, || {
        format!("layer spans cover {covered:.3} of the traced cycle, below 0.9")
    });
    rep.samples("trace.coverage_ratio", "ratio", Agg::Median, &coverage);
    rep.sample(
        "trace.overhead_ratio",
        "ratio",
        Agg::Median,
        crate::overhead(&walls, &plain_walls),
    );
    crate::osse_counts(rep, &outs);
    let member_s = (osse.ensemble.size() + 1) as f64 * osse.cfg.cycle_interval;
    rep.sample("scale.member_seconds", "count", Agg::Median, member_s);
    rep.sample("proc.cpu_busy_ratio", "ratio", Agg::Median, busy);
    crate::write_spans(args, &spans);
}

/// One timed `Osse::cycle`, then the analysis map a user would see.
fn untraced_cycle(osse: &mut Osse<f32>) -> Cycle {
    let t = Instant::now();
    let out = osse.cycle();
    let wall_s = t.elapsed().as_secs_f64();
    std::hint::black_box(osse.mean_reflectivity_map(2000.0));
    Cycle {
        wall_s,
        to_product_s: t.elapsed().as_secs_f64(),
        out,
    }
}

/// Failures and the rain guard's skill half over the timed cycles.
fn score(osse: &Osse<f32>, cycles: &[Cycle], rep: &mut Report) {
    let k = osse.ensemble.size();
    for (c, cy) in cycles.iter().enumerate() {
        rep.op(crate::cycle_ok(&cy.out, k).map_err(|e| format!("cycle {c}: {e}")));
    }
    let skill = cycles
        .iter()
        .any(|c| c.out.posterior_rmse_dbz < c.out.prior_rmse_dbz);
    rep.check(skill, || {
        "rain guard: no cycle reduced the RMSE against truth".to_string()
    });
}

/// `Osse::cycle_begin(None)` + `cycle_finish`, made of the same public
/// calls in the same order, with a span around each layer's call.
fn traced_cycle(osse: &mut Osse<f32>, base: &BaseState<f32>, c: u64) -> CycleOutcome {
    let _cycle = span("cycle", c);
    let dt = osse.cfg.cycle_interval;
    let grid = osse.cfg.model.grid.clone();
    {
        let _s = span("scale.nature", c);
        osse.spinup_truth(dt);
    }
    let health = {
        let _s = span("scale.ensemble_forecast", c);
        let results = osse
            .ensemble
            .forecast_members(&osse.cfg.model, base, dt, |_| Boundary::BaseState);
        osse.ensemble.health_scan(&results, &osse.health_bounds)
    };
    osse.time += dt;
    assert!(health.n_alive() > 0, "every member died");
    let alive_flags = health.alive_flags();
    let alive_idx = health.alive();
    let floor = osse.cfg.radar.min_detectable_dbz;

    let scan = {
        let _s = span("pawr.scan", c);
        osse.radar()
            .scan(osse.truth(), base, &grid, osse.time, osse.cfg.seed)
    };
    let hx = {
        let _s = span("pawr.obs_operator", c);
        ensemble_equivalents(
            &scan.obs,
            &osse.ensemble.members,
            base,
            &grid,
            &osse.cfg.radar,
            floor,
        )
    };
    let n_obs_scanned = scan.obs.len();
    let hx: Vec<Vec<f32>> = hx
        .into_iter()
        .zip(&alive_flags)
        .filter(|(_, &a)| a)
        .map(|(h, _)| h)
        .collect();
    let (ens_obs, qc, (innovation_reflectivity, innovation_doppler)) = {
        let _s = span("letkf.qc", c);
        let ens_obs = ObsEnsemble::new(scan.obs, hx);
        let (ens_obs, qc) = QcPipeline::new(&osse.cfg.letkf).run(&ens_obs);
        let innov = innovation_statistics(&ens_obs);
        (ens_obs, qc, innov)
    };
    let n_obs_used = ens_obs.len();

    let (mask, truth_map, prior_rmse_dbz) = {
        let _s = span("core.diagnostics", c);
        let mask = osse.coverage_mask(2000.0);
        let truth_map = osse.truth_reflectivity_map(2000.0);
        let prior_map = reflectivity_map(
            &osse.ensemble.mean_of(&alive_idx),
            base,
            &grid,
            2000.0,
            floor,
        );
        let rmse = masked_rmse(&prior_map, &truth_map, &mask);
        (mask, truth_map, rmse)
    };

    let mut below_quorum = false;
    let analysis = if n_obs_used == 0 {
        AnalysisStats::default()
    } else {
        let mut flats: Vec<Vec<f32>> = {
            let _s = span("core.member_copy", c);
            osse.ensemble
                .members
                .iter()
                .map(|m| m.to_flat(&ANALYZED_VARS))
                .collect()
        };
        let result = {
            let _s = span("letkf.analysis", c);
            analyze_quorum_region(
                &mut flats,
                &alive_flags,
                osse.layout().clone(),
                &ens_obs,
                &osse.cfg.letkf,
                osse.min_quorum,
                None,
            )
        };
        match result {
            Ok(q) => {
                let _s = span("core.member_copy", c);
                for &m in &alive_idx {
                    osse.ensemble.members[m].from_flat(&ANALYZED_VARS, &flats[m]);
                    osse.ensemble.members[m].clamp_physical();
                }
                q.stats
            }
            Err(_) => {
                below_quorum = true;
                AnalysisStats::default()
            }
        }
    };

    let respawned = health.dead();
    if !respawned.is_empty() {
        let template = osse.ensemble.mean_of(&alive_idx);
        let mut rng = SplitMix64::from_state(osse.respawn_rng_state());
        for &m in &respawned {
            osse.ensemble.respawn(
                m,
                &template,
                &grid,
                &mut rng,
                osse.cfg.init_theta_sd,
                osse.cfg.init_qv_sd,
            );
        }
        osse.set_respawn_rng_state(rng.state());
    }

    let posterior_rmse_dbz = if analysis.points_analyzed > 0 {
        let _s = span("core.diagnostics", c);
        let post_map = osse.mean_reflectivity_map(2000.0);
        masked_rmse(&post_map, &truth_map, &mask)
    } else {
        prior_rmse_dbz
    };
    CycleOutcome {
        time: osse.time,
        n_obs_scanned,
        n_obs_used,
        qc,
        analysis,
        innovation_reflectivity,
        innovation_doppler,
        prior_rmse_dbz,
        posterior_rmse_dbz,
        n_alive: alive_idx.len(),
        member_errors: health.errors,
        respawned,
        below_quorum,
    }
}
