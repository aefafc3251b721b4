//! `nowcast`: the live three-stage pipeline (Fig. 4) driven open loop
//! through `CycleSupervisor::run_with_egress`, with a `NowcastServer`
//! publishing each cycle's forecast to two loopback subscribers.
//!
//! Scans are due on a fixed period (the 30-s refresh, time-compressed to
//! [`PERIOD_S`]) whatever the pipeline is doing, so a stall delays every
//! later product. Latency runs from a scan's due time to the last
//! subscriber's ack; a product not acked before the next scan is due is a
//! miss.

use crate::report::{masked_rmse, peak_rss_mb, Agg, Report};
use crate::trace::{self, span};
use crate::{cpu_seconds, Args};
use bda_core::osse::{Osse, OsseConfig};
use bda_core::products::reflectivity_map;
use bda_letkf::obs::QcPipeline;
use bda_letkf::{analyze_quorum_region, ObsEnsemble};
use bda_pawr::operator::ensemble_equivalents;
use bda_pawr::{decode_volume, encode_volume};
use bda_scale::model::Boundary;
use bda_scale::{Ensemble, Model, ModelState, ANALYZED_VARS};
use bda_serve::{NowcastServer, ServeConfig, StormSwarm, SwarmConfig};
use bda_workflow::{CycleDisposition, CycleSupervisor, FaultPlan, ForecastInput};
use bytes::Bytes;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The quickstart case, spun up 840 model-s.
pub const SPINUP_S: f64 = 840.0;
/// Wall-clock scan period: the 30-s refresh, time-compressed. It is also
/// the latency limit.
pub const PERIOD_S: f64 = 0.9;
/// Model seconds per cycle and length of the forecast product.
const CYCLE_S: f64 = 30.0;
const FORECAST_S: f64 = 120.0;
const SUBSCRIBERS: usize = 2;
/// Give up waiting for acks this long after a product was due.
const ACK_GIVE_UP: Duration = Duration::from_secs(5);

/// The case: the quickstart's storm and ensemble (`reduced(16, 10, 10, 3,
/// 42)`), 33 dBZ after spin-up.
pub const STORM: u64 = 42;

/// The case's configuration. The benchmark seed is set afterwards as the
/// radar's noise seed (see [`crate::observe_with`]).
pub fn config() -> OsseConfig {
    OsseConfig::reduced(16, 10, 10, 3, STORM)
}

/// What one cycle measured, filled in by the stage closures.
#[derive(Clone, Default)]
struct Rec {
    late_s: f64,
    work_s: f64,
    ack_s: Option<f64>,
    prior_rmse: f64,
    post_rmse: f64,
    volume_bytes: usize,
    scanned: usize,
    used: usize,
    qc_total: usize,
    points: usize,
    local_obs: u64,
    frames: usize,
    bytes: usize,
    evicted: usize,
    /// The supervisor's own stage split (`CycleReport::timing`).
    transfer_s: f64,
    assim_stage_s: f64,
    forecast_stage_s: f64,
    drops: usize,
}

struct Pipeline {
    osse: Osse<f32>,
    ensemble: Ensemble<f32>,
    forecaster: Model<f32>,
    server: NowcastServer,
    mask: Vec<bool>,
    /// Next publish index on the server.
    published: u64,
}

pub fn run(args: &Args, rep: &mut Report) {
    let t0 = Instant::now();
    let cfg = config();
    let mut osse = Osse::<f32>::new(cfg.clone());
    osse.spinup_system(SPINUP_S);
    crate::observe_with(&mut osse, args.seed);
    let ensemble = Ensemble {
        members: std::mem::take(&mut osse.ensemble.members),
    };
    let forecaster = Model::from_parts(cfg.model.clone(), osse.base().clone());
    let server = match NowcastServer::bind(ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => return rep.op(Err(format!("bind: {e}"))),
    };
    let swarm = StormSwarm::launch(
        server.local_addr(),
        SwarmConfig {
            clients: SUBSCRIBERS,
            seed: args.seed,
            never_ack: 0.0,
            mid_stream_disconnect: 0.0,
        },
        FaultPlan::none(),
    );
    let mask = osse.coverage_mask(2000.0);
    let mut p = Pipeline {
        osse,
        ensemble,
        forecaster,
        server,
        mask,
        published: 0,
    };
    let admitted = p.reset_product();
    rep.sample("setup_s", "s", Agg::Median, t0.elapsed().as_secs_f64());
    rep.check(admitted, || {
        format!("{SUBSCRIBERS} subscribers were not admitted and acked during set-up")
    });
    let truth_max = p.osse.truth_max_dbz();
    rep.check(truth_max >= 30.0, || {
        format!("rain guard: truth maximum {truth_max:.1} dBZ < 30 dBZ at the first timed cycle")
    });

    let n = crate::cycles_for(args.seconds, PERIOD_S);
    if !args.trace {
        let recs = p.cycles(n, rep);
        score(&recs, rep);
        for r in &recs {
            rep.sample("cycle_s", "s", Agg::Median, r.work_s);
            let ack = r.ack_s.unwrap_or(ACK_GIVE_UP.as_secs_f64());
            rep.sample("scan_to_ack_p50_s", "s", Agg::Median, ack);
            rep.sample("scan_to_ack_p90_s", "s", Agg::P90, ack);
            rep.sample("analysis_rmse_dbz", "dBZ", Agg::Mean, r.post_rmse);
        }
        rep.sample("peak_rss_mb", "MB", Agg::Median, peak_rss_mb());
    } else {
        // The same cycles twice from one state: untraced, then traced. Both
        // must end in the same ensemble, with the same counts in every
        // cycle.
        let n = (n / 2).max(4);
        let (nature, members) = (p.osse.snapshot_state(), p.ensemble.members.clone());
        let cpu0 = cpu_seconds();
        let t = Instant::now();
        let plain = p.cycles(n, rep);
        let busy = crate::cpu_busy_ratio(cpu0, t);
        let plain_digest = ensemble_digest(&p.ensemble);
        score(&plain, rep);

        p.osse.restore_state(&nature);
        p.ensemble.members = members;
        let reset = p.reset_product();
        rep.check(reset, || {
            "subscribers did not ack the reset product".to_string()
        });
        trace::install();
        let traced = p.cycles(n, rep);
        let spans = trace::finish();
        let traced_digest = ensemble_digest(&p.ensemble);
        rep.check(plain_digest == traced_digest, || {
            format!("traced ensemble digest {traced_digest:016x} != untraced {plain_digest:016x}")
        });
        for (c, (a, b)) in plain.iter().zip(&traced).enumerate() {
            rep.check(counts(a) == counts(b), || {
                format!(
                    "traced cycle {c} counts differ: {} vs {}",
                    counts(b),
                    counts(a)
                )
            });
        }

        crate::layer_metrics(rep, &spans);
        let work = |rs: &[Rec]| rs.iter().map(|r| r.work_s).collect::<Vec<_>>();
        rep.sample(
            "trace.overhead_ratio",
            "ratio",
            Agg::Median,
            crate::overhead(&work(&traced), &work(&plain)),
        );
        rep.samples(
            "trace.coverage_ratio",
            "ratio",
            Agg::Median,
            &coverage(&spans),
        );
        rep.sample("proc.cpu_busy_ratio", "ratio", Agg::Median, busy);
        let k = p.ensemble.members.len() as f64;
        for r in &traced {
            let per_cycle = [
                (
                    "scale.member_seconds",
                    "count",
                    (k + 1.0) * CYCLE_S + FORECAST_S,
                ),
                (
                    "letkf.qc_accept_ratio",
                    "ratio",
                    r.used as f64 / r.qc_total.max(1) as f64,
                ),
                ("letkf.points_analyzed", "count", r.points as f64),
                (
                    "letkf.mean_local_obs",
                    "count",
                    r.local_obs as f64 / r.points.max(1) as f64,
                ),
                ("pawr.obs_scanned", "count", r.scanned as f64),
                ("pawr.volume_bytes", "bytes", r.volume_bytes as f64),
                ("serve.frames_per_cycle", "count", r.frames as f64),
                ("serve.bytes_per_cycle", "bytes", r.bytes as f64),
                ("serve.evicted", "count", r.evicted as f64),
                ("bench.generator_late_s", "s", r.late_s),
                ("jitdt.transfer_s", "s", r.transfer_s),
                ("jitdt.drops", "count", r.drops as f64),
                ("workflow.assim_stage_s", "s", r.assim_stage_s),
                ("workflow.forecast_stage_s", "s", r.forecast_stage_s),
            ];
            for (name, unit, v) in per_cycle {
                rep.sample(name, unit, Agg::Median, v);
            }
        }
        crate::write_spans(args, &spans);
    }

    let serve = p.server.shutdown(Duration::from_secs(2));
    let swarm = swarm.finish();
    rep.check(serve.evicted() == 0, || {
        format!(
            "{} subscriber(s) evicted: {}",
            serve.evicted(),
            serve.summary()
        )
    });
    rep.check(swarm.decode_errors() == 0, || {
        format!("{} decode error(s) at subscribers", swarm.decode_errors())
    });
}

/// The per-cycle counts that must repeat exactly when the cycles are run
/// again from the same state.
fn counts(r: &Rec) -> String {
    format!(
        "scanned {} used {} points {} local_obs {} volume {} frames {} bytes {}",
        r.scanned, r.used, r.points, r.local_obs, r.volume_bytes, r.frames, r.bytes
    )
}

fn score(recs: &[Rec], rep: &mut Report) {
    let skill = recs.iter().any(|r| r.post_rmse < r.prior_rmse);
    rep.check(skill, || {
        "rain guard: no cycle reduced the RMSE against truth".to_string()
    });
    // Open-loop honesty: with a growing backlog every product is later
    // than the one before, so the last decile's latency pulls away from
    // the first decile's.
    let lat: Vec<f64> = recs
        .iter()
        .map(|r| r.ack_s.unwrap_or(ACK_GIVE_UP.as_secs_f64()))
        .collect();
    let d = (lat.len() / 10).max(1);
    let (first, last) = (
        crate::median(&lat[..d]),
        crate::median(&lat[lat.len() - d..]),
    );
    rep.op(if last <= first + 0.5 * PERIOD_S {
        Ok(())
    } else {
        Err(format!(
            "backlog grows: last-decile latency {last:.3} s vs first-decile {first:.3} s"
        ))
    });
}

/// Per cycle, the share of due-to-ack time spent inside a stage span of
/// that cycle (union over the pipeline's threads).
fn coverage(spans: &[trace::Span]) -> Vec<f64> {
    use std::collections::BTreeMap;
    let mut by: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut window: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in spans {
        if s.name == "nowcast.latency" {
            window.insert(s.cycle, (s.start, s.end));
        } else if s.parent.is_none() {
            by.entry(s.cycle).or_default().push((s.start, s.end));
        }
    }
    window
        .iter()
        .map(|(c, &(t0, t1))| {
            let mut iv = by.remove(c).unwrap_or_default();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, t0);
            for (a, b) in iv {
                let (a, b) = (a.max(reach), b.min(t1));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered / (t1 - t0)
        })
        .collect()
}

fn ensemble_digest(e: &Ensemble<f32>) -> u64 {
    let mut bytes = Vec::new();
    for m in &e.members {
        for v in m.to_flat(&bda_scale::state::PrognosticVar::ALL) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    bda_num::fnv1a(&bytes)
}

impl Pipeline {
    /// Publish an empty product until every subscriber is admitted and has
    /// acknowledged it, so each phase's first delta is against the same
    /// base. Returns false if that never happens.
    fn reset_product(&mut self) -> bool {
        let grid = &self.osse.cfg.model.grid;
        let blank = vec![0.0; grid.nx * grid.ny];
        for _ in 0..50 {
            let c = self.published;
            self.published += 1;
            if self
                .server
                .publish(c, &blank, grid.nx, grid.ny, false)
                .is_err()
            {
                return false;
            }
            let t = Instant::now();
            while t.elapsed() < Duration::from_millis(200) {
                self.server.pump_all();
                if self.server.client_count() == SUBSCRIBERS && self.server.fully_acked() {
                    return true;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        false
    }

    /// Run `n` paced cycles through the supervisor.
    fn cycles(&mut self, n: usize, rep: &mut Report) -> Vec<Rec> {
        let recs: Vec<Mutex<Rec>> = (0..n).map(|_| Mutex::new(Rec::default())).collect();
        let truth_maps: Vec<Mutex<Vec<f64>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let product: Mutex<Option<Vec<f64>>> = Mutex::new(None);
        let cfg = self.osse.cfg.clone();
        let grid = cfg.model.grid.clone();
        let base = self.osse.base().clone();
        let layout = self.osse.layout().clone();
        let floor = cfg.radar.min_detectable_dbz;
        let k = self.ensemble.members.len();
        let min_quorum = self.osse.min_quorum;
        let first_publish = self.published;
        self.published += n as u64;
        let Pipeline {
            osse,
            ensemble,
            forecaster,
            server,
            mask,
            ..
        } = self;
        let mask: &[bool] = mask;
        let (cfg, grid, base, layout) = (&cfg, &grid, &base, &layout);
        let (recs, truth_maps, product) = (&recs, &truth_maps, &product);
        let t_start = osse.time;
        let start = Instant::now() + Duration::from_millis(50);
        let due = |c: usize| start + Duration::from_secs_f64(PERIOD_S * c as f64);

        let report = CycleSupervisor::default().run_with_egress(
            n,
            // Radar thread: advance the truth, scan it, encode the volume.
            move |c| {
                let now = Instant::now();
                if now < due(c) {
                    std::thread::sleep(due(c) - now);
                }
                let t = Instant::now();
                let cu = c as u64;
                let _s = span("nowcast.radar", cu);
                {
                    let _s = span("scale.nature", cu);
                    osse.spinup_truth(CYCLE_S);
                }
                osse.time = t_start + CYCLE_S * (c + 1) as f64;
                {
                    let _s = span("core.diagnostics", cu);
                    *truth_maps[c].lock().unwrap() = osse.truth_reflectivity_map(2000.0);
                }
                let scan = {
                    let _s = span("pawr.scan", cu);
                    osse.radar()
                        .scan(osse.truth(), base, grid, osse.time, cfg.seed)
                };
                let bytes = {
                    let _s = span("pawr.codec", cu);
                    encode_volume(&scan)
                };
                let mut r = recs[c].lock().unwrap();
                r.late_s = t.saturating_duration_since(due(c)).as_secs_f64();
                r.volume_bytes = bytes.len();
                r.work_s += t.elapsed().as_secs_f64();
                Ok(bytes)
            },
            // Assimilation thread: decode, ensemble forecast, observation
            // operator, QC, LETKF.
            |c, bytes: Bytes| {
                let t = Instant::now();
                let cu = c as u64;
                let _s = span("nowcast.assimilate", cu);
                let vol = {
                    let _s = span("pawr.codec", cu);
                    decode_volume::<f32>(&bytes).map_err(|e| format!("decode: {e:?}"))?
                };
                {
                    let _s = span("scale.ensemble_forecast", cu);
                    let results = ensemble
                        .forecast_members(&cfg.model, base, CYCLE_S, |_| Boundary::BaseState);
                    let health = ensemble.health_scan(&results, &Default::default());
                    if health.n_alive() != k {
                        return Err(format!("{} of {k} members alive", health.n_alive()));
                    }
                }
                let hx = {
                    let _s = span("pawr.obs_operator", cu);
                    ensemble_equivalents(&vol.obs, &ensemble.members, base, grid, &cfg.radar, floor)
                };
                let scanned = vol.obs.len();
                let (obs, qc) = {
                    let _s = span("letkf.qc", cu);
                    QcPipeline::new(&cfg.letkf).run(&ObsEnsemble::new(vol.obs, hx))
                };
                let truth = truth_maps[c].lock().unwrap().clone();
                let prior_rmse = {
                    let _s = span("core.diagnostics", cu);
                    let map = reflectivity_map(&ensemble.mean(), base, grid, 2000.0, floor);
                    masked_rmse(&map, &truth, mask)
                };
                let mut flats: Vec<Vec<f32>> = {
                    let _s = span("core.member_copy", cu);
                    ensemble
                        .members
                        .iter()
                        .map(|m| m.to_flat(&ANALYZED_VARS))
                        .collect()
                };
                let stats = {
                    let _s = span("letkf.analysis", cu);
                    analyze_quorum_region(
                        &mut flats,
                        &vec![true; k],
                        layout.clone(),
                        &obs,
                        &cfg.letkf,
                        min_quorum,
                        None,
                    )
                    .map_err(|e| format!("analysis: {e}"))?
                    .stats
                };
                {
                    let _s = span("core.member_copy", cu);
                    for (m, f) in ensemble.members.iter_mut().zip(&flats) {
                        m.from_flat(&ANALYZED_VARS, f);
                        m.clamp_physical();
                    }
                }
                let (mean, post_rmse) = {
                    let _s = span("core.diagnostics", cu);
                    let mean = ensemble.mean();
                    let map = reflectivity_map(&mean, base, grid, 2000.0, floor);
                    let rmse = masked_rmse(&map, &truth, mask);
                    (mean, rmse)
                };
                let mut r = recs[c].lock().unwrap();
                r.prior_rmse = prior_rmse;
                r.post_rmse = post_rmse;
                r.scanned = scanned;
                r.used = obs.len();
                r.qc_total = qc.total;
                r.points = stats.points_analyzed;
                r.local_obs = stats.total_local_obs;
                r.work_s += t.elapsed().as_secs_f64();
                Ok(mean)
            },
            // Forecast thread: a 120-s forecast from the analysis mean, then
            // its 2-km reflectivity map.
            |c, input: ForecastInput<'_, ModelState<f32>>| {
                let t = Instant::now();
                let cu = c as u64;
                let _s = span("nowcast.forecast", cu);
                let mean = match input {
                    ForecastInput::Analysis(m) | ForecastInput::PreviousAnalysis(m) => m,
                    ForecastInput::Persistence => return Err("no analysis".to_string()),
                };
                {
                    let _s = span("scale.extended_forecast", cu);
                    let _ = forecaster.swap_state(mean.clone());
                    forecaster
                        .integrate(FORECAST_S)
                        .map_err(|e| format!("forecast blew up: {e:?}"))?;
                }
                let map = {
                    let _s = span("core.diagnostics", cu);
                    reflectivity_map(&forecaster.state, base, grid, 2000.0, floor)
                };
                *product.lock().unwrap() = Some(map);
                recs[c].lock().unwrap().work_s += t.elapsed().as_secs_f64();
                Ok(())
            },
            // Egress, on the forecast thread: publish, then wait until every
            // subscriber has acked.
            |c, disposition| {
                let cu = c as u64;
                let map = product.lock().unwrap().take();
                let (Some(map), CycleDisposition::Completed) = (map, disposition) else {
                    return Some("not published".to_string());
                };
                let t = Instant::now();
                let _s = span("nowcast.egress", cu);
                let published = {
                    let _s = span("serve.publish", cu);
                    server.publish(first_publish + cu, &map, grid.nx, grid.ny, false)
                };
                let Ok(pr) = published else {
                    return Some("publish failed".to_string());
                };
                let acked = {
                    let _s = span("serve.ack_wait", cu);
                    loop {
                        server.pump_all();
                        if server.fully_acked() {
                            break true;
                        }
                        if Instant::now() > due(c) + ACK_GIVE_UP {
                            break false;
                        }
                        std::thread::sleep(Duration::from_micros(50));
                    }
                };
                let now = Instant::now();
                let mut r = recs[c].lock().unwrap();
                r.work_s += (now - t).as_secs_f64();
                r.ack_s = acked.then(|| now.saturating_duration_since(due(c)).as_secs_f64());
                r.frames = pr.frames;
                r.bytes = pr.delta_bytes;
                r.evicted = pr.evicted;
                trace::record("nowcast.latency", cu, due(c), now);
                None
            },
        );

        for cr in &report.cycles {
            let ok = matches!(cr.disposition, CycleDisposition::Completed);
            let acked = recs[cr.cycle].lock().unwrap().ack_s;
            rep.op(match (ok, acked) {
                (false, _) => Err(format!("cycle {}: {}", cr.cycle, cr.disposition.label())),
                (true, None) => Err(format!("cycle {}: product never acked", cr.cycle)),
                (true, Some(l)) if l > PERIOD_S => Err(format!(
                    "cycle {}: acked {l:.3} s after due, limit {PERIOD_S} s",
                    cr.cycle
                )),
                _ => Ok(()),
            });
            let mut r = recs[cr.cycle].lock().unwrap();
            r.drops = cr.drops.len();
            if let Some(t) = &cr.timing {
                r.transfer_s = t.transfer_s;
                r.assim_stage_s = t.assimilation_s;
                r.forecast_stage_s = t.forecast_s;
            }
        }
        recs.iter().map(|r| r.lock().unwrap().clone()).collect()
    }
}
