//! The live three-thread pipeline — Figs. 2 and 4 with real computation.
//!
//! A radar thread scans the (advancing) nature run and encodes each volume;
//! the bytes travel through the JIT-DT pipe to the assimilation thread,
//! which decodes, applies QC and runs the LETKF; the analysis mean is handed
//! to the forecast thread, which integrates it forward. The pipeline runs
//! under the fault-tolerant cycle supervisor; the per-cycle outcome table
//! (stage timings with the Fig. 4 segmentation) and availability (the
//! Fig. 5 accounting) are printed at the end.
//!
//! With `--inject` the requested faults are injected deterministically.
//!
//! With `--checkpoint-dir` (or `--resume`) the run switches to the
//! sequential checkpointed campaign: atomic CRC-checked snapshots are
//! written every `--every` cycles, member faults (`nan:M@C`, `blowup:M@C`)
//! exercise quarantine/respawn, and an injected `crash@C` kills the process
//! abruptly (exit 137, the `kill -9` stand-in) — re-running the same
//! command resumes from the newest valid snapshot bit-for-bit. The
//! deterministic outcome table can be diffed across runs via `--table-file`.
//!
//! ```text
//! cargo run --release --example realtime_pipeline [-- --cycles N] \
//!     [--inject "panic:assim@2,corrupt@3,stall@1x2,drop@4,dup@2,stale@3,nan:1@2,crash@3,random:SEED"] \
//!     [--checkpoint-dir DIR] [--every N] [--resume CKPT] [--table-file PATH]
//! ```
//!
//! The assimilation thread decodes each volume in salvage mode (keeping the
//! intact records of a corrupted transfer) and runs the multi-stage QC
//! pipeline; each cycle's QC accounting — accepted/total plus per-stage
//! rejections — is printed alongside the analysis.

use bda_bench::cli;
use bda_core::osse::{Osse, OsseConfig};
use bda_core::resume::OsseCampaign;
use bda_letkf::{analyze, EnsembleMatrix, ObsEnsemble, QcPipeline, StateLayout};
use bda_pawr::codec::{decode_volume_salvage, encode_volume, ValueBounds};
use bda_pawr::operator::ensemble_equivalents;
use bda_pawr::PawrSimulator;
use bda_scale::model::Boundary;
use bda_scale::{Ensemble, Model, ModelState, ANALYZED_VARS};
use bda_verify::maps::area_fraction;
use bda_workflow::{
    CampaignTermination, CycleSupervisor, FaultPlan, ForecastInput, ResumableCampaign,
};
use std::path::PathBuf;

/// The sequential checkpointed campaign: survives `kill -9`, resumes
/// bit-for-bit, and proves it through a timing-free outcome table.
fn run_checkpointed_campaign(
    n_cycles: usize,
    faults: FaultPlan,
    checkpoint_dir: Option<PathBuf>,
    every: usize,
    resume_from: Option<PathBuf>,
    table_file: Option<PathBuf>,
) {
    let mut osse = Osse::<f32>::new(OsseConfig::reduced(10, 8, 6, 2, 11));
    // Spin convection up before the campaign so every cycle assimilates a
    // live reflectivity field: the RMSE columns in the outcome table then
    // carry real float content, which is what makes the byte-level table
    // diffs (kill-and-resume, 1-vs-N-thread determinism parity) meaningful.
    // 1080 s is mid-storm for this config's 0-300 s trigger window; earlier
    // the field is below the detectability floor, later the cells decay.
    osse.spinup_system(1080.0);
    let mut app = OsseCampaign::new(osse, faults.clone());
    let campaign = ResumableCampaign {
        n_cycles,
        checkpoint_dir,
        checkpoint_every: every,
        faults,
    };
    let run = match &resume_from {
        Some(path) => campaign.resume(&mut app, path),
        None => campaign.run(&mut app),
    }
    .unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1);
    });
    if let CampaignTermination::Crashed { at_cycle } = run.termination {
        // A killed process writes no table and no farewell checkpoint.
        eprintln!("injected crash at cycle {at_cycle}: dying abruptly (kill -9 stand-in)");
        std::process::exit(137);
    }
    if let Some(from) = &run.resumed_from {
        println!(
            "resumed from {} at cycle {}",
            from.display(),
            run.start_cycle
        );
    }
    let table = run.table();
    if let Some(path) = &table_file {
        std::fs::write(path, &table).expect("write --table-file");
    }
    println!(
        "{} checkpoint(s) written\n\n{table}",
        run.checkpoints_written
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let n_cycles = cli::flag(&argv, "--cycles").unwrap_or(5);
    let plan = cli::flag::<String>(&argv, "--inject").map_or_else(FaultPlan::none, |spec| {
        FaultPlan::parse(&spec, n_cycles)
            .unwrap_or_else(|e| cli::usage(&format!("bad --inject spec: {e}")))
    });
    let checkpoint_dir: Option<PathBuf> = cli::flag(&argv, "--checkpoint-dir");
    let every = cli::flag(&argv, "--every").unwrap_or(1);
    let resume_from: Option<PathBuf> = cli::flag(&argv, "--resume");
    let table_file: Option<PathBuf> = cli::flag(&argv, "--table-file");

    if checkpoint_dir.is_some() || resume_from.is_some() {
        println!("=== checkpointed campaign ({n_cycles} cycles of 30 model-seconds) ===\n");
        run_checkpointed_campaign(
            n_cycles,
            plan,
            checkpoint_dir,
            every,
            resume_from,
            table_file,
        );
        return;
    }

    println!("=== live real-time pipeline ({n_cycles} cycles of 30 model-seconds) ===\n");

    let cfg = OsseConfig::reduced(14, 10, 8, 3, 99);
    let grid = cfg.model.grid.clone();
    let model_cfg = cfg.model.clone();
    let letkf_cfg = cfg.letkf.clone();
    let radar_cfg = cfg.radar.clone();
    let base = bda_scale::BaseState::<f32>::from_sounding(
        &cfg.sounding,
        &grid.vertical,
        model_cfg.sound_speed,
    );

    // Radar-side: the truth and the scanner.
    let mut nature = Model::from_parts(model_cfg.clone(), base.clone());
    nature.triggers = cfg.nature_triggers.clone();
    println!("spinning up convection before going live...");
    nature.integrate(720.0).expect("nature blew up");
    let sim = PawrSimulator::new(radar_cfg.clone());

    // Assimilation-side: the ensemble.
    let init = ModelState::init_from_base(&grid, &base);
    let mut ensemble = Ensemble::from_perturbations(
        &init,
        &model_cfg,
        letkf_cfg.ensemble_size,
        cfg.seed,
        cfg.init_theta_sd,
        cfg.init_qv_sd,
    );
    // Spin the ensemble up alongside the truth so members carry storms too.
    let spin_triggers = cfg.nature_triggers.clone();
    ensemble
        .forecast_with(&model_cfg, &base, 720.0, |_, engine| {
            engine.triggers = spin_triggers.clone();
        })
        .expect("ensemble spin-up failed");
    let layout = StateLayout {
        nx: grid.nx,
        ny: grid.ny,
        nz: grid.nz(),
        nvar: ANALYZED_VARS.len(),
        dx: grid.dx,
        z_center: grid.vertical.z_center.clone(),
    };

    // Forecast-side engine.
    let mut fc_engine = Model::from_parts(model_cfg.clone(), base.clone());

    println!(
        "running under the cycle supervisor, {} fault(s) injected\n",
        plan.len()
    );
    let supervisor = CycleSupervisor {
        faults: plan,
        ..CycleSupervisor::default()
    };
    let report = supervisor.run(
        n_cycles,
        // --- radar thread (supervised): scan faults become errors ---
        |cycle: usize| {
            nature
                .integrate(30.0)
                .map_err(|e| format!("nature blew up: {e:?}"))?;
            let scan = sim.scan(&nature.state, &base, &grid, (cycle as f64 + 1.0) * 30.0, 7);
            Ok(encode_volume(&scan))
        },
        // --- assimilation thread: salvage decode + QC + LETKF ---
        |_cycle: usize, bytes| {
            let (vol, salvage) = decode_volume_salvage::<f32>(&bytes, &ValueBounds::default())
                .map_err(|e| format!("unusable volume: {e:?}"))?;
            ensemble
                .forecast(&model_cfg, &base, 30.0, |_| Boundary::BaseState)
                .map_err(|e| format!("member blew up: {e:?}"))?;
            let hx = ensemble_equivalents(
                &vol.obs,
                &ensemble.members,
                &base,
                &grid,
                &radar_cfg,
                radar_cfg.min_detectable_dbz,
            );
            let obs = ObsEnsemble::new(vol.obs, hx);
            let (obs, qc) = QcPipeline::new(&letkf_cfg).run(&obs);
            let mut qc_note = qc.summary();
            if !salvage.clean() {
                qc_note.push_str(&format!(
                    ", salvaged {}/{} records",
                    salvage.kept, salvage.declared
                ));
            }
            let flats: Vec<Vec<f32>> = ensemble
                .members
                .iter()
                .map(|m| m.to_flat(&ANALYZED_VARS))
                .collect();
            let mut mat = EnsembleMatrix::from_members(&flats, layout.clone());
            let stats =
                analyze(&mut mat, &obs, &letkf_cfg).map_err(|e| format!("analysis: {e}"))?;
            let mut flats = flats;
            mat.to_members(&mut flats);
            for (m, f) in ensemble.members.iter_mut().zip(&flats) {
                m.from_flat(&ANALYZED_VARS, f);
                m.clamp_physical();
            }
            Ok((ensemble.mean(), stats.points_analyzed, qc_note))
        },
        // --- forecast thread: honors the degradation ladder ---
        |cycle: usize, input: ForecastInput<'_, (ModelState<f32>, usize, String)>| {
            let (mean, provenance) = match input {
                ForecastInput::Analysis((mean, points, qc)) => {
                    println!("cycle {cycle}: {qc}, {points} points analyzed");
                    (mean.clone(), "fresh analysis")
                }
                ForecastInput::PreviousAnalysis((mean, _, _)) => {
                    (mean.clone(), "previous analysis (degraded)")
                }
                ForecastInput::Persistence => {
                    println!("cycle {cycle}: persistence product (no analysis available)");
                    return Ok(());
                }
            };
            let _ = fc_engine.swap_state(mean);
            fc_engine
                .integrate(120.0)
                .map_err(|e| format!("forecast blew up: {e:?}"))?;
            let map =
                bda_core::products::reflectivity_map(&fc_engine.state, &base, &grid, 2000.0, 5.0);
            let rain = area_fraction(&map, 30.0, None);
            println!(
                "cycle {cycle}: forecast from {provenance}, rain area {:.1}%",
                rain * 100.0
            );
            Ok(())
        },
    );
    println!("\n{}", report.table());
    let timings: Vec<_> = report.cycles.iter().filter_map(|c| c.timing).collect();
    let mean_tts =
        timings.iter().map(|t| t.time_to_solution_s).sum::<f64>() / timings.len().max(1) as f64;
    println!("mean time-to-solution {mean_tts:.3} s (the full-scale Fugaku equivalent is Fig. 5's ~2.5 min)");
}
