//! Workload runner behind `perfbench/run.py`.
//!
//! ```text
//! perfbench --workload <heavy_rain_cycle|nowcast|sharded_cycle> --seed N \
//!           --seconds S --trace <0|1> --out DIR
//! ```
//!
//! Builds the workload's configuration from the seed, sets it up, runs a
//! number of cycles sized to `--seconds`, checks the outputs and prints one
//! JSON line of raw metric samples, operation counts and failed checks.
//! `--trace 1` adds a traced pass whose spans give the per-layer metrics.
//! The thread pool's width comes from `BDA_THREADS` (see `rayon`).

mod heavy;
mod nowcast;
mod report;
mod sharded;
mod trace;

use bda_core::osse::{CycleOutcome, Osse};
use report::{Agg, Report};
use std::path::PathBuf;
use std::time::Instant;
use trace::Span;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("."),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    match args.workload.as_str() {
        "heavy_rain_cycle" => heavy::run(&args, &mut rep),
        "nowcast" => nowcast::run(&args, &mut rep),
        "sharded_cycle" => sharded::run(&args, &mut rep),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    println!("{}", rep.to_json());
}

/// Cycles in one run: `--seconds` worth at the workload's nominal cycle
/// cost. The count depends on the arguments only, so every run of a seed
/// does the same work and produces the same counts.
pub fn cycles_for(seconds: f64, nominal_cycle_s: f64) -> usize {
    ((seconds / nominal_cycle_s).round() as usize).max(4)
}

/// Make the benchmark seed the radar's noise seed. Each workload is one
/// fixed case (storm, ensemble, spin-up); the seed draws the observation
/// errors of every scan, so seeds give different inputs of the same size.
/// When the seed also drove the ensemble's perturbations and the members'
/// storms, per-seed cost differences alone spread `cycle_s` by 10% over
/// five seeds, and some seeds' storms never rained.
pub fn observe_with(osse: &mut Osse<f32>, seed: u64) {
    osse.cfg.seed = seed;
}

/// User + system CPU time of this process, s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line, in clock ticks (USER_HZ).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

/// CPU time used since `cpu0` (from [`cpu_seconds`]) over the wall time
/// since `t0` times the thread pool's width.
pub fn cpu_busy_ratio(cpu0: f64, t0: Instant) -> f64 {
    let width = rayon::current_num_threads() as f64;
    (cpu_seconds() - cpu0) / (t0.elapsed().as_secs_f64() * width)
}

/// Span names whose per-cycle self time is a per-layer metric
/// (`<name>_s`).
pub const LAYER_SPANS: [&str; 14] = [
    "scale.nature",
    "scale.ensemble_forecast",
    "scale.extended_forecast",
    "letkf.qc",
    "letkf.analysis",
    "pawr.scan",
    "pawr.obs_operator",
    "pawr.codec",
    "core.diagnostics",
    "core.member_copy",
    "serve.publish",
    "serve.ack_wait",
    "shard.publish",
    "shard.collect",
];

/// Per-layer self times: for each layer, the median over cycles of the
/// cycle's summed self time in that layer's spans.
pub fn layer_metrics(rep: &mut Report, spans: &[Span]) {
    let by = trace::self_time_by_cycle(spans);
    for name in LAYER_SPANS {
        let per_cycle: Vec<f64> = by
            .get(name)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default();
        rep.samples(&format!("{name}_s"), "s", Agg::Median, &per_cycle);
    }
}

/// Share of each cycle's wall time spent inside a layer span: one minus
/// the root `cycle` span's self time over its duration.
pub fn closed_loop_coverage(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .zip(trace::self_times(spans))
        .filter(|(s, _)| s.name == "cycle")
        .map(|(s, own)| 1.0 - own / s.dur())
        .collect()
}

/// Median traced cycle over median untraced cycle, minus one.
pub fn overhead(traced: &[f64], plain: &[f64]) -> f64 {
    median(traced) / median(plain) - 1.0
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// A cycle that did not run its full analysis on a healthy ensemble is a
/// failed operation: a degraded-ladder rung.
pub fn cycle_ok(out: &CycleOutcome, members: usize) -> Result<(), String> {
    if out.n_alive != members || !out.member_errors.is_empty() {
        return Err(format!("{} of {members} members alive", out.n_alive));
    }
    if out.below_quorum || out.analysis_skipped() {
        return Err("analysis skipped".to_string());
    }
    Ok(())
}

/// The counts of one cycle that must repeat exactly when the cycle is run
/// again from the same state.
pub fn outcome_counts(out: &CycleOutcome) -> String {
    format!(
        "scanned {} used {} points {} local_obs {}",
        out.n_obs_scanned,
        out.n_obs_used,
        out.analysis.points_analyzed,
        out.analysis.total_local_obs
    )
}

/// Per-layer counts of the OSSE cycle.
pub fn osse_counts(rep: &mut Report, outs: &[&CycleOutcome]) {
    for o in outs {
        let a = &o.analysis;
        let accept = o.qc.accepted() as f64 / o.qc.total.max(1) as f64;
        rep.sample("letkf.qc_accept_ratio", "ratio", Agg::Median, accept);
        rep.sample(
            "letkf.points_analyzed",
            "count",
            Agg::Median,
            a.points_analyzed as f64,
        );
        let mean_local = a.total_local_obs as f64 / a.points_analyzed.max(1) as f64;
        rep.sample("letkf.mean_local_obs", "count", Agg::Median, mean_local);
        rep.sample(
            "pawr.obs_scanned",
            "count",
            Agg::Median,
            o.n_obs_scanned as f64,
        );
    }
}

/// Write the spans of a traced run next to the run's other outputs.
pub fn write_spans(args: &Args, spans: &[Span]) {
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, trace::to_jsonl(spans)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
