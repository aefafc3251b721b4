//! CI perf gate: fail the build when a freshly measured BENCH file
//! regresses against the committed baseline.
//!
//! Compares two BENCH JSON documents of the same bench kind:
//!
//! * `cycle_scaling` — gates the single-thread `mean_cycle_s` and every
//!   per-kernel `mean_s_per_cycle` bucket;
//! * `kernels` — gates every row's `mean_us` by name.
//!
//! The tolerance is `--max-regression` percent (default 10) when the two
//! files were measured on hosts with the same core count. When the core
//! counts differ (e.g. a 1-core dev container vs CI's 4-vCPU runner),
//! absolute timings are not comparable: the gate widens to
//! `--cross-host-grace` (a multiplicative factor, default 3.0) and says so
//! loudly — it then only catches catastrophic regressions, and the
//! committed baseline should be refreshed from a same-shape runner.
//!
//! `--require-speedup X --at-threads N` additionally requires the fresh
//! `cycle_scaling` sweep to reach `X`x speedup at the widest multi-thread
//! point the fresh host can run in parallel (threads ≤ its cores) and, on a
//! host with at least `N` cores, at the `N`-thread point, which must then
//! exist. Skipped (with a notice) when the host has no such point: a 1-core
//! host cannot measure scaling at all.
//!
//! Exit status: 0 = pass, 1 = regression or malformed input, 2 = usage error.

use bda_bench::cli;
use bda_bench::json::{self, Value};

struct Args {
    baseline: String,
    fresh: String,
    max_regression_pct: f64,
    cross_host_grace: f64,
    require_speedup: Option<f64>,
    at_threads: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let valued = [
        "--baseline",
        "--fresh",
        "--max-regression",
        "--cross-host-grace",
        "--require-speedup",
        "--at-threads",
    ];
    cli::only(&argv, &valued, &[]);
    let (Some(baseline), Some(fresh)) =
        (cli::flag(&argv, "--baseline"), cli::flag(&argv, "--fresh"))
    else {
        cli::usage("perf_gate: --baseline and --fresh are both required");
    };
    Args {
        baseline,
        fresh,
        max_regression_pct: cli::flag(&argv, "--max-regression").unwrap_or(10.0),
        cross_host_grace: cli::flag(&argv, "--cross-host-grace").unwrap_or(3.0),
        require_speedup: cli::flag(&argv, "--require-speedup"),
        at_threads: cli::flag(&argv, "--at-threads").unwrap_or(4),
    }
}

/// A validated BENCH document; an unreadable or malformed file fails the
/// gate (exit 1).
fn load(path: &str) -> Value {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| json::parse(&text))
        .and_then(|doc| {
            json::validate_bench(&doc).map_err(|e| format!("bad shape: {e}"))?;
            Ok(doc)
        });
    doc.unwrap_or_else(|e| {
        eprintln!("perf_gate: FAIL — {path}: {e}");
        std::process::exit(1)
    })
}

/// The gated metrics of one document: `(label, seconds-like value)`.
fn gated_metrics(doc: &Value) -> Vec<(String, f64)> {
    let bench = doc.get("bench").and_then(Value::as_str).unwrap_or("");
    let mut out = Vec::new();
    match bench {
        "cycle_scaling" => {
            if let Some(results) = doc.get("results").and_then(Value::as_array) {
                for row in results {
                    let threads = row.get("threads").and_then(Value::as_f64);
                    let mean = row.get("mean_cycle_s").and_then(Value::as_f64);
                    if let (Some(t), Some(m)) = (threads, mean) {
                        if t == 1.0 {
                            out.push(("mean_cycle_s@1t".to_string(), m));
                        }
                    }
                }
            }
            if let Some(kernels) = doc.get("kernels").and_then(Value::as_array) {
                for row in kernels {
                    let name = row.get("name").and_then(Value::as_str);
                    let mean = row.get("mean_s_per_cycle").and_then(Value::as_f64);
                    if let (Some(n), Some(m)) = (name, mean) {
                        out.push((format!("kernel:{n}"), m));
                    }
                }
            }
        }
        "kernels" => {
            if let Some(results) = doc.get("results").and_then(Value::as_array) {
                for row in results {
                    let name = row.get("name").and_then(Value::as_str);
                    let mean = row.get("mean_us").and_then(Value::as_f64);
                    if let (Some(n), Some(m)) = (name, mean) {
                        out.push((format!("us:{n}"), m));
                    }
                }
            }
        }
        other => {
            eprintln!("perf_gate: note — bench kind {other:?} has no gated metrics");
        }
    }
    out
}

/// Verdict of the speedup gate on a fresh `cycle_scaling` sweep.
#[derive(Debug, PartialEq)]
enum SpeedupGate {
    Skipped,
    Pass,
    Fail,
}

/// Check the sweep's speedup against `min` at the widest multi-thread
/// point with threads ≤ the host's cores and, on a host of at least
/// `at_threads` cores, at the `at_threads` point (see the module docs).
fn speedup_gate(fresh: &Value, min: f64, at_threads: usize) -> SpeedupGate {
    let cores = fresh
        .get("host_cores")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let rows = fresh
        .get("results")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let threads = |row: &Value| row.get("threads").and_then(Value::as_f64);
    let widest = (rows.iter().filter_map(threads))
        .filter(|&t| t > 1.0 && t <= cores)
        .reduce(f64::max);
    let at = bda_num::cast::f64_of(at_threads);
    let mut gated: Vec<f64> = widest.into_iter().collect();
    if cores >= at && widest != Some(at) {
        gated.push(at);
    }
    if gated.is_empty() {
        eprintln!(
            "perf_gate: speedup gate skipped — fresh host has {cores:.0} core(s), \
             no multi-thread point can scale there"
        );
        return SpeedupGate::Skipped;
    }
    let mut verdict = SpeedupGate::Pass;
    for t in gated {
        let row = rows.iter().find(|row| threads(row) == Some(t));
        match row.and_then(|row| row.get("speedup").and_then(Value::as_f64)) {
            Some(s) if s >= min => {
                eprintln!("perf_gate: speedup gate OK ({s:.2}x >= {min}x at {t} threads)");
            }
            Some(s) => {
                eprintln!("perf_gate: FAIL — speedup {s:.2}x < required {min}x at {t} threads");
                verdict = SpeedupGate::Fail;
            }
            None => {
                eprintln!("perf_gate: FAIL — fresh sweep has no {t}-thread speedup to gate");
                verdict = SpeedupGate::Fail;
            }
        }
    }
    verdict
}

fn main() {
    let args = parse_args();
    let baseline = load(&args.baseline);
    let fresh = load(&args.fresh);

    let b_kind = baseline.get("bench").and_then(Value::as_str).unwrap_or("");
    let f_kind = fresh.get("bench").and_then(Value::as_str).unwrap_or("");
    if b_kind != f_kind {
        eprintln!("perf_gate: FAIL — bench kinds differ: baseline {b_kind:?}, fresh {f_kind:?}");
        std::process::exit(1);
    }

    let b_cores = baseline
        .get("host_cores")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let f_cores = fresh
        .get("host_cores")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let same_host_shape = b_cores == f_cores;
    let factor = if same_host_shape {
        1.0 + args.max_regression_pct / 100.0
    } else {
        eprintln!(
            "perf_gate: NOTE — baseline measured on {b_cores:.0} core(s), fresh on \
             {f_cores:.0}; absolute timings are not comparable across host shapes. \
             Widening the gate to {:.1}x (only catastrophic regressions fail). \
             Refresh the committed baseline from a {f_cores:.0}-core runner to \
             restore the tight {:.0}% gate.",
            args.cross_host_grace, args.max_regression_pct
        );
        args.cross_host_grace
    };

    let base_metrics = gated_metrics(&baseline);
    let fresh_metrics = gated_metrics(&fresh);
    let mut failures = 0usize;

    for (label, base_val) in &base_metrics {
        let Some((_, fresh_val)) = fresh_metrics.iter().find(|(l, _)| l == label) else {
            eprintln!(
                "perf_gate: FAIL — metric {label} present in baseline but missing in fresh run"
            );
            failures += 1;
            continue;
        };
        // Sub-microsecond buckets are dominated by timer quantization.
        let ratio = if *base_val > 0.0 {
            fresh_val / base_val
        } else {
            1.0
        };
        let verdict = if ratio <= factor { "ok" } else { "REGRESSION" };
        eprintln!(
            "perf_gate: {label:<28} baseline {base_val:.6}  fresh {fresh_val:.6}  ratio {ratio:.3} (limit {factor:.3})  {verdict}"
        );
        if ratio > factor {
            failures += 1;
        }
    }
    for (label, _) in &fresh_metrics {
        if !base_metrics.iter().any(|(l, _)| l == label) {
            eprintln!("perf_gate: note — new metric {label} (no baseline yet)");
        }
    }

    if let Some(min) = args.require_speedup {
        if f_kind != "cycle_scaling" {
            eprintln!("perf_gate: note — --require-speedup only applies to cycle_scaling");
        } else if speedup_gate(&fresh, min, args.at_threads) == SpeedupGate::Fail {
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("perf_gate: FAIL — {failures} gated metric(s) regressed");
        std::process::exit(1);
    }
    eprintln!("perf_gate: PASS");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh `cycle_scaling` file from a `cores`-core host.
    fn sweep(cores: usize, speedups: &[(usize, f64)]) -> Value {
        let rows = speedups
            .iter()
            .map(|&(t, s)| json::obj([("threads", t.into()), ("speedup", Value::Num(s))]));
        json::obj([
            ("bench", "cycle_scaling".into()),
            ("host_cores", cores.into()),
            ("results", Value::Arr(rows.collect())),
        ])
    }

    #[test]
    fn gates_the_widest_point_the_host_can_run() {
        let four = sweep(4, &[(1, 1.0), (2, 1.8), (4, 1.4)]);
        assert_eq!(speedup_gate(&four, 1.5, 4), SpeedupGate::Fail);
        let two = sweep(2, &[(1, 1.0), (2, 1.4), (4, 2.0)]);
        assert_eq!(speedup_gate(&two, 1.5, 4), SpeedupGate::Fail);
        let good = sweep(4, &[(1, 1.0), (2, 1.4), (4, 1.6)]);
        assert_eq!(speedup_gate(&good, 1.5, 4), SpeedupGate::Pass);
    }

    #[test]
    fn a_wide_host_also_gates_the_named_point() {
        // The 8-thread point scales, but the required 4-thread one does not.
        let eight = sweep(8, &[(1, 1.0), (4, 1.4), (8, 1.6)]);
        assert_eq!(speedup_gate(&eight, 1.5, 4), SpeedupGate::Fail);
        let missing = sweep(4, &[(1, 1.0), (2, 1.6)]);
        assert_eq!(speedup_gate(&missing, 1.5, 4), SpeedupGate::Fail);
        let both = sweep(8, &[(1, 1.0), (4, 1.7), (8, 2.5)]);
        assert_eq!(speedup_gate(&both, 1.5, 4), SpeedupGate::Pass);
    }

    #[test]
    fn a_one_core_host_skips() {
        let one = sweep(1, &[(1, 1.0), (2, 0.9), (4, 0.8)]);
        assert_eq!(speedup_gate(&one, 1.5, 4), SpeedupGate::Skipped);
    }
}
