//! E-S1 — strong-scaling of one full OSSE assimilation cycle.
//!
//! Times a complete cycle (ensemble forecast + PAWR scan + LETKF analysis)
//! at 1/2/4/8 worker threads over identically seeded campaigns and writes
//! the machine-readable scaling point `BENCH_9.json` at the repo root:
//! per thread count the mean cycle wall-clock and the speedup over the
//! single-thread baseline, plus a per-kernel breakdown (eigensolve /
//! tridiag / microphysics / obs-operator) attributed in a separate
//! single-thread pass so the timing guards never perturb the scaling
//! numbers themselves. This feeds CI's `perf-gate` regression lane and the
//! `bench-trajectory` artifact.
//!
//! Not a criterion harness: thread-count sweeps need explicit pool
//! installs per measurement, so this is a plain `harness = false` main.
//!
//! Flags (all optional; unknown flags such as cargo's `--bench` are
//! ignored so `cargo bench --bench cycle_scaling` works unmodified):
//!
//! * `--cycles N`          timed cycles per thread count (default 6)
//! * `--threads a,b,c`     thread counts to sweep (default 1,2,4,8)
//! * `--out PATH`          output path (default `<repo>/BENCH_9.json`)
//!
//! The speedup floor is gated on the written file by `perf_gate
//! --require-speedup`.
//!
//! If the output file already exists and the host has fewer cores than the
//! widest sweep point, the whole run is skipped (with a notice) instead of
//! replacing a wide runner's results with numbers a narrow host cannot
//! measure.

use bda_bench::cli;
use bda_bench::json::{self, Value};
use bda_bench::reduced_osse;
use bda_num::timing;
use rayon::ThreadPoolBuilder;
use std::time::Instant;

/// One kernel bucket's per-cycle attribution.
struct KernelRow {
    name: &'static str,
    mean_s_per_cycle: f64,
    calls_per_cycle: f64,
}

/// One measured point of the sweep.
struct Point {
    threads: usize,
    mean_cycle_s: f64,
    speedup: f64,
}

/// Mean wall-clock of one OSSE cycle with `threads` pool workers.
///
/// Every thread count gets a freshly seeded, identically configured
/// campaign (same spinup, same trigger schedule) so the work per cycle is
/// identical and only the pool width varies.
fn measure(threads: usize, cycles: usize) -> f64 {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool build is infallible");
    pool.install(|| {
        let mut osse = reduced_osse(24, 12, 16, 3, 4);
        osse.spinup_system(360.0);
        // Warm-up cycle: page in buffers, settle the trigger state.
        osse.cycle();
        let start = Instant::now();
        for _ in 0..cycles {
            osse.cycle();
        }
        start.elapsed().as_secs_f64() / cycles as f64
    })
}

/// Single-thread pass with kernel timers enabled: per-kernel seconds and
/// call counts per cycle. Runs after the scaling sweep so the guards'
/// clock reads never contaminate `mean_cycle_s`.
fn attribute_kernels(cycles: usize) -> Vec<KernelRow> {
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool build is infallible");
    pool.install(|| {
        let mut osse = reduced_osse(24, 12, 16, 3, 4);
        osse.spinup_system(360.0);
        osse.cycle();
        timing::reset();
        timing::set_enabled(true);
        for _ in 0..cycles {
            osse.cycle();
        }
        timing::set_enabled(false);
    });
    timing::report()
        .into_iter()
        .map(|t| KernelRow {
            name: t.kernel.name(),
            mean_s_per_cycle: t.seconds / cycles as f64,
            calls_per_cycle: t.calls as f64 / cycles as f64,
        })
        .collect()
}

fn main() {
    // cargo bench forwards `--bench` and filter strings; they are ignored.
    let argv: Vec<String> = std::env::args().collect();
    let cycles: usize = cli::flag(&argv, "--cycles").unwrap_or(6);
    let threads: Vec<usize> = cli::list(&argv, "--threads").unwrap_or_else(|| vec![1, 2, 4, 8]);
    let out = cli::flag(&argv, "--out")
        .unwrap_or_else(|| format!("{}/../../BENCH_9.json", env!("CARGO_MANIFEST_DIR")));

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("cycle_scaling: host_cores={host_cores} cycles/point={cycles} sweep={threads:?}");

    // Honesty guard: a host narrower than the sweep (e.g. a 1-core
    // container) measures only contention, not scaling. Overwriting a
    // BENCH file produced by a wide runner with those degenerate numbers
    // would silently corrupt the perf trajectory, so refuse.
    let max_swept = threads.iter().copied().max().unwrap_or(1);
    if host_cores < max_swept && std::path::Path::new(&out).exists() {
        eprintln!(
            "cycle_scaling: SKIP — {out} exists and this host has {host_cores} core(s), \
             fewer than the widest sweep point ({max_swept} threads); refusing to \
             overwrite a wider runner's results. Narrow the sweep with \
             --threads or delete the file to force a rewrite."
        );
        return;
    }

    let mut points: Vec<Point> = Vec::new();
    let mut base = None;
    for &t in &threads {
        let mean = measure(t, cycles);
        let base_s = *base.get_or_insert(mean);
        let speedup = base_s / mean;
        eprintln!("  threads={t:<2} mean_cycle={mean:.4}s speedup={speedup:.2}x");
        points.push(Point {
            threads: t,
            mean_cycle_s: mean,
            speedup,
        });
    }

    eprintln!("cycle_scaling: attributing per-kernel time (1-thread pass)");
    let kernels = attribute_kernels(cycles);
    for k in &kernels {
        eprintln!(
            "  kernel={:<13} mean={:.4}s/cycle calls={:.0}/cycle",
            k.name, k.mean_s_per_cycle, k.calls_per_cycle
        );
    }

    let rows = points.iter().map(|p| {
        json::obj([
            ("threads", p.threads.into()),
            ("mean_cycle_s", json::fixed(p.mean_cycle_s, 6)),
            ("speedup", json::fixed(p.speedup, 4)),
        ])
    });
    let krows = kernels.iter().map(|k| {
        json::obj([
            ("name", k.name.into()),
            ("mean_s_per_cycle", json::fixed(k.mean_s_per_cycle, 6)),
            ("calls_per_cycle", json::fixed(k.calls_per_cycle, 1)),
        ])
    });
    let doc = json::obj([
        ("bench", "cycle_scaling".into()),
        ("config", "OsseConfig::reduced(24, 12, 16, 3, 4)".into()),
        ("host_cores", host_cores.into()),
        ("cycles_per_point", cycles.into()),
        ("results", Value::Arr(rows.collect())),
        ("kernels", Value::Arr(krows.collect())),
    ]);
    std::fs::write(&out, json::render(&doc)).expect("writing BENCH JSON");
    eprintln!("cycle_scaling: wrote {out}");
}
