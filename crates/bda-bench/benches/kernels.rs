//! Per-kernel microbenchmarks at realistic LETKF sizes.
//!
//! The cycle-level numbers in `BENCH_9.json` attribute wall-clock to
//! kernel buckets; this harness pins the kernels themselves — batched
//! eigensolve, blocked HEVI tridiagonal sweep, K-blocked GEMM and the
//! unrolled accumulator primitives — so a regression in any one of them is
//! visible even when cycle-level noise would hide it. CI's `perf-gate`
//! compares each row against the committed `BENCH_9_kernels.json`.
//!
//! Sizes mirror the reduced OSSE and the paper's LETKF: ensemble sizes
//! k = 16 (bench fixture) and k = 64, vertical sweep nz = 12 over a
//! 24-column x-row, and k = 100 vectors for the dot/axpy primitives.
//!
//! Flags (unknown flags ignored so `cargo bench --bench kernels` works):
//!
//! * `--out PATH`   output path (default `<repo>/BENCH_9_kernels.json`)
//! * `--reps N`     measured repetitions per kernel (default 200)

use bda_bench::cli;
use bda_bench::json::{self, Value};
use bda_bench::{rng, spd_batch};
use bda_num::matrix::{axpy8, dot8, MatrixS};
use bda_num::tridiag::ThomasFactor;
use bda_num::BatchedEigen;
use std::time::Instant;

struct Row {
    name: &'static str,
    mean_us: f64,
}

/// Mean microseconds per call of `op` over `reps` calls (after one
/// warm-up call that also pages in the scratch buffers).
fn time_op(reps: usize, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    for _ in 0..reps {
        op();
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn eigensolve_bench(k: usize, batch: usize, reps: usize) -> f64 {
    let mats = spd_batch(k, batch, 7);
    let mut solver = BatchedEigen::<f32>::with_capacity(k);
    let us_per_batch = time_op(reps, || {
        for a in &mats {
            solver.decompose_in_place(a);
            std::hint::black_box(solver.values().first().copied());
        }
    });
    us_per_batch / batch as f64
}

fn tridiag_bench(nz: usize, cols: usize, reps: usize) -> f64 {
    let mut r = rng(11);
    // Diagonally dominant system shaped like the HEVI vertical operator.
    let sub: Vec<f32> = (0..nz).map(|_| r.gaussian(0.0f32, 0.1)).collect();
    let sup: Vec<f32> = (0..nz).map(|_| r.gaussian(0.0f32, 0.1)).collect();
    let diag: Vec<f32> = (0..nz).map(|_| 1.0 + r.gaussian(0.0f32, 0.05)).collect();
    let rhs: Vec<f32> = (0..nz * cols).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    let mut tri = ThomasFactor::new();
    let mut block = rhs.clone();
    time_op(reps, || {
        tri.factor(&sub, &diag, &sup);
        block.copy_from_slice(&rhs);
        tri.solve_columns(&mut block, cols);
        std::hint::black_box(block[0]);
    })
}

fn gemm_bench(n: usize, reps: usize) -> f64 {
    let mut r = rng(13);
    let a = MatrixS::<f32>::from_fn(n, |_, _| r.gaussian(0.0f32, 1.0));
    let b = MatrixS::<f32>::from_fn(n, |_, _| r.gaussian(0.0f32, 1.0));
    let mut c = MatrixS::zeros(n);
    time_op(reps, || {
        a.matmul_into(&b, &mut c);
        std::hint::black_box(c[(0, 0)]);
    })
}

fn dot8_bench(n: usize, reps: usize) -> f64 {
    let mut r = rng(17);
    let x: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    let y: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    // One call is nanoseconds; time an inner loop of 512 and divide.
    time_op(reps, || {
        let mut acc = 0.0f32;
        for _ in 0..512 {
            acc += dot8(&x, &y);
        }
        std::hint::black_box(acc);
    }) / 512.0
}

fn axpy8_bench(n: usize, reps: usize) -> f64 {
    let mut r = rng(19);
    let x: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    let mut y: Vec<f32> = (0..n).map(|_| r.gaussian(0.0f32, 1.0)).collect();
    time_op(reps, || {
        for _ in 0..512 {
            axpy8(1e-7f32, &x, &mut y);
        }
        std::hint::black_box(y[0]);
    }) / 512.0
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let out = cli::flag(&argv, "--out")
        .unwrap_or_else(|| format!("{}/../../BENCH_9_kernels.json", env!("CARGO_MANIFEST_DIR")));
    let reps: usize = cli::flag(&argv, "--reps").unwrap_or(200);

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("kernels: host_cores={host_cores} reps={reps}");

    let rows = [
        Row {
            name: "eigensolve_k16",
            mean_us: eigensolve_bench(16, 64, reps),
        },
        Row {
            name: "eigensolve_k64",
            mean_us: eigensolve_bench(64, 8, reps),
        },
        Row {
            name: "tridiag_nz12_cols24",
            mean_us: tridiag_bench(12, 24, reps),
        },
        Row {
            name: "gemm_k64",
            mean_us: gemm_bench(64, reps),
        },
        Row {
            name: "dot8_k100",
            mean_us: dot8_bench(100, reps),
        },
        Row {
            name: "axpy8_k100",
            mean_us: axpy8_bench(100, reps),
        },
    ];
    for r in &rows {
        eprintln!("  {:<22} {:10.4} us", r.name, r.mean_us);
    }

    let body = rows.iter().map(|r| {
        json::obj([
            ("name", r.name.into()),
            ("mean_us", json::fixed(r.mean_us, 6)),
        ])
    });
    let doc = json::obj([
        ("bench", "kernels".into()),
        ("host_cores", host_cores.into()),
        ("reps", reps.into()),
        ("results", Value::Arr(body.collect())),
    ]);
    std::fs::write(&out, json::render(&doc)).expect("writing kernels BENCH JSON");
    eprintln!("kernels: wrote {out}");
}
