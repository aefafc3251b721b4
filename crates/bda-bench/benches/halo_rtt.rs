//! S-N1 — halo delivery latency: file spool vs loopback socket.
//!
//! Measures, per halo payload size, the publish-to-`Ready` latency of
//! one analyzed-strip halo frame between two shards over the two
//! [`HaloTransport`] flavours:
//!
//! * **file** — [`HaloBus`]: publisher seals the frame to the shared
//!   spool directory, collector polls for the file (the PR-7 baseline).
//! * **socket** — [`NetBus`]: publisher pushes the sealed `BDAN` frame
//!   over loopback TCP, collector's inbox is filled by a reader thread
//!   (with `REQ`-pull backstop).
//!
//! The point of the table is the *seam cost*: the socket path removes
//! the collector's filesystem poll from the hot loop, so its latency
//! should track the poll-free wire time while the file path pays the
//! poll quantum. Writes the machine-readable point `BENCH_8.json` at
//! the repo root.
//!
//! Not a criterion harness: each point needs its own spool directory
//! and socket pair, so this is a plain `harness = false` main.
//!
//! Flags (unknown flags such as cargo's `--bench` are ignored):
//!
//! * `--reps N`      timed deliveries per point (default 200)
//! * `--points a,b`  strip lengths (f32 values per member) to sweep,
//!   default 256,4096,65536
//! * `--members N`   ensemble members per frame (default 4)
//! * `--out PATH`    output path (default `<repo>/BENCH_8.json`)

use bda_bench::cli;
use bda_bench::json::{self, Value};
use bda_shard::netbus::{NetBus, NetBusConfig};
use bda_shard::{CollectStatus, HaloBus, HaloFrame, HaloMsg, HaloTransport};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(10);
const POLL: Duration = Duration::from_micros(200);

struct Point {
    transport: &'static str,
    strip_len: usize,
    members: usize,
    payload_bytes: usize,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn frame(cycle: u64, strip_len: usize, members: usize) -> HaloFrame<f32> {
    // Deterministic non-trivial payload; values don't matter, bytes do.
    let strips = (0..members)
        .map(|m| {
            (0..strip_len)
                .map(|i| (i as f32 * 0.125 + m as f32).sin())
                .collect()
        })
        .collect();
    HaloFrame::Strip(HaloMsg {
        shard: 0,
        cycle,
        i0: 0,
        i1: 2,
        points_analyzed: strip_len,
        strips,
    })
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64) * q).ceil() as usize;
    sorted_ms[idx.saturating_sub(1).min(sorted_ms.len() - 1)]
}

/// Time `reps` single-frame deliveries from publisher `a` to collector
/// `b` (fresh cycle number each rep so nothing is cached).
fn measure<B: HaloTransport>(
    transport: &'static str,
    a: &B,
    b: &B,
    strip_len: usize,
    members: usize,
    reps: usize,
) -> Point {
    // Warm-up: connection establishment (socket) / directory pages (file).
    a.publish(&frame(0, strip_len, members))
        .expect("warm publish");
    assert!(matches!(
        b.collect_blocking::<f32>(0, 0, DEADLINE, POLL),
        CollectStatus::Ready(_)
    ));

    let mut ms = Vec::with_capacity(reps);
    for rep in 0..reps {
        let cycle = 1 + rep as u64;
        let f = frame(cycle, strip_len, members);
        let t0 = Instant::now();
        a.publish(&f).expect("publish");
        let got = b.collect_blocking::<f32>(cycle, 0, DEADLINE, POLL);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let CollectStatus::Ready(m) = got else {
            panic!("delivery failed at rep {rep}: {got:?}");
        };
        assert_eq!(m.strips.len(), members, "short frame delivered");
    }
    ms.sort_by(f64::total_cmp);
    Point {
        transport,
        strip_len,
        members,
        payload_bytes: strip_len * members * 4,
        mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
        p50_ms: percentile(&ms, 0.50),
        p99_ms: percentile(&ms, 0.99),
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bda-halo-rtt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn file_point(strip_len: usize, members: usize, reps: usize) -> Point {
    let dir = bench_dir(&format!("file-{strip_len}"));
    let a = HaloBus::new(&dir).expect("file bus");
    let b = HaloBus::new(&dir).expect("file bus");
    let p = measure("file", &a, &b, strip_len, members, reps);
    let _ = std::fs::remove_dir_all(&dir);
    p
}

fn socket_point(strip_len: usize, members: usize, reps: usize) -> Point {
    let dir = bench_dir(&format!("socket-{strip_len}"));
    let a = NetBus::start(NetBusConfig::new(0, 2), &dir).expect("netbus");
    let b = NetBus::start(NetBusConfig::new(1, 2), &dir).expect("netbus");
    let p = measure("socket", &a, &b, strip_len, members, reps);
    drop(b);
    drop(a);
    let _ = std::fs::remove_dir_all(&dir);
    p
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let reps: usize = cli::flag(&argv, "--reps").unwrap_or(200);
    let points: Vec<usize> = cli::list(&argv, "--points").unwrap_or_else(|| vec![256, 4096, 65536]);
    let members: usize = cli::flag(&argv, "--members").unwrap_or(4);
    let out = cli::flag(&argv, "--out")
        .unwrap_or_else(|| format!("{}/../../BENCH_8.json", env!("CARGO_MANIFEST_DIR")));

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "halo_rtt: host_cores={host_cores} reps/point={reps} members={members} sweep={points:?}"
    );

    let mut results = Vec::new();
    for &n in &points {
        for p in [file_point(n, members, reps), socket_point(n, members, reps)] {
            eprintln!(
                "  {:<6} strip={:<6} payload={:>8}B mean={:.3}ms p50={:.3}ms p99={:.3}ms",
                p.transport, p.strip_len, p.payload_bytes, p.mean_ms, p.p50_ms, p.p99_ms
            );
            results.push(p);
        }
    }

    let rows = results.iter().map(|p| {
        json::obj([
            ("transport", p.transport.into()),
            ("strip_len", p.strip_len.into()),
            ("members", p.members.into()),
            ("payload_bytes", p.payload_bytes.into()),
            ("mean_ms", json::fixed(p.mean_ms, 4)),
            ("p50_ms", json::fixed(p.p50_ms, 4)),
            ("p99_ms", json::fixed(p.p99_ms, 4)),
        ])
    });
    let doc = json::obj([
        ("bench", "halo_rtt".into()),
        (
            "collector_poll_us",
            json::fixed(POLL.as_secs_f64() * 1e6, 0),
        ),
        ("host_cores", host_cores.into()),
        ("reps_per_point", reps.into()),
        ("results", Value::Arr(rows.collect())),
    ]);
    std::fs::write(&out, json::render(&doc)).expect("writing BENCH_8.json");
    eprintln!("halo_rtt: wrote {out}");
}
