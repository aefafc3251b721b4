//! E-S2 — egress fan-out scaling of the nowcast broadcast server.
//!
//! Measures, per subscriber count, the cost of delivering one 30-second
//! tile product to the whole fleet over real loopback TCP: mean publish
//! wall-clock (encode + admit + enqueue + one nonblocking pump), the p99
//! of the end-to-end delivery latency (publish start until every client
//! has *acknowledged* the full cycle — kernel-buffered bytes don't
//! count), and aggregate delivery throughput. Writes the machine-readable
//! point `BENCH_6.json` at the repo root.
//!
//! Not a criterion harness: each point needs its own server, socket
//! fleet, and swarm thread, so this is a plain `harness = false` main.
//!
//! Flags (unknown flags such as cargo's `--bench` are ignored):
//!
//! * `--cycles N`       timed cycles per client count (default 30)
//! * `--clients a,b,c`  subscriber counts to sweep (default 4,16,64,256)
//! * `--out PATH`       output path (default `<repo>/BENCH_6.json`)

use bda_bench::cli;
use bda_bench::json::{self, Value};
use bda_serve::server::{NowcastServer, ServeConfig};
use bda_serve::storm::{StormSwarm, SwarmConfig};
use bda_serve::tile::synthetic_reflectivity;
use bda_workflow::fault::FaultPlan;
use std::time::{Duration, Instant};

const W: usize = 96;
const H: usize = 96;

struct Point {
    clients: usize,
    frames_per_cycle: usize,
    mean_publish_ms: f64,
    p99_cycle_ms: f64,
    throughput_mb_s: f64,
    evicted: usize,
}

/// One sweep point: a fresh server and a fully healthy swarm of `clients`
/// subscribers, timed over `cycles` publishes.
fn measure(clients: usize, cycles: usize) -> Point {
    let server = NowcastServer::bind(ServeConfig::default()).expect("bind loopback");
    let swarm = StormSwarm::launch(
        server.local_addr(),
        SwarmConfig {
            clients,
            seed: 42,
            never_ack: 0.0,
            mid_stream_disconnect: 0.0,
        },
        FaultPlan::none(),
    );
    std::thread::sleep(Duration::from_millis(30 + clients as u64 / 2));
    let mut server = server;

    // Warm-up cycle admits the fleet and pages in the tile pipeline.
    let field = synthetic_reflectivity(0, W, H);
    let warm = server
        .publish(0, &field, W, H, false)
        .expect("warm publish");
    swarm.on_cycle(0);
    let frames_per_cycle = warm.frames;

    let mut publish_ms = Vec::with_capacity(cycles);
    let mut cycle_ms = Vec::with_capacity(cycles);
    let mut delivered_bytes = 0usize;
    let mut evicted = 0usize;
    let t_all = Instant::now();
    for cycle in 1..=cycles as u64 {
        let field = synthetic_reflectivity(cycle, W, H);
        let t0 = Instant::now();
        let rep = server.publish(cycle, &field, W, H, false).expect("publish");
        publish_ms.push(rep.elapsed_ms);
        // Delivery completes when every surviving client has *acknowledged*
        // the whole cycle — bytes parked in kernel buffers don't count.
        // This also paces the sweep honestly: a free-running loop would
        // starve the client thread and measure the eviction path instead.
        let settle = Instant::now();
        loop {
            let queued = server.pump_all();
            if (queued == 0 && server.fully_acked()) || settle.elapsed() > Duration::from_secs(5) {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        swarm.on_cycle(cycle);
        delivered_bytes += rep.delta_bytes * rep.clients;
        evicted += rep.evicted;
    }
    let elapsed_s = t_all.elapsed().as_secs_f64();
    let report = server.shutdown(Duration::from_secs(2));
    let swarm_report = swarm.finish();
    assert_eq!(
        swarm_report.decode_errors(),
        0,
        "corrupt frames during bench: {}",
        swarm_report.summary()
    );
    eprintln!("    server: {}", report.summary());
    eprintln!("    swarm:  {}", swarm_report.summary());
    evicted = evicted.max(report.evicted());

    cycle_ms.sort_by(f64::total_cmp);
    let p99_idx = ((cycle_ms.len() as f64) * 0.99).ceil() as usize;
    Point {
        clients,
        frames_per_cycle,
        mean_publish_ms: publish_ms.iter().sum::<f64>() / publish_ms.len() as f64,
        p99_cycle_ms: cycle_ms[p99_idx.saturating_sub(1).min(cycle_ms.len() - 1)],
        throughput_mb_s: delivered_bytes as f64 / 1e6 / elapsed_s,
        evicted,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let cycles: usize = cli::flag(&argv, "--cycles").unwrap_or(30);
    let clients: Vec<usize> = cli::list(&argv, "--clients").unwrap_or_else(|| vec![4, 16, 64, 256]);
    let out = cli::flag(&argv, "--out")
        .unwrap_or_else(|| format!("{}/../../BENCH_6.json", env!("CARGO_MANIFEST_DIR")));

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("serve_fanout: host_cores={host_cores} cycles/point={cycles} sweep={clients:?}");

    let mut points = Vec::new();
    for &n in &clients {
        let p = measure(n, cycles);
        eprintln!(
            "  clients={:<4} publish={:.2}ms p99_cycle={:.2}ms throughput={:.1}MB/s evicted={}",
            p.clients, p.mean_publish_ms, p.p99_cycle_ms, p.throughput_mb_s, p.evicted
        );
        points.push(p);
    }

    let rows = points.iter().map(|p| {
        json::obj([
            ("clients", p.clients.into()),
            ("frames_per_cycle", p.frames_per_cycle.into()),
            ("mean_publish_ms", json::fixed(p.mean_publish_ms, 4)),
            ("p99_cycle_ms", json::fixed(p.p99_cycle_ms, 4)),
            ("throughput_mb_s", json::fixed(p.throughput_mb_s, 4)),
            ("evicted", p.evicted.into()),
        ])
    });
    let doc = json::obj([
        ("bench", "serve_fanout".into()),
        (
            "grid",
            format!("{W}x{H} dBZ, 32px tiles, 3 zoom levels")
                .as_str()
                .into(),
        ),
        ("host_cores", host_cores.into()),
        ("cycles_per_point", cycles.into()),
        ("results", Value::Arr(rows.collect())),
    ]);
    std::fs::write(&out, json::render(&doc)).expect("writing BENCH_6.json");
    eprintln!("serve_fanout: wrote {out}");
}
