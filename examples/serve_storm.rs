//! serve_storm — the egress layer under deterministic adversarial load.
//!
//! Drives a full supervised 30-second campaign with a [`NowcastServer`]
//! attached as the egress stage and a seeded [`StormSwarm`] of subscriber
//! clients on the other side of real loopback TCP — a configurable slice
//! of them hostile: slow readers that stop draining mid-campaign,
//! never-ACK clients, abrupt mid-frame disconnects, and reconnect storms,
//! all scheduled by the same `FaultPlan` grammar as the ingest faults
//! (`slowclient:N@C`, `connstorm:N@C` compose with `drop@C` etc.).
//!
//! The claim under test: **no client behaviour can stall a cycle.** The
//! example fails (non-zero exit) if any publish exceeds the egress
//! deadline budget, if any verified client saw a corrupt frame, or if
//! any supervised cycle failed outright.
//!
//!     cargo run --release --example serve_storm -- \
//!         --clients 1000 --cycles 20 --seed 7 [--table]
//!
//! Flags: `--clients N` (default 1000), `--cycles N` (default 20),
//! `--seed S`, `--faults SPEC`, `--deadline-ms X` (default 1000),
//! `--table` (full per-client outcome table).

use bda::jitdt::Bytes;
use bda::letkf::{ObsKind, Observation};
use bda::pawr::codec::encode_volume;
use bda::pawr::scan::ScanResult;
use bda::serve::server::{NowcastServer, ServeConfig};
use bda::serve::storm::{StormSwarm, SwarmConfig, SwarmEvent};
use bda::serve::tile::synthetic_reflectivity;
use bda::workflow::supervisor::{CycleDisposition, CycleSupervisor};
use bda::workflow::FaultPlan;
use bda_bench::cli;
use std::sync::Mutex;
use std::time::Duration;

const W: usize = 96;
const H: usize = 96;

/// A small synthetic volume so the ingest path (checksums, corrupt@ and
/// drop@ faults, staleness) runs for real upstream of the egress stage.
fn volume_for(cycle: usize) -> Bytes {
    let obs: Vec<Observation<f32>> = (0..16)
        .map(|i| Observation {
            kind: if i % 4 == 0 {
                ObsKind::DopplerVelocity
            } else {
                ObsKind::Reflectivity
            },
            x: 1000.0 * i as f64,
            y: 500.0 * i as f64,
            z: 2000.0,
            value: cycle as f32 + i as f32 * 0.25,
            error_sd: 5.0,
        })
        .collect();
    encode_volume(&ScanResult {
        time: (cycle as f64 + 1.0) * 30.0,
        obs,
        n_reflectivity: 12,
        n_doppler: 4,
        n_clear_air: 0,
        raw_bytes: 0,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let valued = [
        "--clients",
        "--cycles",
        "--seed",
        "--deadline-ms",
        "--faults",
    ];
    cli::only(&argv, &valued, &["--table"]);
    let clients = cli::flag(&argv, "--clients").unwrap_or(1000);
    let cycles = cli::flag(&argv, "--cycles").unwrap_or(20);
    let seed: u64 = cli::flag(&argv, "--seed").unwrap_or(7);
    let deadline_ms: f64 = cli::flag(&argv, "--deadline-ms").unwrap_or(1000.0);
    let table = argv.iter().any(|a| a == "--table");
    let faults: String = cli::flag(&argv, "--faults").unwrap_or_else(|| {
        "slowclient:50@5, connstorm:150@9, drop@7, slowclient:30@14, corrupt@12".into()
    });
    let plan = FaultPlan::parse(&faults, cycles)
        .unwrap_or_else(|e| cli::usage(&format!("bad --faults spec: {e}")));
    eprintln!("serve_storm: {clients} clients, {cycles} cycles, seed {seed}, faults [{faults}]");

    let server = NowcastServer::bind(ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    let swarm = StormSwarm::launch(
        addr,
        SwarmConfig {
            clients,
            seed,
            // ≥5% of the fleet hostile before the FaultPlan adds more.
            never_ack: 0.03,
            mid_stream_disconnect: 0.025,
        },
        plan.clone(),
    );
    // Let the fleet handshake before the first cycle publishes.
    std::thread::sleep(Duration::from_millis(50 + clients as u64 / 2));

    // The egress stage runs on the supervisor's forecast thread; the
    // server lives in a cell so main can recover it for shutdown whatever
    // disposition the final cycle had.
    let server_cell = Mutex::new(server);
    let misses: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let swarm_tx = swarm.cycle_sender();
    let supervisor = CycleSupervisor {
        faults: plan,
        ..CycleSupervisor::default()
    };
    let mut last_field = vec![0.0f64; W * H];
    let (server_ref, misses_ref) = (&server_cell, &misses);
    let report = supervisor.run_with_egress(
        cycles,
        |cycle| Ok(volume_for(cycle)),
        |cycle, bytes: Bytes| {
            // Touch every byte so corrupt@C faults surface as degraded
            // cycles upstream of the egress stage.
            let sum: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
            Ok((cycle, sum))
        },
        |_cycle, _input| Ok(()),
        move |cycle, disposition| {
            // Degraded/skipped cycles re-serve the last good product with
            // the staleness flag set; completed cycles serve fresh tiles.
            let stale = !matches!(disposition, CycleDisposition::Completed);
            if !stale {
                last_field = synthetic_reflectivity(cycle as u64, W, H);
            }
            let mut srv = server_ref.lock().expect("server cell");
            let note = match srv.publish(cycle as u64, &last_field, W, H, stale) {
                Ok(rep) => {
                    if rep.elapsed_ms > deadline_ms {
                        misses_ref
                            .lock()
                            .expect("miss log")
                            .push((cycle, rep.elapsed_ms));
                    }
                    let _ = swarm_tx.send(SwarmEvent::Cycle(cycle as u64));
                    format!("{}{}", rep.note(), if stale { " [stale]" } else { "" })
                }
                Err(e) => format!("publish error: {e}"),
            };
            Some(note)
        },
    );

    let serve_report = server_cell
        .into_inner()
        .expect("server cell")
        .shutdown(Duration::from_secs(5));
    let swarm_report = swarm.finish();
    let misses = misses.into_inner().expect("miss log");

    println!("{}", report.table());
    println!("egress: {}", serve_report.summary());
    println!("swarm:  {}", swarm_report.summary());
    if table {
        println!("\n{}", serve_report.table());
    }

    let mut failed = false;
    if !misses.is_empty() {
        failed = true;
        for (cycle, ms) in &misses {
            eprintln!("FAIL: cycle {cycle} publish took {ms:.1}ms > {deadline_ms}ms budget");
        }
    }
    if swarm_report.decode_errors() > 0 {
        failed = true;
        eprintln!(
            "FAIL: {} corrupt frame(s) reached verified clients",
            swarm_report.decode_errors()
        );
    }
    if report.failed() > 0 {
        failed = true;
        eprintln!("FAIL: {} cycle(s) failed outright", report.failed());
    }
    if failed {
        std::process::exit(1);
    }
    println!("serve_storm: OK — {cycles} cycles, zero egress deadline misses, zero corrupt frames");
}
