//! `sharded_cycle`: the quickstart case as a 2-shard `NetFederation` in one
//! process, halos over loopback sockets, every shard checkpointing every
//! cycle. Closed loop: each cycle is due when the previous one has
//! collected on both shards.
//!
//! A federation cannot be rewound, so a traced run starts two federations
//! from the same configuration and runs the same cycles on each, the first
//! untraced and the second traced. Both must end in the same state with the
//! same counts in every cycle, and the tracing overhead compares the same
//! cycles.

use crate::report::{peak_rss_mb, state_digest, Agg, Report};
use crate::trace::{self, span, Span};
use crate::{cpu_seconds, nowcast, Args};
use bda_core::osse::CycleOutcome;
use bda_shard::federation::NetTuning;
use bda_shard::{FederationConfig, NetFederation};
use std::path::Path;
use std::time::Instant;

const SHARDS: usize = 2;
/// Nominal cycle cost used to turn `--seconds` into a cycle count.
const NOMINAL_CYCLE_S: f64 = 0.7;

/// What one timed cycle produced.
struct Cycle {
    wall_s: f64,
    to_product_s: f64,
    post_rmse: f64,
    checkpoint_bytes: u64,
}

/// What one federation's run produced.
struct FedRun {
    cycles: Vec<Cycle>,
    /// Per cycle: every shard's counts and the checkpoint bytes written.
    counts: Vec<String>,
    /// State digest of shard 0 after the last cycle.
    digest: u64,
    /// Shard 0's cycle outcomes.
    outcomes: Vec<CycleOutcome>,
    spans: Vec<Span>,
    busy: f64,
    halos_received: u64,
    reqs_served: u64,
    /// Payload bytes of the halos received, over every shard.
    halo_bytes: u64,
    /// Members times model seconds integrated per cycle, over every shard.
    member_s: f64,
}

pub fn run(args: &Args, rep: &mut Report) {
    let n = crate::cycles_for(args.seconds, NOMINAL_CYCLE_S);
    if !args.trace {
        let Some(run) = federation(args, rep, n, false) else {
            return;
        };
        for cy in &run.cycles {
            rep.sample("cycle_s", "s", Agg::Median, cy.wall_s);
            rep.sample("scan_to_ack_p50_s", "s", Agg::Median, cy.to_product_s);
            rep.sample("scan_to_ack_p90_s", "s", Agg::P90, cy.to_product_s);
            rep.sample("analysis_rmse_dbz", "dBZ", Agg::Mean, cy.post_rmse);
        }
        rep.sample("peak_rss_mb", "MB", Agg::Median, peak_rss_mb());
        return;
    }

    let n = (n / 2).max(3);
    let (Some(plain), Some(traced)) = (
        federation(args, rep, n, false),
        federation(args, rep, n, true),
    ) else {
        return;
    };
    rep.check(plain.digest == traced.digest, || {
        format!(
            "traced state digest {:016x} != untraced {:016x}",
            traced.digest, plain.digest
        )
    });
    for (c, (a, b)) in plain.counts.iter().zip(&traced.counts).enumerate() {
        rep.check(a == b, || {
            format!("traced cycle {c} counts differ: {b} vs {a}")
        });
    }

    let spans = &traced.spans;
    crate::layer_metrics(rep, spans);
    rep.samples(
        "trace.coverage_ratio",
        "ratio",
        Agg::Median,
        &crate::closed_loop_coverage(spans),
    );
    let walls = |r: &FedRun| r.cycles.iter().map(|c| c.wall_s).collect::<Vec<_>>();
    rep.sample(
        "trace.overhead_ratio",
        "ratio",
        Agg::Median,
        crate::overhead(&walls(&traced), &walls(&plain)),
    );
    rep.sample("proc.cpu_busy_ratio", "ratio", Agg::Median, plain.busy);
    let refs: Vec<_> = traced.outcomes.iter().collect();
    crate::osse_counts(rep, &refs);
    rep.sample(
        "scale.member_seconds",
        "count",
        Agg::Median,
        traced.member_s,
    );
    let n_run = traced.cycles.len().max(1) as f64;
    rep.sample(
        "shard.halo_bytes_per_cycle",
        "bytes",
        Agg::Median,
        traced.halo_bytes as f64 / n_run,
    );
    for cy in &traced.cycles {
        rep.sample(
            "io.checkpoint_bytes_per_cycle",
            "bytes",
            Agg::Median,
            cy.checkpoint_bytes as f64,
        );
    }
    let received = traced.halos_received;
    rep.sample(
        "shard.halos_received",
        "count",
        Agg::Median,
        received as f64,
    );
    rep.sample(
        "shard.reqs_served",
        "count",
        Agg::Median,
        traced.reqs_served as f64,
    );
    // Each shard applies one halo from every other shard per cycle.
    let applied = traced.cycles.len() * SHARDS * (SHARDS - 1);
    rep.sample(
        "shard.halo_useful_ratio",
        "ratio",
        Agg::Median,
        applied as f64 / received.max(1) as f64,
    );
    crate::write_spans(args, spans);
}

/// Start a federation in a directory of its own, run `n` cycles, check
/// them and remove the directory.
fn federation(args: &Args, rep: &mut Report, n: usize, traced: bool) -> Option<FedRun> {
    let dir = args.out.join(format!(
        "sharded-{}-{}",
        std::process::id(),
        u8::from(traced)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let run = run_in(args, rep, &dir, n, traced);
    let _ = std::fs::remove_dir_all(&dir);
    run
}

fn run_in(args: &Args, rep: &mut Report, dir: &Path, n: usize, traced: bool) -> Option<FedRun> {
    let t0 = Instant::now();
    let mut cfg = FederationConfig::new(nowcast::config(), SHARDS, n, dir);
    cfg.spinup_seconds = nowcast::SPINUP_S;
    cfg.checkpoint_every = 1;
    let mut fed = match NetFederation::<f32>::start(cfg, NetTuning::default()) {
        Ok(f) => f,
        Err(e) => {
            rep.op(Err(format!("federation start: {e}")));
            return None;
        }
    };
    for w in &mut fed.workers {
        crate::observe_with(&mut w.osse, args.seed);
    }
    rep.sample("setup_s", "s", Agg::Median, t0.elapsed().as_secs_f64());
    let truth_max = fed.workers[0].osse.truth_max_dbz();
    rep.check(truth_max >= 30.0, || {
        format!("rain guard: truth maximum {truth_max:.1} dBZ < 30 dBZ at the first timed cycle")
    });

    let ckpt = dir.join("ckpt");
    let mut cycles = Vec::with_capacity(n);
    if traced {
        trace::install();
    }
    let (cpu0, t_run) = (cpu_seconds(), Instant::now());
    for c in 0..n {
        match cycle(&mut fed, c as u64, &ckpt) {
            Ok(cy) => cycles.push(cy),
            Err(e) => {
                rep.op(Err(format!("cycle {c}: {e}")));
                break;
            }
        }
    }
    let busy = crate::cpu_busy_ratio(cpu0, t_run);
    let spans = trace::finish();

    let outs: Vec<_> = fed.workers.iter().map(|w| &w.outcomes).collect();
    let mut counts = Vec::with_capacity(cycles.len());
    for (c, cy) in cycles.iter().enumerate() {
        let mut ok = Ok(());
        for (s, w) in fed.workers.iter().enumerate() {
            let label = &w.records[c].label;
            if label != "completed" {
                ok = Err(format!("cycle {c}: shard {s} {label}"));
            } else if let Err(e) = crate::cycle_ok(&outs[s][c], w.osse.ensemble.size()) {
                ok = Err(format!("cycle {c}: shard {s}: {e}"));
            }
        }
        rep.op(ok);
        let shards: Vec<String> = outs.iter().map(|o| crate::outcome_counts(&o[c])).collect();
        counts.push(format!(
            "{} checkpoint {}",
            shards.join(" | "),
            cy.checkpoint_bytes
        ));
    }
    let skill = outs[0]
        .iter()
        .any(|o| o.posterior_rmse_dbz < o.prior_rmse_dbz);
    rep.check(skill, || {
        "rain guard: no cycle reduced the RMSE against truth".to_string()
    });
    let digests: Vec<u64> = fed.workers.iter().map(|w| state_digest(&w.osse)).collect();
    rep.check(digests.windows(2).all(|d| d[0] == d[1]), || {
        format!("shards assembled different states: {digests:016x?}")
    });

    let w0 = &fed.workers[0];
    let k = w0.osse.ensemble.size();
    let (mut halos_received, mut reqs_served, mut halo_bytes) = (0, 0, 0);
    for (s, w) in fed.workers.iter().enumerate() {
        let st = w.bus().stats();
        halos_received += st.halos_received;
        reqs_served += st.reqs_served;
        // A halo carries its sender's strip for every member as f32 (frame
        // overhead left out); with two shards the sender is the other one.
        let sender = (s + 1) % SHARDS;
        halo_bytes += st.halos_received * (w0.layout().strip_len(sender) * k * 4) as u64;
    }
    Some(FedRun {
        counts,
        digest: digests[0],
        outcomes: outs[0][..cycles.len()].to_vec(),
        spans,
        busy,
        halos_received,
        reqs_served,
        halo_bytes,
        // Every shard integrates the truth and the whole ensemble.
        member_s: (SHARDS * (k + 1)) as f64 * w0.osse.cfg.cycle_interval,
        cycles,
    })
}

/// One federation cycle: every shard publishes, then every shard collects.
fn cycle(fed: &mut NetFederation<f32>, c: u64, ckpt: &Path) -> Result<Cycle, String> {
    let t = Instant::now();
    {
        let _root = span("cycle", c);
        let mut pending = Vec::with_capacity(SHARDS);
        for w in &mut fed.workers {
            let _s = span("shard.publish", c);
            pending.push(w.run_cycle_publish(c)?);
        }
        for (w, p) in fed.workers.iter_mut().zip(pending) {
            let _s = span("shard.collect", c);
            w.run_cycle_collect(p, true);
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let w0 = &fed.workers[0];
    std::hint::black_box(w0.osse.mean_reflectivity_map(2000.0));
    let to_product_s = t.elapsed().as_secs_f64();
    let post_rmse = w0
        .outcomes
        .last()
        .map_or(f64::NAN, |o| o.posterior_rmse_dbz);
    Ok(Cycle {
        wall_s,
        to_product_s,
        post_rmse,
        checkpoint_bytes: drain_dir(ckpt),
    })
}

/// Total size of the files in `dir`, which are then removed (each cycle's
/// checkpoints are measured once and not kept).
fn drain_dir(dir: &Path) -> u64 {
    let mut total = 0;
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        total += e.metadata().map_or(0, |m| m.len());
        let _ = std::fs::remove_file(e.path());
    }
    total
}
