//! The live 30-second pipeline and its fault-tolerant cycle supervisor
//! (Figs. 2 and 4, at reduced scale).
//!
//! Three stages run on their own threads, connected by the JIT-DT byte pipe
//! and bounded channels, mirroring the production layout:
//!
//! ```text
//! radar thread  --volume bytes-->  assimilation thread  --analysis-->  forecast thread
//!  (MP-PAWR)        (JIT-DT)        (LETKF, part <1>)                 (part <2>)
//! ```
//!
//! The stages overlap across cycles exactly as on Fugaku: while cycle `n`'s
//! forecast runs, cycle `n+1` is already being scanned and assimilated.
//! Per-stage wall-clock times land in [`CycleTiming`], and the
//! time-to-solution is measured from scan completion (`T_obs`) to forecast
//! product completion, the Fig. 4 definition.
//!
//! [`CycleSupervisor`] is the only way to run that layout. With an empty
//! [`FaultPlan`] it is the plain pipeline; the production system on Fugaku
//! could not assume every scan arrives and every stage returns — a
//! 30-second cadence over a month-long deployment means every component
//! *will* fail mid-campaign, and the right response is almost never
//! "stop". So every run carries the operational armor:
//!
//! * **panic isolation** — each stage closure runs under `catch_unwind`;
//!   a panicking assimilation poisons one cycle, not the pipeline;
//! * **stall watchdog + retry** — the transfer wait uses the JIT-DT pipe's
//!   [`recv_timeout`](bda_jitdt::pipe::PipeReceiver::recv_timeout) watchdog
//!   and retries with bounded exponential backoff, mirroring the paper's
//!   transfer-daemon auto-restart;
//! * **newest-scan-wins** — when the assimilation falls behind, queued
//!   stale scans are superseded by the latest one (a 30-second-old analysis
//!   is worth more than a 90-second-old one delivered late);
//! * **per-stage deadlines** — a cycle that blows its deadline is recorded
//!   as skipped rather than delaying every cycle after it;
//! * **graceful degradation** — failed assimilation falls back to the
//!   previous analysis (forecast–forecast continuation); missing or
//!   corrupt observations fall back to persistence;
//! * **end-to-end payload checksum** — volumes are checksummed at scan
//!   time and verified before assimilation, catching corruption the pipe's
//!   own per-hop trailer cannot see.
//!
//! Every cycle ends in exactly one [`CycleDisposition`], and the
//! [`SupervisorReport`] aggregates them into the availability statistic
//! that corresponds to the gray outage shading of the paper's Fig. 5.

use crate::backoff::Backoff;
use crate::fault::{Fault, FaultPlan, Stage};
use bda_jitdt::pipe::{fnv1a, PipeError};
use bda_jitdt::sequence::{sequenced_pipe, DeliveryDrop, DeliveryError, SequencedReceiver};
use bytes::Bytes;
use crossbeam::channel::bounded;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Transfer chunk size through the JIT-DT byte pipe.
const CHUNK_BYTES: usize = 64 * 1024;
/// In-flight frame and channel capacity (back-pressure depth).
const CAPACITY: usize = 64;

/// Wall-clock timing of one cycle through the live pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CycleTiming {
    pub cycle: usize,
    /// Time spent producing the scan volume (before `T_obs`).
    pub scan_s: f64,
    /// `T_obs` to volume available on the assimilation side.
    pub transfer_s: f64,
    /// Assimilation stage duration.
    pub assimilation_s: f64,
    /// Forecast stage duration.
    pub forecast_s: f64,
    /// `T_obs` to forecast product — the paper's time-to-solution.
    pub time_to_solution_s: f64,
}

/// A typed stage failure. The `Display` form reads as an error chain
/// (`stage: cause`), and the variants carry enough context to reconstruct
/// what the supervisor saw.
#[derive(Clone, Debug, PartialEq)]
pub enum StageError {
    /// The stage closure panicked (caught at the stage boundary).
    Panicked { stage: Stage, message: String },
    /// The stage closure returned an error.
    Failed { stage: Stage, message: String },
    /// The stage finished but past its deadline.
    DeadlineExceeded {
        stage: Stage,
        elapsed_s: f64,
        deadline_s: f64,
    },
    /// The transfer watchdog fired `attempts` times and the retry budget
    /// ran out — the volume never arrived.
    TransferTimeout { attempts: usize },
    /// The volume arrived but its payload checksum did not match the one
    /// taken at scan time.
    CorruptVolume { expected: u64, got: u64 },
    /// The scan produced no volume at all this cycle.
    ScanDropped,
    /// The volume arrived, but its scan timestamp was older than the
    /// staleness horizon — assimilating it would move the analysis
    /// backwards in time.
    StaleScan { age_s: f64, horizon_s: f64 },
    /// The volume arrived shorter than its framing declared (mid-stream
    /// truncation), distinct from checksum-detected corruption.
    TruncatedVolume { expected: u64, got: u64 },
    /// The underlying pipe failed structurally (disconnect, framing).
    Pipe(String),
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Panicked { stage, message } => {
                write!(f, "{stage} panicked: {message}")
            }
            StageError::Failed { stage, message } => write!(f, "{stage} failed: {message}"),
            StageError::DeadlineExceeded {
                stage,
                elapsed_s,
                deadline_s,
            } => write!(
                f,
                "{stage} missed deadline: {elapsed_s:.3}s > {deadline_s:.3}s"
            ),
            StageError::TransferTimeout { attempts } => {
                write!(f, "transfer timed out after {attempts} watchdog windows")
            }
            StageError::CorruptVolume { expected, got } => write!(
                f,
                "volume corrupt: checksum {got:#018x} != scan-time {expected:#018x}"
            ),
            StageError::ScanDropped => write!(f, "scan produced no volume"),
            StageError::StaleScan { age_s, horizon_s } => {
                write!(f, "stale scan: {age_s:.1}s old > {horizon_s:.1}s horizon")
            }
            StageError::TruncatedVolume { expected, got } => {
                write!(f, "volume truncated in transit: {got}/{expected} bytes")
            }
            StageError::Pipe(msg) => write!(f, "pipe error: {msg}"),
        }
    }
}

impl std::error::Error for StageError {}

/// How a degraded cycle's forecast was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradedMode {
    /// Fresh observations were unusable, but a previous analysis exists:
    /// the forecast continues from it (forecast–forecast continuation).
    PreviousAnalysis,
    /// No analysis at all is available: advect the last product forward
    /// unchanged (persistence forecast).
    Persistence,
}

impl std::fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedMode::PreviousAnalysis => f.write_str("previous-analysis"),
            DegradedMode::Persistence => f.write_str("persistence"),
        }
    }
}

/// Why a cycle was skipped without producing a forecast.
#[derive(Clone, Debug, PartialEq)]
pub enum SkipCause {
    /// A newer scan arrived before this one was assimilated.
    Superseded { by: usize },
    /// A stage finished past its deadline; the product was discarded.
    Deadline(StageError),
}

impl std::fmt::Display for SkipCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SkipCause::Superseded { by } => write!(f, "superseded by cycle {by}"),
            SkipCause::Deadline(e) => write!(f, "{e}"),
        }
    }
}

/// The outcome taxonomy: every supervised cycle ends in exactly one of
/// these.
#[derive(Clone, Debug, PartialEq)]
pub enum CycleDisposition {
    /// Fresh analysis, forecast delivered on time.
    Completed,
    /// A forecast was delivered, but from a degraded source.
    Degraded {
        mode: DegradedMode,
        cause: StageError,
    },
    /// No forecast for this cycle, by design (superseded or late).
    Skipped { cause: SkipCause },
    /// No forecast and no graceful path: the forecast stage itself died.
    Failed { cause: StageError },
}

impl CycleDisposition {
    pub fn label(&self) -> &'static str {
        match self {
            CycleDisposition::Completed => "completed",
            CycleDisposition::Degraded { .. } => "degraded",
            CycleDisposition::Skipped { .. } => "skipped",
            CycleDisposition::Failed { .. } => "failed",
        }
    }

    /// Whether a forecast product reached the consumer this cycle.
    pub fn delivered_forecast(&self) -> bool {
        matches!(
            self,
            CycleDisposition::Completed | CycleDisposition::Degraded { .. }
        )
    }
}

/// What the forecast stage is given to work from.
#[derive(Debug)]
pub enum ForecastInput<'a, P> {
    /// This cycle's fresh analysis.
    Analysis(&'a P),
    /// The most recent earlier analysis (degraded).
    PreviousAnalysis(&'a P),
    /// No analysis available: persistence (degraded).
    Persistence,
}

/// One cycle's supervised outcome.
#[derive(Clone, Debug)]
pub struct CycleReport {
    pub cycle: usize,
    pub disposition: CycleDisposition,
    /// Stage timings, present whenever the forecast stage ran.
    pub timing: Option<CycleTiming>,
    /// Transfer watchdog windows that elapsed before the volume arrived.
    pub transfer_retries: usize,
    /// Volumes classified and dropped while waiting for this cycle's volume
    /// (duplicates from replayed transfers, out-of-order leftovers from
    /// abandoned cycles). Dropping them is correct behaviour; they are
    /// reported so the outcome table shows the ingest layer working.
    pub drops: Vec<DeliveryDrop>,
    /// What the egress stage reported after this cycle's product was (or
    /// was not) published — `None` when no egress stage is wired in, or
    /// when the cycle never reached the forecast thread (superseded /
    /// assimilation-deadline skips publish nothing).
    pub egress: Option<String>,
}

/// Aggregated outcome of a supervised run.
#[derive(Clone, Debug, Default)]
pub struct SupervisorReport {
    pub cycles: Vec<CycleReport>,
}

impl SupervisorReport {
    fn count(&self, f: impl Fn(&CycleDisposition) -> bool) -> usize {
        self.cycles.iter().filter(|c| f(&c.disposition)).count()
    }

    pub fn completed(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Completed))
    }

    pub fn degraded(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Degraded { .. }))
    }

    pub fn skipped(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Skipped { .. }))
    }

    pub fn failed(&self) -> usize {
        self.count(|d| matches!(d, CycleDisposition::Failed { .. }))
    }

    /// Fraction of cycles that delivered a forecast (fresh or degraded) —
    /// the Fig. 5 availability analogue: skipped and failed cycles are the
    /// gray bands.
    pub fn availability(&self) -> f64 {
        if self.cycles.is_empty() {
            return 1.0;
        }
        self.count(CycleDisposition::delivered_forecast) as f64 / self.cycles.len() as f64
    }

    /// Per-cycle outcome table (the `--inject` report of the realtime
    /// example). When any cycle carries an egress note, the table grows an
    /// `egress` column between `retries` and `detail`.
    pub fn table(&self) -> String {
        let egress_w = self
            .cycles
            .iter()
            .filter_map(|c| c.egress.as_deref().map(str::len))
            .max()
            .map(|w| w.max("egress".len()));
        let mut out = format!(
            "cycle  outcome    obs(ms)  letkf(ms)  fcst(ms)  tts(ms)  retries  {}detail\n",
            match egress_w {
                Some(w) => format!("{:<w$}  ", "egress"),
                None => String::new(),
            }
        );
        for c in &self.cycles {
            // Per-stage wall-clock: observation ingest (scan + transfer),
            // LETKF analysis, ensemble forecast, then end-to-end
            // time-to-solution.
            let stages = c
                .timing
                .map(|t| {
                    format!(
                        "{:7.1}  {:9.1}  {:8.1}  {:7.1}",
                        (t.scan_s + t.transfer_s) * 1e3,
                        t.assimilation_s * 1e3,
                        t.forecast_s * 1e3,
                        t.time_to_solution_s * 1e3
                    )
                })
                .unwrap_or_else(|| format!("{:>7}  {:>9}  {:>8}  {:>7}", "-", "-", "-", "-"));
            let mut detail = match &c.disposition {
                CycleDisposition::Completed => String::new(),
                CycleDisposition::Degraded { mode, cause } => format!("{mode}: {cause}"),
                CycleDisposition::Skipped { cause } => cause.to_string(),
                CycleDisposition::Failed { cause } => cause.to_string(),
            };
            for d in &c.drops {
                if !detail.is_empty() {
                    detail.push_str("; ");
                }
                detail.push_str(&d.to_string());
            }
            let egress = match egress_w {
                Some(w) => format!("{:<w$}  ", c.egress.as_deref().unwrap_or("-")),
                None => String::new(),
            };
            out.push_str(&format!(
                "{:5}  {:<9} {stages}  {:7}  {egress}{detail}\n",
                c.cycle,
                c.disposition.label(),
                c.transfer_retries,
            ));
        }
        out.push_str(&format!(
            "availability {:.1}% ({} completed, {} degraded, {} skipped, {} failed)\n",
            self.availability() * 100.0,
            self.completed(),
            self.degraded(),
            self.skipped(),
            self.failed(),
        ));
        out
    }
}

/// Supervisor configuration. With the default settings and an empty
/// [`FaultPlan`], a run is the plain three-stage pipeline: every cycle
/// completes from a fresh analysis and the stages overlap across cycles.
#[derive(Clone, Debug)]
pub struct CycleSupervisor {
    /// Transfer stall watchdog window (per-frame progress timeout).
    pub stall_timeout: Duration,
    /// Watchdog firings tolerated before the transfer is declared dead —
    /// the JIT-DT `max_restarts` analogue.
    pub max_restarts: usize,
    /// Base backoff slept after each watchdog firing (doubles per retry,
    /// capped at 16x).
    pub backoff_base: Duration,
    /// Assimilation wall-clock deadline; exceeding it skips the cycle.
    pub assimilation_deadline: Option<Duration>,
    /// Forecast wall-clock deadline; exceeding it skips the cycle.
    pub forecast_deadline: Option<Duration>,
    /// Newest-scan-wins: skip queued stale scans instead of draining the
    /// backlog in order. Off by default — it is the right policy when the
    /// radar paces scans at a real cadence and assimilation can fall
    /// behind it, but with free-running (unpaced) scan closures it would
    /// supersede everything the radar gets ahead of.
    pub supersede_stale: bool,
    /// Campaign-clock seconds between scans (the paper's 30-second
    /// cadence). Volume scan timestamps and the receiver's staleness clock
    /// both advance by this much per cycle.
    pub scan_interval_s: f64,
    /// Reject volumes whose scan timestamp is older than this at receive
    /// time; `None` disables the staleness check.
    pub stale_horizon_s: Option<f64>,
    /// Deterministic fault injection schedule.
    pub faults: FaultPlan,
}

impl Default for CycleSupervisor {
    fn default() -> Self {
        Self {
            stall_timeout: Duration::from_millis(50),
            max_restarts: 3,
            backoff_base: Duration::from_millis(5),
            assimilation_deadline: None,
            forecast_deadline: None,
            supersede_stale: false,
            scan_interval_s: 30.0,
            stale_horizon_s: Some(90.0),
            faults: FaultPlan::none(),
        }
    }
}

/// Scan-side metadata for one cycle. `checksum` is the payload checksum
/// taken at `T_obs`, or `Err` when no volume was sent through the pipe
/// (dropped scan or scan-stage failure).
struct ScanMeta {
    cycle: usize,
    t_obs: Instant,
    scan_s: f64,
    checksum: Result<u64, StageError>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one stage closure at the stage boundary: panic-isolated, with the
/// plan's scheduled panic for `(stage, cycle)` injected first. A returned
/// error or a caught panic becomes the matching typed [`StageError`].
fn run_stage<R>(
    plan: &FaultPlan,
    stage: Stage,
    cycle: usize,
    f: impl FnOnce() -> Result<R, String>,
) -> Result<R, StageError> {
    let inject_panic = plan.has(cycle, Fault::StagePanic(stage));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected {stage} panic (cycle {cycle})");
        }
        f()
    }));
    match outcome {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(message)) => Err(StageError::Failed { stage, message }),
        Err(p) => Err(StageError::Panicked {
            stage,
            message: panic_message(p),
        }),
    }
}

/// What [`CycleSupervisor::receive_volume`] recovered for one cycle.
struct ReceivedVolume {
    retries: usize,
    drops: Vec<DeliveryDrop>,
    payload: Result<Bytes, StageError>,
}

/// What the assimilation thread hands the forecast thread per cycle.
struct AssimOutcome<P> {
    meta: ScanMeta,
    retries: usize,
    drops: Vec<DeliveryDrop>,
    transfer_s: f64,
    assim_s: f64,
    result: Result<P, StageError>,
}

impl CycleSupervisor {
    /// Run `n_cycles` under supervision.
    ///
    /// The stage closures return `Result` so recoverable failures flow
    /// into the degradation ladder (panics are additionally caught at
    /// every stage boundary):
    ///
    /// * `scan(cycle)` produces the encoded volume (runs on the radar
    ///   thread);
    /// * `assimilate(cycle, volume)` returns the analysis product handed to
    ///   the forecast stage;
    /// * `forecast(cycle, input)` consumes a [`ForecastInput`] — fresh
    ///   analysis, previous analysis, or persistence.
    pub fn run<P, S, A, F>(
        &self,
        n_cycles: usize,
        scan: S,
        assimilate: A,
        forecast: F,
    ) -> SupervisorReport
    where
        P: Send,
        S: FnMut(usize) -> Result<Bytes, String> + Send,
        A: FnMut(usize, Bytes) -> Result<P, String> + Send,
        F: FnMut(usize, ForecastInput<'_, P>) -> Result<(), String> + Send,
    {
        self.run_with_egress(n_cycles, scan, assimilate, forecast, |_, _| None)
    }

    /// [`run`](Self::run) with an egress stage attached to the forecast
    /// thread.
    ///
    /// After each cycle's disposition is decided, `egress(cycle,
    /// &disposition)` runs panic-isolated; whatever note it returns lands
    /// in [`CycleReport::egress`] and the outcome table. The egress stage
    /// can never change a disposition — a publishing failure (or panic) is
    /// recorded, not escalated, because the product itself was already
    /// produced. Cycles that never reach the forecast thread (superseded,
    /// assimilation-deadline skips) publish nothing and carry no note.
    pub fn run_with_egress<P, S, A, F, E>(
        &self,
        n_cycles: usize,
        mut scan: S,
        mut assimilate: A,
        mut forecast: F,
        mut egress: E,
    ) -> SupervisorReport
    where
        P: Send,
        S: FnMut(usize) -> Result<Bytes, String> + Send,
        A: FnMut(usize, Bytes) -> Result<P, String> + Send,
        F: FnMut(usize, ForecastInput<'_, P>) -> Result<(), String> + Send,
        E: FnMut(usize, &CycleDisposition) -> Option<String> + Send,
    {
        let (vol_tx, vol_rx) = sequenced_pipe(CHUNK_BYTES, CAPACITY, self.stale_horizon_s);
        let (meta_tx, meta_rx) = bounded::<ScanMeta>(CAPACITY);
        let (ana_tx, ana_rx) = bounded::<AssimOutcome<P>>(CAPACITY);
        let (out_tx, out_rx) = bounded::<CycleReport>(n_cycles.max(1));
        let out_tx_assim = out_tx.clone();
        let plan = &self.faults;

        std::thread::scope(|s| {
            // Radar thread: scan (panic-isolated), checksum at T_obs, then
            // apply scheduled payload corruption *after* the checksum — the
            // supervised receiver must catch it. Volumes are sequenced with
            // the cycle index and the campaign-clock scan time; dup/stale
            // faults replay or back-date the send.
            s.spawn(move || {
                let mut vol_tx = vol_tx;
                for cycle in 0..n_cycles {
                    let t0 = Instant::now(); // bda-check: allow(wallclock) — wall-time telemetry column
                    let volume = if plan.has(cycle, Fault::DropScan) {
                        Err(StageError::ScanDropped)
                    } else {
                        run_stage(plan, Stage::Scan, cycle, || scan(cycle))
                    };
                    let t_obs = Instant::now(); // bda-check: allow(wallclock) — wall-time telemetry column
                    let meta = ScanMeta {
                        cycle,
                        t_obs,
                        scan_s: (t_obs - t0).as_secs_f64(),
                        checksum: volume.as_ref().map(|v| fnv1a(v)).map_err(Clone::clone),
                    };
                    if meta_tx.send(meta).is_err() {
                        break;
                    }
                    let Ok(volume) = volume else { continue };
                    let wire = if plan.has(cycle, Fault::CorruptVolume) {
                        let mut bytes = volume.to_vec();
                        FaultPlan::corrupt_payload(&mut bytes);
                        Bytes::from(bytes)
                    } else {
                        volume
                    };
                    let scan_time = if plan.has(cycle, Fault::StaleScan) {
                        // Back-date far past any plausible horizon.
                        cycle as f64 * self.scan_interval_s
                            - self.stale_horizon_s.unwrap_or(0.0)
                            - 10.0 * self.scan_interval_s.max(1.0)
                    } else {
                        cycle as f64 * self.scan_interval_s
                    };
                    let copies = if plan.has(cycle, Fault::DuplicateVolume) {
                        2
                    } else {
                        1
                    };
                    for _ in 0..copies {
                        if vol_tx
                            .send_with_seq(cycle as u64, scan_time, &wire)
                            .is_err()
                        {
                            return;
                        }
                    }
                }
            });

            // Assimilation thread: newest-scan-wins, watchdog + retry on
            // the transfer, checksum verification, panic-isolated
            // assimilation under a deadline.
            s.spawn(move || {
                let mut vol_rx = vol_rx;
                while let Ok(first) = meta_rx.recv() {
                    let mut meta = first;
                    if self.supersede_stale {
                        let mut superseded = Vec::new();
                        while let Ok(newer) = meta_rx.try_recv() {
                            superseded.push(std::mem::replace(&mut meta, newer));
                        }
                        let by = meta.cycle;
                        for old in superseded {
                            let _ = out_tx_assim.send(CycleReport {
                                cycle: old.cycle,
                                disposition: CycleDisposition::Skipped {
                                    cause: SkipCause::Superseded { by },
                                },
                                timing: None,
                                transfer_retries: 0,
                                drops: Vec::new(),
                                egress: None,
                            });
                        }
                    }
                    let cycle = meta.cycle;
                    let (retries, drops, transfer_s, volume) = match meta.checksum {
                        Err(ref e) => (0, Vec::new(), 0.0, Err(e.clone())),
                        Ok(expected) => {
                            let received = self.receive_volume(&mut vol_rx, cycle);
                            let transfer_s = meta.t_obs.elapsed().as_secs_f64();
                            let volume = received.payload.and_then(|v| match fnv1a(&v) {
                                got if got == expected => Ok(v),
                                got => Err(StageError::CorruptVolume { expected, got }),
                            });
                            (received.retries, received.drops, transfer_s, volume)
                        }
                    };
                    let (assim_s, result) = match volume {
                        Err(e) => (0.0, Err(e)),
                        Ok(volume) => {
                            let t1 = Instant::now(); // bda-check: allow(wallclock) — wall-time telemetry column
                            let result = run_stage(plan, Stage::Assimilation, cycle, || {
                                assimilate(cycle, volume)
                            });
                            (t1.elapsed().as_secs_f64(), result)
                        }
                    };
                    if let (Ok(_), Some(deadline)) = (&result, self.assimilation_deadline) {
                        let deadline_s = deadline.as_secs_f64();
                        if assim_s > deadline_s {
                            // Late analysis: discard the product rather
                            // than delay every later cycle.
                            let _ = out_tx_assim.send(CycleReport {
                                cycle,
                                disposition: CycleDisposition::Skipped {
                                    cause: SkipCause::Deadline(StageError::DeadlineExceeded {
                                        stage: Stage::Assimilation,
                                        elapsed_s: assim_s,
                                        deadline_s,
                                    }),
                                },
                                timing: None,
                                transfer_retries: retries,
                                drops,
                                egress: None,
                            });
                            continue;
                        }
                    }
                    let outcome = AssimOutcome {
                        meta,
                        retries,
                        drops,
                        transfer_s,
                        assim_s,
                        result,
                    };
                    if ana_tx.send(outcome).is_err() {
                        return;
                    }
                }
            });

            // Forecast thread: degradation ladder, panic-isolated forecast
            // under a deadline, final disposition.
            s.spawn(move || {
                let mut last_good: Option<P> = None;
                while let Ok(AssimOutcome {
                    meta,
                    retries,
                    drops,
                    transfer_s,
                    assim_s,
                    result,
                }) = ana_rx.recv()
                {
                    let cycle = meta.cycle;
                    let (fresh, degradation) = match result {
                        Ok(product) => (Some(product), None),
                        Err(cause) => {
                            // Ladder: an assimilation-side failure means
                            // observations arrived but no analysis was
                            // computed — continue from the previous one if
                            // it exists. Anything earlier (no scan, lost or
                            // corrupt volume) means no usable observations:
                            // persistence.
                            let assimilation_side = matches!(
                                &cause,
                                StageError::Panicked {
                                    stage: Stage::Assimilation,
                                    ..
                                } | StageError::Failed {
                                    stage: Stage::Assimilation,
                                    ..
                                }
                            );
                            let mode = if assimilation_side && last_good.is_some() {
                                DegradedMode::PreviousAnalysis
                            } else {
                                DegradedMode::Persistence
                            };
                            (None, Some((mode, cause)))
                        }
                    };
                    let input = match (&fresh, &degradation) {
                        (Some(p), _) => ForecastInput::Analysis(p),
                        (None, Some((DegradedMode::PreviousAnalysis, _))) => {
                            match last_good.as_ref() {
                                Some(prev) => ForecastInput::PreviousAnalysis(prev),
                                None => ForecastInput::Persistence,
                            }
                        }
                        _ => ForecastInput::Persistence,
                    };
                    let t2 = Instant::now(); // bda-check: allow(wallclock) — wall-time telemetry column
                    let outcome =
                        run_stage(plan, Stage::Forecast, cycle, || forecast(cycle, input));
                    let forecast_s = t2.elapsed().as_secs_f64();
                    let time_to_solution_s = meta.t_obs.elapsed().as_secs_f64();
                    let timing = CycleTiming {
                        cycle,
                        scan_s: meta.scan_s,
                        transfer_s,
                        assimilation_s: assim_s,
                        forecast_s,
                        time_to_solution_s,
                    };
                    let disposition = match outcome {
                        Err(cause) => CycleDisposition::Failed { cause },
                        Ok(()) => {
                            let late = self.forecast_deadline.and_then(|d| {
                                let deadline_s = d.as_secs_f64();
                                (forecast_s > deadline_s).then_some(deadline_s)
                            });
                            match (late, degradation) {
                                (Some(deadline_s), _) => CycleDisposition::Skipped {
                                    cause: SkipCause::Deadline(StageError::DeadlineExceeded {
                                        stage: Stage::Forecast,
                                        elapsed_s: forecast_s,
                                        deadline_s,
                                    }),
                                },
                                (None, None) => CycleDisposition::Completed,
                                (None, Some((mode, cause))) => {
                                    CycleDisposition::Degraded { mode, cause }
                                }
                            }
                        }
                    };
                    // A fresh analysis is valid even if this forecast run
                    // failed — keep it for the next cycle's ladder.
                    if let Some(p) = fresh {
                        last_good = Some(p);
                    }
                    // Egress runs after the disposition is final: a stalled
                    // or panicking publisher is a recorded note, never a
                    // changed outcome.
                    let egress_note =
                        match catch_unwind(AssertUnwindSafe(|| egress(cycle, &disposition))) {
                            Ok(note) => note,
                            Err(p) => Some(format!("egress panicked: {}", panic_message(p))),
                        };
                    let _ = out_tx.send(CycleReport {
                        cycle,
                        disposition,
                        timing: Some(timing),
                        transfer_retries: retries,
                        drops,
                        egress: egress_note,
                    });
                }
            });
        });

        let mut cycles: Vec<CycleReport> = out_rx.try_iter().collect();
        cycles.sort_by_key(|c| c.cycle);
        SupervisorReport { cycles }
    }

    /// Wait for `cycle`'s volume under the stall watchdog, retrying with
    /// bounded exponential backoff. Duplicate and out-of-order volumes
    /// (replays, leftovers from abandoned or superseded cycles) are dropped
    /// and recorded; stale scans and mid-stream truncation surface as their
    /// own typed [`StageError`]s.
    ///
    /// Injected `TransferStall` faults consume the first watchdog windows
    /// deterministically: the receiver behaves exactly as if the stream had
    /// been silent for that many windows, regardless of thread scheduling.
    fn receive_volume(&self, vol_rx: &mut SequencedReceiver, cycle: usize) -> ReceivedVolume {
        // The receiver's campaign clock: cycle C runs at C * interval.
        let now = cycle as f64 * self.scan_interval_s;
        let expected_seq = cycle as u64;
        let stall = |f: &Fault| match *f {
            Fault::TransferStall { timeouts } => Some(timeouts),
            _ => None,
        };
        let mut injected_left = self.faults.select(cycle, stall).next().unwrap_or(0);
        let mut timeouts = 0usize;
        let mut drops = Vec::new();
        // Shared retry policy (unjittered so the watchdog's historical
        // delay schedule — base * 2^min(n-1, 4) — is preserved exactly).
        let mut backoff = Backoff::new(self.backoff_base, self.backoff_base * 16);
        let payload = loop {
            if injected_left > 0 {
                injected_left -= 1;
                std::thread::sleep(self.stall_timeout);
            } else {
                match vol_rx.recv_timeout(now, self.stall_timeout) {
                    // Late volume from an abandoned cycle: newest (this
                    // cycle) wins.
                    Ok(v) if v.seq < expected_seq => {
                        drops.push(DeliveryDrop::OutOfOrder {
                            seq: v.seq,
                            newest: expected_seq,
                        });
                        continue;
                    }
                    Ok(v) if v.seq > expected_seq => {
                        break Err(StageError::Pipe(format!(
                            "volume seq {} ahead of expected cycle {cycle}",
                            v.seq
                        )));
                    }
                    Ok(v) => break Ok(v.payload),
                    Err(DeliveryError::Duplicate { seq }) => {
                        drops.push(DeliveryDrop::Duplicate { seq });
                        continue;
                    }
                    Err(DeliveryError::OutOfOrder { seq, newest }) => {
                        drops.push(DeliveryDrop::OutOfOrder { seq, newest });
                        continue;
                    }
                    Err(DeliveryError::Stale {
                        age_s, horizon_s, ..
                    }) => break Err(StageError::StaleScan { age_s, horizon_s }),
                    Err(DeliveryError::Truncated { expected, got }) => {
                        break Err(StageError::TruncatedVolume { expected, got })
                    }
                    Err(DeliveryError::Pipe(PipeError::Stalled)) => {}
                    Err(e) => break Err(StageError::Pipe(e.to_string())),
                }
            }
            // A watchdog window elapsed with no progress.
            timeouts += 1;
            if timeouts > self.max_restarts {
                break Err(StageError::TransferTimeout { attempts: timeouts });
            }
            if let Some(delay) = backoff.next_delay() {
                std::thread::sleep(delay);
            }
        };
        ReceivedVolume {
            retries: timeouts,
            drops,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting_stages(
        n: usize,
        sup: &CycleSupervisor,
    ) -> (SupervisorReport, Vec<(usize, &'static str)>) {
        let log = std::sync::Mutex::new(Vec::new());
        let report = sup.run(
            n,
            |c| Ok(Bytes::from(vec![c as u8; 100])),
            |c, v: Bytes| {
                assert_eq!(v.len(), 100);
                Ok(c * 10)
            },
            |c, input: ForecastInput<'_, usize>| {
                let kind = match input {
                    ForecastInput::Analysis(p) => {
                        assert_eq!(*p, c * 10);
                        "fresh"
                    }
                    ForecastInput::PreviousAnalysis(_) => "previous",
                    ForecastInput::Persistence => "persistence",
                };
                log.lock().unwrap().push((c, kind));
                Ok(())
            },
        );
        (report, log.into_inner().unwrap())
    }

    #[test]
    fn clean_run_all_cycles_complete() {
        let sup = CycleSupervisor::default();
        let (report, log) = counting_stages(6, &sup);
        assert_eq!(report.cycles.len(), 6);
        assert_eq!(report.completed(), 6);
        assert_eq!(report.availability(), 1.0);
        assert!(log.iter().all(|(_, k)| *k == "fresh"));
        for (i, c) in report.cycles.iter().enumerate() {
            assert_eq!(c.cycle, i);
            assert!(c.timing.is_some());
            assert_eq!(c.transfer_retries, 0);
        }
    }

    #[test]
    fn empty_run_reports_nothing() {
        let sup = CycleSupervisor::default();
        let (report, _) = counting_stages(0, &sup);
        assert!(report.cycles.is_empty());
        assert_eq!(report.availability(), 1.0);
    }

    #[test]
    fn assimilation_panic_degrades_to_previous_analysis() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(2, Fault::StagePanic(Stage::Assimilation)),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(5, &sup);
        assert_eq!(report.cycles.len(), 5);
        assert_eq!(report.completed(), 4);
        assert_eq!(report.degraded(), 1);
        match &report.cycles[2].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::PreviousAnalysis);
                assert!(matches!(
                    cause,
                    StageError::Panicked {
                        stage: Stage::Assimilation,
                        ..
                    }
                ));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[2], (2, "previous"));
        // Neighbours unaffected.
        assert_eq!(log[1], (1, "fresh"));
        assert_eq!(log[3], (3, "fresh"));
    }

    #[test]
    fn first_cycle_assimilation_panic_falls_to_persistence() {
        // No previous analysis exists yet, so the ladder bottoms out.
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(0, Fault::StagePanic(Stage::Assimilation)),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(3, &sup);
        match &report.cycles[0].disposition {
            CycleDisposition::Degraded { mode, .. } => {
                assert_eq!(*mode, DegradedMode::Persistence)
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[0], (0, "persistence"));
    }

    #[test]
    fn dropped_scan_forecasts_from_persistence() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::DropScan),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(3, &sup);
        match &report.cycles[1].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::Persistence);
                assert_eq!(*cause, StageError::ScanDropped);
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[1], (1, "persistence"));
        assert_eq!(report.availability(), 1.0);
    }

    #[test]
    fn corrupt_volume_rejected_by_checksum() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(2, Fault::CorruptVolume),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(4, &sup);
        match &report.cycles[2].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::Persistence);
                assert!(matches!(cause, StageError::CorruptVolume { .. }));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(log[2], (2, "persistence"));
    }

    #[test]
    fn duplicate_volume_dropped_and_reported() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::DuplicateVolume),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(4, &sup);
        // Every cycle still completes: the replayed copy is dropped, not
        // assimilated twice.
        assert_eq!(report.completed(), 4);
        assert!(log.iter().all(|(_, k)| *k == "fresh"));
        // The duplicate surfaces while waiting for the *next* cycle's
        // volume, as a typed drop on that cycle's report.
        let drops: Vec<_> = report.cycles.iter().flat_map(|c| &c.drops).collect();
        assert_eq!(drops, vec![&DeliveryDrop::Duplicate { seq: 1 }]);
        assert!(report.cycles[2]
            .drops
            .contains(&DeliveryDrop::Duplicate { seq: 1 }));
        assert!(
            report.table().contains("dropped duplicate seq 1"),
            "table:\n{}",
            report.table()
        );
    }

    #[test]
    fn stale_scan_rejected_with_typed_outcome() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(2, Fault::StaleScan),
            ..CycleSupervisor::default()
        };
        let (report, log) = counting_stages(4, &sup);
        match &report.cycles[2].disposition {
            CycleDisposition::Degraded {
                mode: DegradedMode::Persistence,
                cause: StageError::StaleScan { age_s, horizon_s },
            } => {
                assert_eq!(*horizon_s, 90.0);
                assert!(age_s > horizon_s);
            }
            other => panic!("stale scan should degrade to persistence, got {other:?}"),
        }
        assert_eq!(log[2], (2, "persistence"));
        // Neighbours are untouched and availability holds.
        assert!(matches!(
            report.cycles[3].disposition,
            CycleDisposition::Completed
        ));
        assert!(report.table().contains("stale scan"));
    }

    #[test]
    fn stalled_transfer_retries_and_completes() {
        let sup = CycleSupervisor {
            stall_timeout: Duration::from_millis(10),
            max_restarts: 4,
            backoff_base: Duration::from_millis(1),
            faults: FaultPlan::none().with(1, Fault::TransferStall { timeouts: 2 }),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.cycles[1].transfer_retries, 2);
        assert_eq!(report.cycles[0].transfer_retries, 0);
        // The stalled cycle's transfer time reflects the quiet windows.
        let t = report.cycles[1].timing.unwrap();
        assert!(t.transfer_s >= 0.02, "transfer {:.3}", t.transfer_s);
    }

    #[test]
    fn exhausted_transfer_retries_degrade_to_persistence() {
        let sup = CycleSupervisor {
            stall_timeout: Duration::from_millis(5),
            max_restarts: 2,
            backoff_base: Duration::from_millis(1),
            faults: FaultPlan::none().with(1, Fault::TransferStall { timeouts: 8 }),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        match &report.cycles[1].disposition {
            CycleDisposition::Degraded { mode, cause } => {
                assert_eq!(*mode, DegradedMode::Persistence);
                assert_eq!(*cause, StageError::TransferTimeout { attempts: 3 });
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        // The abandoned volume must not poison later cycles.
        assert!(matches!(
            report.cycles[2].disposition,
            CycleDisposition::Completed
        ));
    }

    #[test]
    fn forecast_panic_is_failed_but_isolated() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::StagePanic(Stage::Forecast)),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        assert!(matches!(
            report.cycles[1].disposition,
            CycleDisposition::Failed {
                cause: StageError::Panicked {
                    stage: Stage::Forecast,
                    ..
                }
            }
        ));
        assert!(matches!(
            report.cycles[2].disposition,
            CycleDisposition::Completed
        ));
    }

    #[test]
    fn assimilation_deadline_skips_late_cycle() {
        let sup = CycleSupervisor {
            assimilation_deadline: Some(Duration::from_millis(5)),
            ..CycleSupervisor::default()
        };
        let report = sup.run(
            3,
            |_| Ok(Bytes::from_static(b"v")),
            |c, _| {
                if c == 1 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok(c)
            },
            |_, _: ForecastInput<'_, usize>| Ok(()),
        );
        assert!(matches!(
            &report.cycles[1].disposition,
            CycleDisposition::Skipped {
                cause: SkipCause::Deadline(StageError::DeadlineExceeded {
                    stage: Stage::Assimilation,
                    ..
                })
            }
        ));
        assert!(report.cycles[1].timing.is_none());
        assert!(matches!(
            report.cycles[2].disposition,
            CycleDisposition::Completed
        ));
    }

    #[test]
    fn slow_assimilation_supersedes_stale_scans() {
        // Scans arrive every ~2 ms but each assimilation takes ~40 ms: by
        // the time a cycle finishes, several scans are queued; the
        // supervisor must jump to the newest and skip the rest.
        let sup = CycleSupervisor {
            supersede_stale: true,
            ..CycleSupervisor::default()
        };
        let assimilated = std::sync::Mutex::new(Vec::new());
        let report = sup.run(
            8,
            |c| {
                std::thread::sleep(Duration::from_millis(2));
                Ok(Bytes::from(vec![c as u8]))
            },
            |c, _| {
                assimilated.lock().unwrap().push(c);
                std::thread::sleep(Duration::from_millis(40));
                Ok(c)
            },
            |_, _: ForecastInput<'_, usize>| Ok(()),
        );
        assert_eq!(report.cycles.len(), 8);
        let skipped = report.skipped();
        assert!(skipped > 0, "expected superseded cycles, got none");
        for c in &report.cycles {
            if let CycleDisposition::Skipped {
                cause: SkipCause::Superseded { by },
            } = &c.disposition
            {
                assert!(*by > c.cycle, "superseded by an older cycle");
            }
        }
        // The last cycle is never superseded.
        assert!(report.cycles[7].disposition.delivered_forecast());
    }

    #[test]
    fn report_table_mentions_every_cycle_and_availability() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::CorruptVolume),
            ..CycleSupervisor::default()
        };
        let (report, _) = counting_stages(3, &sup);
        let table = report.table();
        assert!(table.contains("availability"));
        assert!(table.contains("degraded"));
        // Per-stage wall-clock columns: ingest, analysis, forecast,
        // end-to-end.
        for col in ["obs(ms)", "letkf(ms)", "fcst(ms)", "tts(ms)"] {
            assert!(table.contains(col), "missing column {col}:\n{table}");
        }
        for c in 0..3 {
            assert!(
                table.contains(&format!("\n{c:5}  ")),
                "missing cycle {c}:\n{table}"
            );
        }
    }

    #[test]
    fn egress_notes_reach_report_and_table() {
        let sup = CycleSupervisor {
            faults: FaultPlan::none().with(1, Fault::DropScan),
            ..CycleSupervisor::default()
        };
        let report = sup.run_with_egress(
            3,
            |c| Ok(Bytes::from(vec![c as u8; 16])),
            |c, _| Ok(c),
            |_, _: ForecastInput<'_, usize>| Ok(()),
            |c, d| Some(format!("published cycle {c} ({})", d.label())),
        );
        assert_eq!(report.cycles.len(), 3);
        assert_eq!(
            report.cycles[0].egress.as_deref(),
            Some("published cycle 0 (completed)")
        );
        // The degraded cycle still publishes (last-good product).
        assert_eq!(
            report.cycles[1].egress.as_deref(),
            Some("published cycle 1 (degraded)")
        );
        let table = report.table();
        assert!(table.contains("egress"), "missing column:\n{table}");
        assert!(
            table.contains("published cycle 2"),
            "missing note:\n{table}"
        );
    }

    #[test]
    fn egress_panic_is_recorded_not_escalated() {
        let sup = CycleSupervisor::default();
        let report = sup.run_with_egress(
            3,
            |c| Ok(Bytes::from(vec![c as u8; 16])),
            |c, _| Ok(c),
            |_, _: ForecastInput<'_, usize>| Ok(()),
            |c, _| {
                if c == 1 {
                    panic!("injected egress panic");
                }
                None
            },
        );
        // The publisher dying cannot change the forecast's outcome.
        assert_eq!(report.completed(), 3);
        assert!(report.cycles[1]
            .egress
            .as_deref()
            .is_some_and(|e| e.contains("egress panicked")));
        assert_eq!(report.cycles[2].egress, None);
    }

    #[test]
    fn table_has_no_egress_column_without_notes() {
        let sup = CycleSupervisor::default();
        let (report, _) = counting_stages(2, &sup);
        assert!(!report.table().contains("egress"));
    }

    fn sleepy(ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    #[test]
    fn stages_overlap_across_cycles() {
        // Every stage sleeps 20 ms. Run serially, the cycles would take at
        // least the sum of their measured stage times; pipelined, cycle
        // n+1 scans while cycle n assimilates, so the wall time must come
        // in well under that sum however slow the host's sleeps run.
        let sup = CycleSupervisor::default();
        let t0 = Instant::now(); // bda-check: allow(wallclock) — wall-time telemetry column
        let report = sup.run(
            8,
            |_| {
                sleepy(20);
                Ok(Bytes::from_static(b"v"))
            },
            |c, _| {
                sleepy(20);
                Ok(c)
            },
            |_, _: ForecastInput<'_, usize>| {
                sleepy(20);
                Ok(())
            },
        );
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(report.completed(), 8);
        let serial: f64 = report
            .cycles
            .iter()
            .map(|c| c.timing.unwrap())
            .map(|t| t.scan_s + t.assimilation_s + t.forecast_s)
            .sum();
        assert!(
            wall < 0.8 * serial,
            "no overlap: wall {wall:.3} s vs serial stage sum {serial:.3} s"
        );
    }

    #[test]
    fn volumes_beyond_pipe_capacity_arrive_byte_identical() {
        // Larger than everything the pipe can hold in flight, so the radar
        // thread must block on back-pressure mid-volume.
        let len = CHUNK_BYTES * CAPACITY + 12_345;
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let sup = CycleSupervisor::default();
        let report = sup.run(
            2,
            move |_| Ok(Bytes::from(payload.clone())),
            move |_, v: Bytes| {
                assert!(v[..] == expect[..], "volume changed in transit");
                Ok(v.len())
            },
            |_, input: ForecastInput<'_, usize>| match input {
                ForecastInput::Analysis(&n) if n == len => Ok(()),
                _ => Err("wrong product".to_string()),
            },
        );
        assert_eq!(report.completed(), 2, "{}", report.table());
    }

    #[test]
    fn time_to_solution_covers_assimilation_and_forecast() {
        let sup = CycleSupervisor::default();
        let report = sup.run(
            3,
            |_| Ok(Bytes::from_static(b"volume")),
            |c, _| {
                sleepy(20);
                Ok(c)
            },
            |_, _: ForecastInput<'_, usize>| {
                sleepy(30);
                Ok(())
            },
        );
        assert_eq!(report.completed(), 3);
        for t in report.cycles.iter().map(|c| c.timing.unwrap()) {
            assert!(t.assimilation_s >= 0.018, "assim {:.3}", t.assimilation_s);
            assert!(t.forecast_s >= 0.028, "forecast {:.3}", t.forecast_s);
            assert!(
                t.time_to_solution_s >= t.assimilation_s + t.forecast_s - 1e-6,
                "tts {:.3} < sum of stages",
                t.time_to_solution_s
            );
        }
    }
}
