//! What one workload run hands back: operation counts, failed checks and
//! raw metric samples. `run.py` reduces the samples (median, p90, mean) and
//! prints the table and the final result line.

use bda_core::osse::Osse;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How `run.py` reduces a metric's samples to one value.
#[derive(Clone, Copy, Debug)]
pub enum Agg {
    Median,
    P90,
    Mean,
}

impl Agg {
    fn label(self) -> &'static str {
        match self {
            Agg::Median => "median",
            Agg::P90 => "p90",
            Agg::Mean => "mean",
        }
    }
}

#[derive(Default)]
pub struct Report {
    /// Operations attempted (cycles, plus the run-level output checks).
    pub attempted: u64,
    /// Operations that failed or checks that did not hold.
    pub failed: u64,
    /// One line per failure, printed by `run.py`.
    pub problems: Vec<String>,
    /// Output checks that did not hold: the run's outputs are wrong.
    pub violations: u64,
    metrics: BTreeMap<String, (&'static str, Agg, Vec<f64>)>,
}

impl Report {
    /// Record one sample of `name`.
    pub fn sample(&mut self, name: &str, unit: &'static str, agg: Agg, v: f64) {
        self.metrics
            .entry(name.to_string())
            .or_insert_with(|| (unit, agg, Vec::new()))
            .2
            .push(v);
    }

    /// Record every sample of `name` at once (an empty list records
    /// nothing: `run.py` reports a metric with no samples as absent).
    pub fn samples(&mut self, name: &str, unit: &'static str, agg: Agg, vs: &[f64]) {
        for &v in vs {
            self.sample(name, unit, agg, v);
        }
    }

    /// One attempted operation; `Err` counts it as failed.
    pub fn op(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.problems.push(e);
        }
    }

    /// An output check: counted like an operation, and a failed one makes
    /// the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.violations += u64::from(!ok);
        self.op(if ok { Ok(()) } else { Err(what()) });
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"attempted\":{},\"failed\":{},\"violations\":{},\"problems\":[",
            self.attempted, self.failed, self.violations
        );
        for (i, p) in self.problems.iter().enumerate() {
            let _ = write!(s, "{}{:?}", if i > 0 { "," } else { "" }, p);
        }
        s.push_str("],\"metrics\":{");
        for (i, (name, (unit, agg, vs))) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{name}\":{{\"unit\":\"{unit}\",\"agg\":\"{}\",\"samples\":[",
                if i > 0 { "," } else { "" },
                agg.label()
            );
            for (j, v) in vs.iter().enumerate() {
                let v = if v.is_finite() { *v } else { -1.0 };
                let _ = write!(s, "{}{v:e}", if j > 0 { "," } else { "" });
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }
}

/// FNV-1a over the OSSE's full cycling state (`snapshot_state`): truth,
/// every member, clocks and RNG streams.
pub fn state_digest(osse: &Osse<f32>) -> u64 {
    let snap = osse.snapshot_state();
    let mut bytes = Vec::new();
    for m in &snap.members {
        for v in m {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for t in snap.member_times.iter().chain([&snap.time]) {
        bytes.extend_from_slice(&t.to_bits().to_le_bytes());
    }
    for r in &snap.rng_states {
        bytes.extend_from_slice(&r.to_le_bytes());
    }
    bda_num::fnv1a(&bytes)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Root-mean-square difference over the cells where `mask` is set.
pub fn masked_rmse(a: &[f64], b: &[f64], mask: &[bool]) -> f64 {
    let (mut ss, mut n) = (0.0, 0usize);
    for ((x, y), &m) in a.iter().zip(b).zip(mask) {
        if m {
            ss += (x - y).powi(2);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (ss / n as f64).sqrt()
    }
}
