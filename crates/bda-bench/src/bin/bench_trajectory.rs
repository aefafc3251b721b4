//! Collect every `BENCH_*.json` into one markdown perf-trajectory report.
//!
//! Each PR's bench harness leaves a numbered `BENCH_<n>.json` at the repo
//! root; together they form the perf trajectory of the project. This tool:
//!
//! 1. validates every BENCH file against the shared shape check in
//!    `bda_bench::json` (CI fails on any malformed file), then
//! 2. renders one markdown table per bench kind — rows are metrics,
//!    columns are BENCH files in trajectory order, and the newest column
//!    is bold so a reviewer's eye lands on the current numbers.
//!
//! Usage: `bench_trajectory [--root DIR] [--out PATH]`
//! (defaults: repo root, `<root>/trajectory.md`).

use bda_bench::cli;
use bda_bench::json::{self, Value};
use std::collections::BTreeMap;

struct BenchFile {
    /// File stem, e.g. `BENCH_9` (column header).
    stem: String,
    /// Trajectory order: first integer in the file name.
    index: u64,
    kind: String,
    metrics: BTreeMap<String, f64>,
}

fn trajectory_index(stem: &str) -> u64 {
    let digits: String = stem
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap_or(0)
}

fn format_value(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    cli::only(&argv, &["--root", "--out"], &[]);
    let root: String = cli::flag(&argv, "--root")
        .unwrap_or_else(|| format!("{}/../..", env!("CARGO_MANIFEST_DIR")));
    let out_path = cli::flag(&argv, "--out").unwrap_or_else(|| format!("{root}/trajectory.md"));

    let mut files: Vec<BenchFile> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("bench_trajectory: cannot read {root}: {e}"))
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    entries.sort();

    for path in &entries {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("BENCH_?")
            .to_string();
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                errors.push(format!("{stem}: read error: {e}"));
                continue;
            }
        };
        let doc = match json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                errors.push(format!("{stem}: parse error: {e}"));
                continue;
            }
        };
        if let Err(e) = json::validate_bench(&doc) {
            errors.push(format!("{stem}: shape error: {e}"));
            continue;
        }
        files.push(BenchFile {
            index: trajectory_index(&stem),
            kind: doc
                .get("bench")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            metrics: json::flatten_metrics(&doc),
            stem,
        });
    }

    if !errors.is_empty() {
        for e in &errors {
            eprintln!("bench_trajectory: INVALID — {e}");
        }
        std::process::exit(1);
    }
    if files.is_empty() {
        eprintln!("bench_trajectory: no BENCH_*.json files under {root}");
        std::process::exit(1);
    }
    files.sort_by(|a, b| a.index.cmp(&b.index).then_with(|| a.stem.cmp(&b.stem)));

    // Group by bench kind, preserving trajectory order within each group.
    let mut kinds: Vec<String> = Vec::new();
    for f in &files {
        if !kinds.contains(&f.kind) {
            kinds.push(f.kind.clone());
        }
    }

    let mut md = String::from("# Perf trajectory\n\nOne table per bench kind; columns are `BENCH_*.json` files in\ntrajectory order, the newest in **bold**. Regenerate with\n`cargo run -p bda-bench --bin bench_trajectory`.\n");
    for kind in &kinds {
        let group: Vec<&BenchFile> = files.iter().filter(|f| &f.kind == kind).collect();
        let newest = group.iter().map(|f| f.index).max().unwrap_or(0);
        let mut metric_names: Vec<&String> = Vec::new();
        for f in &group {
            for name in f.metrics.keys() {
                if !metric_names.contains(&name) {
                    metric_names.push(name);
                }
            }
        }
        md.push_str(&format!("\n## {kind}\n\n"));
        md.push_str("| metric |");
        for f in &group {
            if f.index == newest {
                md.push_str(&format!(" **{}** |", f.stem));
            } else {
                md.push_str(&format!(" {} |", f.stem));
            }
        }
        md.push_str("\n|---|");
        for _ in &group {
            md.push_str("---|");
        }
        md.push('\n');
        for name in metric_names {
            md.push_str(&format!("| `{name}` |"));
            for f in &group {
                match f.metrics.get(name) {
                    Some(&x) if f.index == newest => {
                        md.push_str(&format!(" **{}** |", format_value(x)))
                    }
                    Some(&x) => md.push_str(&format!(" {} |", format_value(x))),
                    None => md.push_str(" — |"),
                }
            }
            md.push('\n');
        }
    }

    std::fs::write(&out_path, &md)
        .unwrap_or_else(|e| panic!("bench_trajectory: cannot write {out_path}: {e}"));
    eprintln!(
        "bench_trajectory: validated {} file(s), wrote {out_path}",
        files.len()
    );
}
