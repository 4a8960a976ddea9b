//! `bench --json` — the tracked benchmark runner behind `BENCH_PR10.json`.
//!
//! Usage:
//!
//! ```text
//! bench [--json PATH] [--smoke] [--threads N] [--baseline PATH]
//!       [--gate PCT] [--gate-layer LAYER=PCT]...
//! ```
//!
//! * `--json PATH` — where to write the report (default `BENCH_PR10.json`).
//! * `--smoke` — seconds-long CI configuration instead of the full run.
//! * `--threads N` — restrict the thread sweep to the single policy
//!   `Threads(N)` (plus the sequential baseline), e.g. `--threads 2`.
//! * `--baseline PATH` — embed an earlier report as the baseline and compute
//!   speedups, allocation drops, and the counter-fingerprint equality check.
//! * `--gate PCT` — exit nonzero if any tracked throughput dropped more than
//!   `PCT` percent versus the baseline, or if any counter fingerprint
//!   disagrees with it. Requires `--baseline` (the gate fails closed
//!   without one).
//! * `--gate-layer LAYER=PCT` — override the gate tolerance for one layer's
//!   keys (`pipeline`, `ingest`, `parse`, `flows`, `kmeans`, `markov`).
//!   Repeatable; unknown layers fail the gate rather than being ignored.
//!
//! Build with `--features bench-alloc` to install the counting global
//! allocator so the report includes allocations per APDU.

use std::process::ExitCode;
use uncharted_bench::runner::{self, RunnerConfig};

#[cfg(feature = "bench-alloc")]
#[global_allocator]
static ALLOC: uncharted_bench::alloc_count::CountingAlloc =
    uncharted_bench::alloc_count::CountingAlloc;

fn main() -> ExitCode {
    let mut json_path = String::from("BENCH_PR10.json");
    let mut baseline_path: Option<String> = None;
    let mut gate_pct: Option<f64> = None;
    let mut gate_layers: Vec<(String, f64)> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(p) => json_path = p,
                None => return usage("--json requires a path"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(p),
                None => return usage("--baseline requires a path"),
            },
            "--gate" => match args.next().as_deref().map(str::parse::<f64>) {
                Some(Ok(pct)) if pct >= 0.0 => gate_pct = Some(pct),
                _ => return usage("--gate requires a non-negative percentage"),
            },
            "--gate-layer" => match args.next().as_deref().map(parse_layer_pct) {
                Some(Some(pair)) => gate_layers.push(pair),
                _ => return usage("--gate-layer requires LAYER=PCT with a non-negative PCT"),
            },
            "--threads" => match args.next().as_deref().map(str::parse::<usize>) {
                Some(Ok(n)) if n >= 1 => threads = Some(n),
                _ => return usage("--threads requires a positive integer"),
            },
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench [--json PATH] [--smoke] [--threads N] [--baseline PATH] \
                     [--gate PCT] [--gate-layer LAYER=PCT]..."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument: {other}")),
        }
    }

    let mut cfg = if smoke {
        RunnerConfig::smoke()
    } else {
        RunnerConfig::full()
    };
    if let Some(n) = threads {
        cfg.sweep = vec![n];
    }
    eprintln!(
        "bench: running {} configuration, sweep {:?} (alloc counting: {})",
        if smoke { "smoke" } else { "full" },
        cfg.sweep,
        cfg!(feature = "bench-alloc"),
    );

    let baseline = match baseline_path {
        Some(p) => match std::fs::read_to_string(&p) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(v) => Some(v),
                Err(e) => return usage(&format!("bad baseline JSON in {p}: {e}")),
            },
            Err(e) => return usage(&format!("cannot read baseline {p}: {e}")),
        },
        None => None,
    };

    let current = runner::run(cfg);
    let report = runner::report(current, baseline);
    let pretty = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&json_path, pretty + "\n") {
        eprintln!("bench: cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("bench: wrote {json_path}");
    if let Some(cmp) = report.get("comparison") {
        eprintln!(
            "bench: comparison: {}",
            serde_json::to_string_pretty(cmp).expect("comparison serializes")
        );
    }
    if gate_pct.is_none() && !gate_layers.is_empty() {
        return usage("--gate-layer requires --gate for the default tolerance");
    }
    if let Some(pct) = gate_pct {
        let violations = runner::gate_layers(&report, pct, &gate_layers);
        if !violations.is_empty() {
            eprintln!("bench: regression gate FAILED ({pct}% default tolerance):");
            for v in &violations {
                eprintln!("bench:   - {v}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("bench: regression gate passed ({pct}% default tolerance)");
    }
    ExitCode::SUCCESS
}

fn parse_layer_pct(s: &str) -> Option<(String, f64)> {
    let (layer, pct) = s.split_once('=')?;
    let pct: f64 = pct.parse().ok()?;
    if layer.is_empty() || pct < 0.0 {
        return None;
    }
    Some((layer.to_string(), pct))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench: {msg}");
    eprintln!(
        "usage: bench [--json PATH] [--smoke] [--threads N] [--baseline PATH] \
         [--gate PCT] [--gate-layer LAYER=PCT]..."
    );
    ExitCode::FAILURE
}
