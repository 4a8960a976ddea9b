//! Golden-output guard for the `uncharted` CLI.
//!
//! A seeded Y1 campaign (5 capture windows, 42,020 packets) is written by
//! `uncharted simulate` and analysed by `uncharted analyze`; the printed
//! report must equal the committed golden file byte for byte, sequentially
//! and with two workers. Refactors of the ingest or analysis code must keep
//! this output unchanged. The full-scale (`--scale 960`) twin of this check
//! runs in release in CI against `tests/golden/analyze_y1_seed7_scale960.txt`.
//!
//! The report alone does not pin reassembly: the same campaign's
//! `--metrics` counters (segments reassembled, overlaps trimmed, APDUs per
//! dialect, ...) are compared to a second golden file, so a change to how
//! merged capture windows reassemble shows up even when the report does
//! not move. CI runs the scale-960 twin of this check as well.

use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/analyze_y1_seed7_scale60.txt"
);

const COUNTERS_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/analyze_y1_seed7_scale60_counters.txt"
);

fn run(args: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_uncharted"))
        .args(args)
        .output()
        .expect("spawn uncharted");
    assert!(
        out.status.success(),
        "uncharted {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn window_pcaps(dir: &Path) -> Vec<PathBuf> {
    let mut pcaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read capture dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pcap"))
        .collect();
    pcaps.sort();
    pcaps
}

/// Simulate the seed-7, scale-60 Y1 campaign into a fresh temp directory
/// named after `tag`, returning the directory and its five window pcaps.
fn simulate_y1(tag: &str) -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("uncharted-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    run(&[
        "simulate", "--year", "y1", "--seed", "7", "--scale", "60", "--out", dir_arg,
    ]);
    let pcaps = window_pcaps(&dir);
    assert_eq!(pcaps.len(), 5, "Y1 is five capture windows");
    (dir, pcaps)
}

/// The counter samples of a Prometheus text dump: every sample line under
/// a `# TYPE <name> counter` header, in rendered order. CI extracts the
/// same lines with `awk '/^# TYPE/ {c = ($4 == "counter"); next} c'`.
fn counter_lines(prom: &str) -> String {
    let mut out = String::new();
    let mut in_counter = false;
    for line in prom.lines() {
        if let Some(header) = line.strip_prefix("# TYPE ") {
            in_counter = header.split_whitespace().nth(1) == Some("counter");
        } else if in_counter {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn analyze_y1_seed7_scale60_matches_golden() {
    let (dir, pcaps) = simulate_y1("golden");

    let golden = std::fs::read(GOLDEN).expect("read golden");
    for threads in ["1", "2"] {
        let mut args = vec!["analyze", "--threads", threads];
        args.extend(pcaps.iter().map(|p| p.to_str().expect("utf-8 path")));
        let stdout = run(&args);
        assert!(
            stdout == golden,
            "analyze --threads {threads} differs from {GOLDEN}:\n{}",
            String::from_utf8_lossy(&stdout)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_y1_seed7_scale60_counters_match_golden() {
    let (dir, pcaps) = simulate_y1("golden-counters");
    let golden = std::fs::read_to_string(COUNTERS_GOLDEN).expect("read counters golden");
    for threads in ["1", "2"] {
        let metrics = dir.join(format!("metrics_t{threads}.prom"));
        let mut args = vec![
            "analyze",
            "--threads",
            threads,
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
            "--metrics-format",
            "prom",
        ];
        args.extend(pcaps.iter().map(|p| p.to_str().expect("utf-8 path")));
        run(&args);
        let prom = std::fs::read_to_string(&metrics).expect("read metrics dump");
        let counters = counter_lines(&prom);
        assert!(
            counters == golden,
            "analyze --threads {threads} counters differ from {COUNTERS_GOLDEN}:\n{counters}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
