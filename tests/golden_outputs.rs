//! Golden-output guard for the `uncharted` CLI.
//!
//! A seeded Y1 campaign (5 capture windows, 42,020 packets) is written by
//! `uncharted simulate` and analysed by `uncharted analyze`; the printed
//! report must equal the committed golden file byte for byte, sequentially
//! and with two workers. Refactors of the ingest or analysis code must keep
//! this output unchanged. The full-scale (`--scale 960`) twin of this check
//! runs in release in CI against `tests/golden/analyze_y1_seed7_scale960.txt`.

use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/analyze_y1_seed7_scale60.txt"
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

#[test]
fn analyze_y1_seed7_scale60_matches_golden() {
    let dir = std::env::temp_dir().join(format!("uncharted-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp path");
    run(&[
        "simulate", "--year", "y1", "--seed", "7", "--scale", "60", "--out", dir_arg,
    ]);
    let pcaps = window_pcaps(&dir);
    assert_eq!(pcaps.len(), 5, "Y1 is five capture windows");

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
