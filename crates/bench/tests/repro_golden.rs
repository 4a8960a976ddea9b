//! Golden-output guard for `repro`: every experiment's JSON record at the
//! default scale (60 s per paper hour) and seed 42 must equal the committed
//! golden file byte for byte. The output is deterministic across runs and
//! between debug and release builds. The paper-proportional twin
//! (`--scale 450`, `tests/golden/repro_all_seed42_scale450.json`) is too slow
//! for a debug test run and is checked in release by CI.

use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/repro_all_seed42_scale60.json"
);

#[test]
fn repro_all_seed42_matches_golden() {
    let path = std::env::temp_dir().join(format!("uncharted-repro-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--seed", "42", "--json"])
        .arg(&path)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read(&path).expect("read repro json");
    let _ = std::fs::remove_file(&path);
    let golden = std::fs::read(GOLDEN).expect("read golden");
    assert!(
        json == golden,
        "repro all --seed 42 --json differs from {GOLDEN}:\n{}",
        String::from_utf8_lossy(&json)
    );
}
