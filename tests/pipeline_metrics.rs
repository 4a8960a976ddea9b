//! Metrics determinism and `--threads` semantics over the full pipeline.
//!
//! The observability contract is that counters, histograms, and per-stage
//! item counts describe the *input*, not the schedule: a seeded scenario
//! analysed sequentially and with four workers must produce bit-identical
//! counter fingerprints. Wall-clock timings are excluded from the
//! fingerprint — they are the only metrics allowed to vary between runs.

use uncharted::{ExecPolicy, MetricsSnapshot, Pipeline, Scenario, Simulation, Year};

/// Run every pipeline stage under the given policy and return the snapshot.
fn run_all_stages(policy: ExecPolicy) -> MetricsSnapshot {
    let set = Simulation::new(Scenario::small(Year::Y1, 77, 40.0)).run();
    let pipeline = Pipeline::builder().exec(policy).build(&set);
    let _ = pipeline.flow_stats();
    let sessions = pipeline.sessions();
    assert!(!sessions.is_empty(), "seeded scenario produced no sessions");
    let _ = pipeline.chain_census();
    let _ = pipeline.type_census();
    let _ = pipeline.physical_series();
    pipeline.metrics().snapshot()
}

#[test]
fn sequential_and_threaded_metrics_are_bit_identical() {
    let seq = run_all_stages(ExecPolicy::Sequential);
    let par = run_all_stages(ExecPolicy::Threads(4));
    assert_eq!(
        seq.counter_fingerprint(),
        par.counter_fingerprint(),
        "counter totals must not depend on the execution schedule"
    );
}

#[test]
fn required_counters_are_nonzero_after_a_run() {
    let snap = run_all_stages(ExecPolicy::Sequential);
    for name in [
        "iec104_apdus_parsed",
        "nettap_segments_reassembled",
        "nettap_overlaps_trimmed",
        "nettap_pcap_records_streamed",
        "analysis_sessions_built",
        "analysis_chains_built",
        "analysis_series_extracted",
    ] {
        assert!(snap.counter_total(name) > 0, "{name} stayed at zero");
    }
    // Per-dialect labelling: the standard dialect always parses something.
    assert!(
        snap.counter_value("iec104_apdus_parsed", &[("dialect", "std")])
            .unwrap_or(0)
            > 0
    );
    // Every instrumented stage ran exactly once and processed items.
    for stage in [
        "flows",
        "protocol",
        "sessions",
        "markov",
        "type_census",
        "series",
    ] {
        let s = snap
            .stage(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing"));
        assert_eq!(s.runs, 1, "stage {stage} should run once");
        assert!(s.items > 0, "stage {stage} processed no items");
    }
}

#[test]
fn rendered_outputs_carry_pipeline_metrics() {
    let snap = run_all_stages(ExecPolicy::Sequential);
    let json = snap.to_json();
    assert!(json.contains("\"iec104_apdus_parsed\""));
    assert!(json.contains("\"nettap_segments_reassembled\""));
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE iec104_apdus_parsed counter"));
    assert!(prom.contains("iec104_apdus_parsed{dialect=\"std\"}"));
    assert!(prom.contains("# TYPE nettap_segment_payload_octets histogram"));
}

/// Sweep `--threads 0..=8` over the seeded scenario: every thread count
/// must produce the sequential counter fingerprint, and every instrumented
/// stage must report exactly one shard span with nonzero time — each stage
/// times its own work, whichever thread it ran on.
#[test]
fn thread_sweep_is_fingerprint_identical_with_per_shard_spans() {
    let reference = run_all_stages(ExecPolicy::Sequential).counter_fingerprint();
    for threads in 0..=8usize {
        let policy = ExecPolicy::from_threads_flag(threads);
        assert!(
            policy.workers() >= 1,
            "--threads {threads} resolved to zero workers"
        );
        let snap = run_all_stages(policy);
        assert_eq!(
            snap.counter_fingerprint(),
            reference,
            "--threads {threads} shifted the counter fingerprint"
        );
        for stage in [
            "flows",
            "protocol",
            "sessions",
            "markov",
            "type_census",
            "series",
        ] {
            let s = snap
                .stage(stage)
                .unwrap_or_else(|| panic!("stage {stage} missing"));
            assert_eq!(
                s.shards.len(),
                1,
                "--threads {threads}: stage {stage} should report one shard span"
            );
            assert!(
                s.shards[0].1 > 0,
                "--threads {threads}: stage {stage} recorded no shard time"
            );
        }
    }
}

/// `--threads 0` means one worker per core (`Auto`); an explicit
/// `Threads(0)` clamps to one worker instead of spawning a zero-worker
/// pool. Both floors are part of the CLI contract.
#[test]
fn thread_flag_zero_clamps_to_at_least_one_worker() {
    assert_eq!(ExecPolicy::from_threads_flag(0), ExecPolicy::Auto);
    assert!(ExecPolicy::Auto.workers() >= 1);
    assert_eq!(ExecPolicy::Threads(0).workers(), 1);
    assert!(ExecPolicy::Threads(0).is_sequential());
}

#[test]
fn threads_zero_means_one_worker_per_core() {
    // `--threads 0` maps to Auto, which always resolves to at least one
    // worker (regression: it used to spawn a zero-worker pool and hang).
    let builder = Pipeline::builder().threads(0);
    let set = Simulation::new(Scenario::small(Year::Y1, 77, 20.0)).run();
    let pipeline = builder.build(&set);
    assert_eq!(pipeline.exec.policy, ExecPolicy::Auto);
    assert!(pipeline.exec.workers() >= 1);
    assert!(!pipeline.sessions().is_empty());
}

#[test]
fn threads_one_means_sequential() {
    let builder = Pipeline::builder().threads(1);
    let set = Simulation::new(Scenario::small(Year::Y1, 77, 20.0)).run();
    let pipeline = builder.build(&set);
    assert_eq!(pipeline.exec.policy, ExecPolicy::Sequential);
    assert_eq!(pipeline.exec.workers(), 1);
    assert!(!pipeline.sessions().is_empty());
}
