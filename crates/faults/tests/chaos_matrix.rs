//! The crash-recovery chaos matrix: every labeled point in the commit
//! path gets crashed (deterministically and property-driven), random
//! seeded fault plans run at scale, and identical `(seed, plan)` pairs
//! are proven to replay byte-identically.
//!
//! Every run in this file must come back [`ChaosReport::clean`]: both
//! recovery invariants held after every crash (no acked commit lost or
//! duplicated; no partial SST visible) and `pstm-check` certified the
//! stitched pre+post-crash trace serializable.
//!
//! The matrix runs with the flight recorder **on**: every epoch is also
//! written to a durable recorder file, and at every crash the harness
//! reconstructs the crash picture from the file alone
//! (`pstm_obs::postmortem`) and asserts the reconstructed in-flight and
//! in-doubt sets match the fault ledger's classification exactly —
//! mismatches surface as violations and fail `assert_clean`.

use proptest::prelude::*;
use pstm_faults::plan::SITE_KINDS;
use pstm_faults::{run_chaos, ChaosConfig, FaultPlan};
use pstm_obs::frame::checksum;
use std::path::PathBuf;

/// Per-test scratch directory for flight-recorder files; recreated by
/// each run (`Recorder::create` truncates), removed when the test ends.
fn recorder_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pstm-chaos-matrix-{}-{tag}", std::process::id()))
}

/// Shared assertion: the run held its invariants, its stitched trace
/// certified, and every session is accounted for exactly once.
fn assert_clean(report: &pstm_faults::ChaosReport, config: &ChaosConfig, context: &str) {
    assert!(
        report.violations.is_empty(),
        "{context}: invariant violations {:?}\n  fingerprint: {}",
        report.violations,
        report.fingerprint
    );
    assert!(report.certified, "{context}: stitched trace not certified");
    assert_eq!(
        report.committed + report.committed_in_doubt + report.aborted + report.lost,
        config.sessions as u64,
        "{context}: sessions leaked or double-counted ({})",
        report.fingerprint
    );
    if config.recorder_dir.is_some() {
        // Recorder mode: one post-mortem-vs-ledger cross-check per crash
        // plus the final quiescent check must all have run (mismatches
        // land in `violations`, already asserted empty above).
        assert_eq!(
            report.recorder_checks,
            report.crashes + 1,
            "{context}: post-mortem cross-checks missing"
        );
    }
}

/// Crash at every labeled point, deterministically: all six site kinds ×
/// arrival ordinals 1..=8 (48 distinct `(seed, plan)` runs). Arrivals
/// past what the workload produces simply never fire — the run must
/// still be clean.
#[test]
fn crash_at_every_labeled_point_recovers_clean() {
    let mut crashes_seen = 0u64;
    for (k, kind) in SITE_KINDS.iter().enumerate() {
        for n in 1..=8u64 {
            let seed = 1000 + (k as u64) * 100 + n;
            let plan = FaultPlan::new(seed).crash_at_kind(kind, n);
            let config = ChaosConfig::new(seed, plan).with_recorder(recorder_dir("crash-points"));
            let report = run_chaos(&config).unwrap();
            assert!(report.crashes <= 1, "one-shot crash rule fired twice");
            crashes_seen += report.crashes;
            assert_clean(&report, &config, &format!("crash@{kind}#{n}"));
        }
    }
    // The matrix must actually exercise crashes at scale, not vacuously
    // pass because no arrival ever matched.
    assert!(crashes_seen >= 30, "only {crashes_seen}/48 plans produced a crash");
    std::fs::remove_dir_all(recorder_dir("crash-points")).ok();
}

/// Torn-page sweep: tear the WAL frame at every prefix length on several
/// appends. Recovery must drop the torn record (and only it).
#[test]
fn torn_wal_writes_at_every_prefix_length_recover_clean() {
    for keep in 1..=16u32 {
        let seed = 2000 + u64::from(keep);
        let plan = FaultPlan::new(seed).torn_wal_append(1 + u64::from(keep % 5), keep);
        let config = ChaosConfig::new(seed, plan).with_recorder(recorder_dir("torn"));
        let report = run_chaos(&config).unwrap();
        assert_eq!(report.crashes, 1, "torn write must crash the process");
        assert_eq!(report.faults[0].action, "torn");
        assert_clean(&report, &config, &format!("torn keep={keep}"));
    }
    std::fs::remove_dir_all(recorder_dir("torn")).ok();
}

/// The random chaos matrix: 96 seeds, each deriving a random 1–3 rule
/// plan (crashes, torn writes, probabilistic transient I/O) and an
/// independent workload shape.
#[test]
fn random_chaos_matrix_holds_invariants() {
    let mut total_crashes = 0u64;
    let mut total_faults = 0usize;
    for seed in 0..96u64 {
        let config =
            ChaosConfig::new(seed, FaultPlan::random(seed)).with_recorder(recorder_dir("random"));
        let report = run_chaos(&config).unwrap();
        total_crashes += report.crashes;
        total_faults += report.faults.len();
        assert_clean(&report, &config, &format!("random seed={seed}"));
    }
    assert!(total_faults > 96, "matrix too quiet: {total_faults} faults over 96 runs");
    assert!(total_crashes > 20, "matrix too gentle: {total_crashes} crashes over 96 runs");
    std::fs::remove_dir_all(recorder_dir("random")).ok();
}

/// Fault-free group-commit run: single-shard sessions fuse into
/// per-shard batches and everything still commits exactly once.
#[test]
fn group_commit_fault_free_run_commits_everything() {
    let config = ChaosConfig::new(1, FaultPlan::new(1)).with_group_commit();
    let report = run_chaos(&config).unwrap();
    assert_eq!(report.committed, 24);
    assert_eq!(report.crashes, 0);
    assert_eq!(report.aborted, 0);
    assert!(report.clean(), "violations: {:?}", report.violations);
}

/// The crash matrix again, but with the group-commit protocol: all six
/// site kinds × arrival ordinals, each crashing a run whose single-shard
/// sessions commit through fused batches. A crash mid-batch — including
/// inside the batch's WAL appends — must never surface a member subset
/// or another transaction's frames after recovery: either the whole
/// fused SST survives or none of it does.
#[test]
fn group_commit_crash_matrix_recovers_clean() {
    let mut crashes_seen = 0u64;
    let mut whole_batches_in_doubt = 0u64;
    for (k, kind) in SITE_KINDS.iter().enumerate() {
        for n in 1..=8u64 {
            let seed = 5000 + (k as u64) * 100 + n;
            let plan = FaultPlan::new(seed).crash_at_kind(kind, n);
            let config = ChaosConfig::new(seed, plan)
                .with_group_commit()
                .with_recorder(recorder_dir("group-crash"));
            let report = run_chaos(&config).unwrap();
            assert!(report.crashes <= 1, "one-shot crash rule fired twice");
            crashes_seen += report.crashes;
            if report.committed_in_doubt > 1 {
                whole_batches_in_doubt += 1;
            }
            assert_clean(&report, &config, &format!("group crash@{kind}#{n}"));
        }
    }
    std::fs::remove_dir_all(recorder_dir("group-crash")).ok();
    assert!(crashes_seen >= 30, "only {crashes_seen}/48 grouped plans produced a crash");
    // The matrix must actually crash *fused* flushes, not only singleton
    // batches: at least one crash between the group's durable SST and
    // its finish must have reclassified a whole multi-member batch as
    // committed-in-doubt (visible exactly once, as a unit).
    assert!(whole_batches_in_doubt >= 1, "no crash ever caught a multi-member batch in flight");
}

/// Torn WAL tail under group commit: the fused batch's frames are torn
/// at every prefix length and the process killed. Recovery must drop the
/// batch whole or keep it whole — never a prefix of its members.
#[test]
fn torn_group_tail_at_every_prefix_length_recovers_clean() {
    for keep in 1..=16u32 {
        let seed = 6000 + u64::from(keep);
        let plan = FaultPlan::new(seed).torn_wal_append(1 + u64::from(keep % 5), keep);
        let config = ChaosConfig::new(seed, plan)
            .with_group_commit()
            .with_recorder(recorder_dir("group-torn"));
        let report = run_chaos(&config).unwrap();
        assert_eq!(report.crashes, 1, "torn write must crash the process");
        assert_eq!(report.faults[0].action, "torn");
        assert_clean(&report, &config, &format!("group torn keep={keep}"));
    }
    std::fs::remove_dir_all(recorder_dir("group-torn")).ok();
}

/// The random chaos matrix with grouping on: 48 random adversaries
/// against the batched commit path.
#[test]
fn random_chaos_matrix_with_group_commit_holds_invariants() {
    let mut total_crashes = 0u64;
    for seed in 100..148u64 {
        let config = ChaosConfig::new(seed, FaultPlan::random(seed))
            .with_group_commit()
            .with_recorder(recorder_dir("group-random"));
        let report = run_chaos(&config).unwrap();
        total_crashes += report.crashes;
        assert_clean(&report, &config, &format!("group random seed={seed}"));
    }
    assert!(total_crashes > 10, "matrix too gentle: {total_crashes} crashes over 48 runs");
    std::fs::remove_dir_all(recorder_dir("group-random")).ok();
}

/// Group-commit runs replay byte-identically too.
#[test]
fn group_commit_replays_byte_identically() {
    for seed in [0u64, 11, 57] {
        let config = ChaosConfig::new(seed, FaultPlan::random(seed)).with_group_commit();
        let a = run_chaos(&config).unwrap();
        let b = run_chaos(&config).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "grouped seed {seed} diverged");
        assert_eq!(a.faults, b.faults, "grouped seed {seed} fault schedule diverged");
    }
}

/// Determinism: the same `(seed, plan)` must replay with a byte-identical
/// fault schedule and fingerprint; workload seed and plan seed must both
/// matter.
#[test]
fn identical_seeds_replay_byte_identically() {
    for seed in [0u64, 3, 11, 29, 57, 91] {
        let config = ChaosConfig::new(seed, FaultPlan::random(seed));
        let a = run_chaos(&config).unwrap();
        let b = run_chaos(&config).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint, "seed {seed} diverged");
        assert_eq!(a.faults, b.faults, "seed {seed} fault schedule diverged");
    }
}

/// Every deterministic `(seed, plan)` run above — the crash at every
/// labeled point, the torn-WAL prefixes and the random matrix, solo and
/// grouped — folded into one digest of their fingerprints, pinned at the
/// commit before the engine became the only holder of the fault hook. A
/// change that moves one site arrival, shard tag or fired fault fails
/// here. The recorder stays off: it does not touch the fingerprint.
#[test]
fn deterministic_runs_fold_to_the_pinned_digest() {
    const PINNED: (usize, u32) = (48_841, 3_498_494_164);
    let mut folded = String::new();
    for group in [false, true] {
        let base = if group { 5000 } else { 1000 };
        let mut plans = Vec::new();
        for (k, kind) in SITE_KINDS.iter().enumerate() {
            for n in 1..=8u64 {
                let seed = base + (k as u64) * 100 + n;
                plans.push((seed, FaultPlan::new(seed).crash_at_kind(kind, n)));
            }
        }
        for keep in 1..=16u32 {
            let seed = base + 1000 + u64::from(keep);
            plans.push((seed, FaultPlan::new(seed).torn_wal_append(1 + u64::from(keep % 5), keep)));
        }
        let random = if group { 100..148 } else { 0..96 };
        plans.extend(random.map(|seed| (seed, FaultPlan::random(seed))));
        for (seed, plan) in plans {
            let config = ChaosConfig::new(seed, plan);
            let config = if group { config.with_group_commit() } else { config };
            folded.push_str(&run_chaos(&config).unwrap().fingerprint);
            folded.push('\n');
        }
    }
    assert_eq!((folded.len(), checksum(folded.as_bytes())), PINNED);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary seeds and fault plans: a crash at an arbitrary labeled
    /// point and arrival, stacked on a random background plan. After
    /// recovery both invariants must hold and the stitched trace must
    /// certify.
    #[test]
    fn prop_arbitrary_crash_points_recover_clean(
        seed in 0u64..10_000,
        kind_idx in 0usize..6,
        arrival in 1u64..12,
    ) {
        let plan = FaultPlan::random(seed).crash_at_kind(SITE_KINDS[kind_idx], arrival);
        let config =
            ChaosConfig::new(seed, plan).with_recorder(recorder_dir("prop-crash"));
        let report = run_chaos(&config).unwrap();
        prop_assert!(
            report.violations.is_empty(),
            "violations {:?} ({})", report.violations, report.fingerprint
        );
        prop_assert!(report.certified, "stitched trace not certified");
        prop_assert_eq!(
            report.committed + report.committed_in_doubt + report.aborted + report.lost,
            config.sessions as u64
        );
    }

    /// Persistent transient I/O at arbitrary rates never breaks the
    /// ledger: faults translate into bounded retries and `SstFailure`
    /// aborts, not corruption.
    #[test]
    fn prop_transient_io_rates_never_corrupt(
        seed in 0u64..10_000,
        ppm in 1_000u32..600_000,
    ) {
        let plan = FaultPlan::new(seed).io_on_sst_apply_each(ppm);
        let config = ChaosConfig::new(seed, plan);
        let report = run_chaos(&config).unwrap();
        prop_assert!(report.violations.is_empty(), "violations {:?}", report.violations);
        prop_assert!(report.certified);
        prop_assert_eq!(report.crashes, 0, "transient I/O must never crash the process");
        prop_assert_eq!(report.aborted, report.aborted_sst_failure,
            "all aborts under this plan must be SST failures");
    }
}
