//! Decision-path equivalence suite: the cached hot path of the hot-path
//! campaign (`ETrainScheduler::select` scratch reuse, O(1) counters,
//! Θ-gate early exit, pooled timelines, batched integration) must be
//! *bit-for-bit* invisible in every output the simulator can produce.
//!
//! Every seeded scenario runs twice — once on the cached decision path
//! and once with the retained from-scratch reference recompute
//! (`Scenario::reference_cost(true)`) — across all five schedulers, both
//! engine kernels, fault-free and faulty plans, with the strict oracle on and
//! the structured journal exported. Reports, their serialized JSON, and
//! the merged journals must match byte for byte.
//!
//! The quick tier runs in the default test pass; the exhaustive sweep is
//! `#[ignore]`d and executed by the CI `conformance` job
//! (`cargo test -q -- --ignored`).

use etrain_sim::oracle::OracleMode;
use etrain_sim::{conformance_kinds, CasePlan, EngineKind, Journal, ObsMode, Scenario};

/// Deterministic scenario generator, shared with conformance and chaos:
/// every knob a pure function of the seed, so a failing seed reproduces
/// exactly.
fn random_scenario(seed: u64, with_faults: bool) -> Scenario {
    CasePlan::from_seed(seed, with_faults).scenario()
}

/// Runs one seeded workload on both decision paths — across every
/// scheduler and both engine kernels — and demands byte-identical
/// reports and journals.
fn assert_decision_paths_equivalent(seed: u64, with_faults: bool) {
    let base = random_scenario(seed, with_faults)
        .oracle(OracleMode::Strict)
        .obs(ObsMode::Jsonl);
    for kind in conformance_kinds() {
        let scenario = base.clone().scheduler(kind);
        let traces = scenario.generate_traces();
        for engine in [EngineKind::Slot, EngineKind::Event] {
            let run = |reference: bool| {
                scenario
                    .clone()
                    .engine(engine)
                    .reference_cost(reference)
                    .try_run_journaled_on(&traces)
                    .unwrap_or_else(|e| {
                        panic!(
                            "strict run failed (seed {seed}, faults {with_faults}, \
                             scheduler {kind:?}, engine {engine}, reference {reference}): {e}"
                        )
                    })
            };
            let (cached_report, _, cached_journal) = run(false);
            let (reference_report, _, reference_journal) = run(true);

            assert_eq!(
                cached_report, reference_report,
                "decision paths diverged (seed {seed}, faults {with_faults}, \
                 scheduler {kind:?}, engine {engine})"
            );
            // Byte-identical persisted artifacts: the serialized report
            // (what BENCH_repro.json and checkpoints store) and the
            // merged journal export (what `ETRAIN_OBS=jsonl` writes).
            assert_eq!(
                serde_json::to_string(&cached_report).expect("report serializes"),
                serde_json::to_string(&reference_report).expect("report serializes"),
                "serialized reports diverged (seed {seed}, faults {with_faults}, \
                 scheduler {kind:?}, engine {engine})"
            );
            assert_eq!(
                cached_journal.as_ref().map(Journal::to_jsonl),
                reference_journal.as_ref().map(Journal::to_jsonl),
                "journals diverged (seed {seed}, faults {with_faults}, \
                 scheduler {kind:?}, engine {engine})"
            );
            assert!(
                cached_journal.is_some(),
                "jsonl obs mode must produce a journal"
            );
            let outcome = cached_report
                .oracle
                .as_ref()
                .expect("strict mode attaches outcome");
            assert!(outcome.is_clean(), "oracle violations under seed {seed}");
        }
    }
}

/// Quick tier: 4 seeds × {fault-free, faulty} × 5 schedulers × 2 kernels
/// × 2 decision paths = 160 journaled strict runs in the default pass.
#[test]
fn equivalence_quick_decision_paths_are_interchangeable() {
    for seed in 0..4 {
        assert_decision_paths_equivalent(seed, false);
        assert_decision_paths_equivalent(seed, true);
    }
}

/// Exhaustive tier for the CI conformance job: 20 seeds × {fault-free,
/// faulty} × 5 schedulers × 2 kernels × 2 decision paths = 800 journaled
/// strict runs.
#[test]
#[ignore = "exhaustive sweep; run with `cargo test -- --ignored` (CI conformance job)"]
fn equivalence_full_decision_paths_are_interchangeable() {
    for seed in 0..20 {
        assert_decision_paths_equivalent(seed, false);
        assert_decision_paths_equivalent(seed, true);
    }
}

/// A default scenario runs the fast side of both bit-identical forks:
/// the event kernel and the cached decision path. The slow sides are
/// reached only through the explicit builders the tiers above use.
#[test]
fn scenario_defaults_to_event_kernel_and_cached_path() {
    let scenario = Scenario::paper_default();
    assert_eq!(scenario.engine_kind(), EngineKind::Event);
    assert!(!scenario.reference_cost_enabled());
}
