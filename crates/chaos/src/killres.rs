//! The kill/resume harness: crash-consistency trials over randomized
//! kill points and snapshot cadences.
//!
//! Each trial runs a scenario twice on identical traces: once
//! uninterrupted ([`Scenario::try_run_journaled_on`]) and once killed
//! after a seed-derived number of engine events and resumed from the last
//! durable snapshot ([`Scenario::try_run_interrupted_on`]). The resumed
//! run's report and merged journal must be **bit-for-bit** identical to
//! the uninterrupted run's — journals are compared as serialized JSONL
//! bytes, not structurally. Any divergence means the engine's
//! snapshot/replay path lost determinism.
//!
//! [`Scenario::try_run_journaled_on`]: etrain_sim::Scenario::try_run_journaled_on
//! [`Scenario::try_run_interrupted_on`]: etrain_sim::Scenario::try_run_interrupted_on

use etrain_obs::{Journal, ObsMode};
use etrain_sim::{conformance_kinds, CasePlan, EngineKind};
use etrain_trace::faults::hash_unit;
use serde::{Deserialize, Serialize};

/// One crash-consistency trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KillResumeTrial {
    /// The scenario seed.
    pub seed: u64,
    /// The scheduler label.
    pub kind: String,
    /// Engine events after which the run was killed.
    pub kill_after_events: u64,
    /// Snapshot cadence, in slot boundaries.
    pub cadence_slots: u64,
    /// Whether the resumed run matched the uninterrupted one exactly.
    pub identical: bool,
    /// What diverged, when it did.
    pub detail: Option<String>,
}

/// The outcome of a batch of kill/resume trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KillResumeReport {
    /// Every trial, in execution order.
    pub trials: Vec<KillResumeTrial>,
}

impl KillResumeReport {
    /// Trials that matched bit-for-bit.
    pub fn identical_count(&self) -> usize {
        self.trials.iter().filter(|t| t.identical).count()
    }

    /// `true` when every trial matched.
    pub fn all_identical(&self) -> bool {
        self.identical_count() == self.trials.len()
    }
}

/// The snapshot cadences trials rotate through: frequent, moderate, and
/// sparse enough that early kills land before the first snapshot
/// (exercising the resume-from-nothing path).
const CADENCES: [u64; 3] = [8, 32, 128];

/// Runs `trials_per_seed` kill/resume trials for each seed, with kill
/// points derived deterministically from the seed and trial index.
pub fn run_kill_resume(seeds: &[u64], trials_per_seed: usize) -> KillResumeReport {
    let kinds = conformance_kinds();
    let mut trials = Vec::with_capacity(seeds.len() * trials_per_seed);
    for &seed in seeds {
        let plan = CasePlan::from_seed(seed, seed % 2 == 1);
        let kind = kinds[(seed % kinds.len() as u64) as usize];
        // Alternate kernels by seed parity (the campaign's convention) so
        // crash-consistency trials cover the event kernel's batched
        // snapshot boundaries too.
        let engine = if seed % 2 == 0 {
            EngineKind::Slot
        } else {
            EngineKind::Event
        };
        let scenario = plan
            .scenario()
            .scheduler(kind)
            .engine(engine)
            .obs(ObsMode::Jsonl);
        let traces = scenario.generate_traces();
        let (base_report, base_output, base_journal) = scenario
            .try_run_journaled_on(&traces)
            .expect("generated plans validate");
        let base_jsonl = base_journal.as_ref().map(Journal::to_jsonl);
        let total_events = base_output.events_processed.max(1);
        for trial in 0..trials_per_seed {
            // A kill point anywhere in (0, total): never 0 (that would
            // skip the kill entirely) and occasionally right before the
            // end (a nearly complete run).
            let unit = hash_unit(seed, 0x1c11 + trial as u64, 0x7e57);
            let kill_after_events = 1 + (unit * (total_events - 1) as f64) as u64;
            let cadence_slots = CADENCES[trial % CADENCES.len()];
            let trial =
                match scenario.try_run_interrupted_on(&traces, kill_after_events, cadence_slots) {
                    Ok((report, _output, journal)) => {
                        let report_ok = report == base_report;
                        let journal_ok = journal.as_ref().map(Journal::to_jsonl) == base_jsonl;
                        let detail = match (report_ok, journal_ok) {
                            (true, true) => None,
                            (false, _) => Some("resumed report diverged".to_string()),
                            (true, false) => Some("merged journal diverged".to_string()),
                        };
                        KillResumeTrial {
                            seed,
                            kind: kind.to_string(),
                            kill_after_events,
                            cadence_slots,
                            identical: report_ok && journal_ok,
                            detail,
                        }
                    }
                    Err(error) => KillResumeTrial {
                        seed,
                        kind: kind.to_string(),
                        kill_after_events,
                        cadence_slots,
                        identical: false,
                        detail: Some(format!("resume failed: {error}")),
                    },
                };
            trials.push(trial);
        }
    }
    KillResumeReport { trials }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_resume_is_bit_for_bit_identical() {
        let seeds: Vec<u64> = (0..4).collect();
        let report = run_kill_resume(&seeds, 3);
        assert_eq!(report.trials.len(), 12);
        assert!(
            report.all_identical(),
            "divergent trials: {:?}",
            report
                .trials
                .iter()
                .filter(|t| !t.identical)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn kill_points_vary_and_stay_in_range() {
        let report = run_kill_resume(&[3], 6);
        let kills: Vec<u64> = report.trials.iter().map(|t| t.kill_after_events).collect();
        assert!(kills.iter().all(|&k| k >= 1));
        let distinct: std::collections::BTreeSet<u64> = kills.iter().copied().collect();
        assert!(distinct.len() > 1, "kill points should vary: {kills:?}");
    }
}
