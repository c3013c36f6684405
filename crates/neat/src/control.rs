//! Execution-control outcomes: completeness, degradation and the
//! best-valid-result contract.
//!
//! A budgeted run ([`crate::Neat::run_controlled`],
//! [`crate::IncrementalNeat::ingest_controlled`]) never throws work away:
//! when a deadline, operation budget or cancellation interrupts the
//! pipeline, the run walks a documented degradation ladder —
//! `opt-NEAT → flow-NEAT → base-NEAT` across phases, and within Phase 3
//! `exhaustive → ELB-only → skip refinement` — and returns the best valid
//! result computed so far. The [`Outcome`] reports exactly which rung was
//! delivered and why, so callers can distinguish a complete answer from a
//! graceful partial one.
//!
//! Interrupts are **data, not errors**: a controlled run returns
//! `Ok(Outcome)` for every interrupt; `Err` is reserved for genuine
//! configuration or data faults.

use crate::pipeline::{Mode, NeatResult};
use crate::TrajectoryCluster;
use neat_runctl::Interrupt;

/// How far one phase got before the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseStatus {
    /// The phase ran to its natural end with its full algorithm.
    Complete,
    /// The phase covered every work item, but finished under a cheaper
    /// algorithm after `why` fired (Phase 3's ELB-only continuation).
    Degraded {
        /// The interrupt that triggered the switch.
        why: Interrupt,
    },
    /// The phase was interrupted after `done` of `total` work items.
    Partial {
        /// Work items fully processed before the interrupt.
        done: usize,
        /// Work items the phase would have processed uninterrupted.
        total: usize,
        /// The interrupt that stopped it.
        why: Interrupt,
    },
    /// The phase never started because an earlier phase was interrupted.
    Skipped {
        /// The interrupt inherited from the earlier phase.
        why: Interrupt,
    },
    /// The requested [`Mode`] does not include this phase.
    NotRequested,
}

impl PhaseStatus {
    /// `true` when the phase owes the caller nothing more (ran fully with
    /// its full algorithm, or was never part of the request).
    pub fn is_complete(&self) -> bool {
        matches!(self, PhaseStatus::Complete | PhaseStatus::NotRequested)
    }

    /// The interrupt recorded on this phase, if any.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self {
            PhaseStatus::Complete | PhaseStatus::NotRequested => None,
            PhaseStatus::Degraded { why }
            | PhaseStatus::Partial { why, .. }
            | PhaseStatus::Skipped { why } => Some(*why),
        }
    }

    /// Stable kebab-case label for logs and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseStatus::Complete => "complete",
            PhaseStatus::Degraded { .. } => "degraded",
            PhaseStatus::Partial { .. } => "partial",
            PhaseStatus::Skipped { .. } => "skipped",
            PhaseStatus::NotRequested => "not-requested",
        }
    }
}

/// Per-phase completion report of a controlled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completeness {
    /// Phase 1 — base cluster formation.
    pub phase1: PhaseStatus,
    /// Phase 2 — flow cluster formation.
    pub phase2: PhaseStatus,
    /// Phase 3 — flow cluster refinement.
    pub phase3: PhaseStatus,
}

impl Completeness {
    /// A fully complete report for the phases `mode` requests.
    pub fn complete_for(mode: Mode) -> Self {
        let ran = PhaseStatus::Complete;
        let not = PhaseStatus::NotRequested;
        match mode {
            Mode::Base => Completeness {
                phase1: ran,
                phase2: not,
                phase3: not,
            },
            Mode::Flow => Completeness {
                phase1: ran,
                phase2: ran,
                phase3: not,
            },
            Mode::Opt => Completeness {
                phase1: ran,
                phase2: ran,
                phase3: ran,
            },
        }
    }

    /// `true` when every requested phase ran fully.
    pub fn is_complete(&self) -> bool {
        self.phase1.is_complete() && self.phase2.is_complete() && self.phase3.is_complete()
    }

    /// The earliest interrupt across the phases, in pipeline order.
    pub fn first_interrupt(&self) -> Option<Interrupt> {
        self.phase1
            .interrupt()
            .or_else(|| self.phase2.interrupt())
            .or_else(|| self.phase3.interrupt())
    }
}

/// One rung walked down the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationStep {
    /// Phase 1 stopped after `done` of `total` trajectories; the
    /// delivered base clusters cover only the processed prefix.
    TruncatedPhase1 {
        /// Trajectories fully extracted.
        done: usize,
        /// Trajectories in the dataset.
        total: usize,
    },
    /// Phase 2 stopped seeding after `done` of `total` candidate seeds;
    /// the flow being expanded at the interrupt was finished as a valid
    /// (shorter) flow.
    TruncatedPhase2 {
        /// Seed slots processed.
        done: usize,
        /// Seed slots overall (one per base cluster).
        total: usize,
    },
    /// Phase 2 never ran: the interrupt arrived during Phase 1.
    SkippedPhase2,
    /// Phase 3 switched from exact network distances to the Euclidean
    /// lower bound for every remaining pair (no further shortest paths).
    ElbOnlyPhase3,
    /// Phase 3 stopped mid-refinement: flows not yet reached became
    /// singleton trajectory clusters.
    TruncatedPhase3 {
        /// Flows assigned to a density-connected group before the stop.
        grouped: usize,
        /// Flows overall.
        total: usize,
    },
    /// Phase 3 never ran: the interrupt arrived before refinement, so
    /// the result stops at flow clusters.
    SkippedPhase3,
}

impl DegradationStep {
    /// Stable kebab-case label for logs and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            DegradationStep::TruncatedPhase1 { .. } => "truncated-phase1",
            DegradationStep::TruncatedPhase2 { .. } => "truncated-phase2",
            DegradationStep::SkippedPhase2 => "skipped-phase2",
            DegradationStep::ElbOnlyPhase3 => "elb-only-phase3",
            DegradationStep::TruncatedPhase3 { .. } => "truncated-phase3",
            DegradationStep::SkippedPhase3 => "skipped-phase3",
        }
    }
}

/// The degradation ladder: the record of a run that stopped after the
/// phases in `ran` when `requested` was asked for. Batch and streaming
/// runs both take their record from here.
///
/// `ran` holds the statuses of the phases that ran, in order; every one
/// but the last finished, since a run stops at the first phase that did
/// not. `elb_only` is phase 3's ELB-only flag. A requested phase past
/// `ran` is `Skipped` when the last phase was interrupted, and
/// `NotRequested` otherwise. The interrupt is the last phase's.
pub(crate) fn ladder(
    requested: Mode,
    ran: &[PhaseStatus],
    elb_only: bool,
) -> (Completeness, Degradation, Option<Interrupt>) {
    let why = ran.last().and_then(PhaseStatus::interrupt);
    let wanted = match requested {
        Mode::Base => 1,
        Mode::Flow => 2,
        Mode::Opt => 3,
    };
    let mut phases = [PhaseStatus::NotRequested; 3];
    let mut steps = Vec::new();
    for (i, phase) in phases.iter_mut().enumerate() {
        match (ran.get(i), why) {
            (Some(&status), _) => {
                *phase = status;
                if i == 2 && elb_only {
                    steps.push(DegradationStep::ElbOnlyPhase3);
                }
                if let PhaseStatus::Partial { done, total, .. } = status {
                    steps.push(match i {
                        0 => DegradationStep::TruncatedPhase1 { done, total },
                        1 => DegradationStep::TruncatedPhase2 { done, total },
                        _ => DegradationStep::TruncatedPhase3 {
                            grouped: done,
                            total,
                        },
                    });
                }
            }
            (None, Some(why)) if i < wanted => {
                *phase = PhaseStatus::Skipped { why };
                steps.push(if i == 1 {
                    DegradationStep::SkippedPhase2
                } else {
                    DegradationStep::SkippedPhase3
                });
            }
            (None, _) => {}
        }
    }
    let delivered = match ran.len() {
        0 | 1 => Mode::Base,
        2 => Mode::Flow,
        _ => Mode::Opt,
    };
    let [phase1, phase2, phase3] = phases;
    (
        Completeness {
            phase1,
            phase2,
            phase3,
        },
        Degradation {
            requested,
            delivered,
            steps,
        },
        why,
    )
}

/// What the run delivered relative to what was asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The pipeline version the caller requested.
    pub requested: Mode,
    /// The pipeline version whose output contract the result satisfies.
    /// Equal to `requested` for an uninterrupted run.
    pub delivered: Mode,
    /// The ladder rungs walked, in the order they were taken. Empty for
    /// an uninterrupted run.
    pub steps: Vec<DegradationStep>,
}

impl Degradation {
    /// An empty report: delivered exactly what was requested.
    pub fn none(mode: Mode) -> Self {
        Degradation {
            requested: mode,
            delivered: mode,
            steps: Vec::new(),
        }
    }

    /// `true` when the result falls short of the request in any way.
    pub fn is_degraded(&self) -> bool {
        self.requested != self.delivered || !self.steps.is_empty()
    }
}

/// The result of a controlled run: always the best valid clustering
/// computed within the budget, plus the completeness/degradation report
/// that says how far it got.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The clustering output. `result.mode` is the *delivered* mode: a
    /// degraded opt-NEAT request may carry a flow-NEAT or base-NEAT
    /// shaped result.
    pub result: NeatResult,
    /// Per-phase completion report.
    pub completeness: Completeness,
    /// Degradation-ladder report.
    pub degradation: Degradation,
    /// The first interrupt that fired, or `None` for a complete run.
    pub interrupt: Option<Interrupt>,
}

impl Outcome {
    /// `true` when the run finished without any interrupt.
    pub fn is_complete(&self) -> bool {
        self.interrupt.is_none()
    }

    /// The Phase-3 trajectory clusters (empty when the delivered mode
    /// stops earlier).
    pub fn clusters(&self) -> &[TrajectoryCluster] {
        &self.result.clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_for_matches_mode() {
        let base = Completeness::complete_for(Mode::Base);
        assert!(base.is_complete());
        assert_eq!(base.phase2, PhaseStatus::NotRequested);
        let opt = Completeness::complete_for(Mode::Opt);
        assert_eq!(opt.phase3, PhaseStatus::Complete);
        assert!(opt.first_interrupt().is_none());
    }

    #[test]
    fn first_interrupt_prefers_earliest_phase() {
        let c = Completeness {
            phase1: PhaseStatus::Partial {
                done: 1,
                total: 5,
                why: Interrupt::DeadlineExceeded,
            },
            phase2: PhaseStatus::Skipped {
                why: Interrupt::Cancelled,
            },
            phase3: PhaseStatus::Skipped {
                why: Interrupt::Cancelled,
            },
        };
        assert!(!c.is_complete());
        assert_eq!(c.first_interrupt(), Some(Interrupt::DeadlineExceeded));
    }

    #[test]
    fn degradation_none_is_not_degraded() {
        let d = Degradation::none(Mode::Opt);
        assert!(!d.is_degraded());
        let mut d2 = Degradation::none(Mode::Opt);
        d2.steps.push(DegradationStep::ElbOnlyPhase3);
        assert!(d2.is_degraded());
        let d3 = Degradation {
            requested: Mode::Opt,
            delivered: Mode::Flow,
            steps: vec![DegradationStep::SkippedPhase3],
        };
        assert!(d3.is_degraded());
    }

    #[test]
    fn ladder_records_each_stop() {
        let why = Interrupt::OpBudgetExhausted;
        let partial = PhaseStatus::Partial {
            done: 2,
            total: 5,
            why,
        };
        let done = PhaseStatus::Complete;
        // Phase 1 cut: base-NEAT, every later requested phase skipped.
        let (c, d, i) = ladder(Mode::Opt, &[partial], false);
        assert_eq!(i, Some(why));
        assert_eq!(c.phase3, PhaseStatus::Skipped { why });
        assert_eq!(d.delivered, Mode::Base);
        assert_eq!(
            d.steps,
            vec![
                DegradationStep::TruncatedPhase1 { done: 2, total: 5 },
                DegradationStep::SkippedPhase2,
                DegradationStep::SkippedPhase3,
            ]
        );
        // A flow-NEAT request never mentions phase 3.
        let (c, d, _) = ladder(Mode::Flow, &[partial], false);
        assert_eq!(c.phase3, PhaseStatus::NotRequested);
        assert_eq!(d.steps.len(), 2);
        // Phase 3 degraded to ELB-only, then stopped.
        let (c, d, i) = ladder(Mode::Opt, &[done, done, partial], true);
        assert_eq!((c.phase3, d.delivered, i), (partial, Mode::Opt, Some(why)));
        assert_eq!(
            d.steps,
            vec![
                DegradationStep::ElbOnlyPhase3,
                DegradationStep::TruncatedPhase3 {
                    grouped: 2,
                    total: 5
                },
            ]
        );
        // A finished run of the requested mode records nothing.
        for (mode, ran) in [
            (Mode::Base, &[done][..]),
            (Mode::Flow, &[done, done][..]),
            (Mode::Opt, &[done, done, done][..]),
        ] {
            let (c, d, i) = ladder(mode, ran, false);
            assert_eq!(
                (c, d, i),
                (
                    Completeness::complete_for(mode),
                    Degradation::none(mode),
                    None
                )
            );
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PhaseStatus::Complete.label(), "complete");
        assert_eq!(
            PhaseStatus::Degraded {
                why: Interrupt::OpBudgetExhausted
            }
            .label(),
            "degraded"
        );
        assert_eq!(DegradationStep::SkippedPhase3.label(), "skipped-phase3");
        assert_eq!(
            DegradationStep::TruncatedPhase1 { done: 0, total: 1 }.label(),
            "truncated-phase1"
        );
    }
}
