//! The user-facing NEAT pipeline: `base-NEAT`, `flow-NEAT` and `opt-NEAT`.
//!
//! Section IV of the paper names three versions of the framework — Phase 1
//! only, Phases 1–2 and all three phases — and evaluates them separately
//! (Figure 6). [`Neat::run`] executes the requested [`Mode`] and reports
//! per-phase wall-clock timings alongside the outputs of every phase that
//! ran.

use crate::config::NeatConfig;
use crate::control::{Completeness, Degradation, DegradationStep, Outcome, PhaseStatus};
use crate::error::NeatError;
use crate::model::{BaseCluster, FlowCluster, TrajectoryCluster};
use crate::phase1::{form_base_clusters_ctl, ResilienceCounters};
use crate::phase2::form_flow_clusters_inner;
use crate::phase3::{refine_flow_clusters_ctl, Phase3Stats};
use neat_rnet::RoadNetwork;
use neat_runctl::Control;
use neat_traj::sanitize::ErrorPolicy;
use neat_traj::Dataset;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant}; // lint:allow(L5) reason=Instant feeds PhaseTimings instrumentation only; clustering output never reads the clock

/// Which NEAT version to run (Section IV's base-/flow-/opt-NEAT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Phase 1 only: base clusters.
    Base,
    /// Phases 1–2: flow clusters.
    Flow,
    /// All three phases: refined trajectory clusters.
    Opt,
}

impl Mode {
    /// Human-readable name matching the paper ("base-NEAT" etc.).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Base => "base-NEAT",
            Mode::Flow => "flow-NEAT",
            Mode::Opt => "opt-NEAT",
        }
    }
}

/// Wall-clock duration of each phase that ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Phase 1 (base cluster formation).
    pub phase1: Duration,
    /// Phase 2 (flow cluster formation); zero when not run.
    pub phase2: Duration,
    /// Phase 3 (flow cluster refinement); zero when not run.
    pub phase3: Duration,
}

impl PhaseTimings {
    /// Total time across the phases that ran.
    pub fn total(&self) -> Duration {
        self.phase1 + self.phase2 + self.phase3
    }
}

/// Result of a NEAT run. Outputs of phases beyond the requested [`Mode`]
/// are empty.
#[derive(Debug, Clone)]
pub struct NeatResult {
    /// The mode that produced this result.
    pub mode: Mode,
    /// Phase-1 base clusters, density-sorted. Retained only for
    /// [`Mode::Base`] (later modes consume them into flows).
    pub base_clusters: Vec<BaseCluster>,
    /// Number of base clusters Phase 1 formed (available in every mode).
    pub base_cluster_count: usize,
    /// Number of t-fragments Phase 1 extracted.
    pub fragment_count: usize,
    /// Samples Phase 1 scanned — a deterministic work counter, identical
    /// at every thread count.
    pub samples_scanned: usize,
    /// Phase-2 flow clusters that passed the `minCard` filter (empty for
    /// [`Mode::Base`]).
    pub flow_clusters: Vec<FlowCluster>,
    /// Flows discarded by the `minCard` filter.
    pub discarded_flows: usize,
    /// Phase-3 trajectory clusters (empty unless [`Mode::Opt`]).
    pub clusters: Vec<TrajectoryCluster>,
    /// Phase-3 instrumentation (zeroed unless [`Mode::Opt`]).
    pub phase3_stats: Phase3Stats,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Trajectories isolated instead of aborting the run (all zero under
    /// [`ErrorPolicy::Strict`], the default).
    pub resilience: ResilienceCounters,
}

impl NeatResult {
    /// A multi-line human-readable summary of the run: per-phase counts,
    /// timings, and (for flow/opt modes) headline statistics of the
    /// discovered clusters. Intended for logs and CLIs; the structured
    /// fields remain the API for programmatic use.
    pub fn summary(&self, net: &RoadNetwork) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} t-fragments -> {} base clusters ({:.3}s)",
            self.mode.name(),
            self.fragment_count,
            self.base_cluster_count,
            self.timings.phase1.as_secs_f64()
        );
        if self.mode != Mode::Base {
            let stats = crate::analysis::flow_statistics(net, &self.flow_clusters);
            let _ = writeln!(
                out,
                "flows: {} kept / {} discarded; avg route {:.0} m, max {:.0} m, avg {:.1} trajectories ({:.3}s)",
                stats.count,
                self.discarded_flows,
                stats.avg_route_length_m,
                stats.max_route_length_m,
                stats.avg_cardinality,
                self.timings.phase2.as_secs_f64()
            );
        }
        if self.mode == Mode::Opt {
            let stats = crate::analysis::cluster_statistics(net, &self.clusters);
            let _ = writeln!(
                out,
                "clusters: {}; avg {:.1} flows each, largest {}; {} SPs / {} ELB skips ({:.3}s)",
                stats.count,
                stats.avg_flows_per_cluster,
                stats.max_flows_per_cluster,
                self.phase3_stats.sp_computations,
                self.phase3_stats.elb_skips,
                self.timings.phase3.as_secs_f64()
            );
        }
        if !self.resilience.is_clean() {
            let _ = writeln!(
                out,
                "resilience: {} trajectories skipped, {} repaired",
                self.resilience.skipped, self.resilience.repaired
            );
        }
        out
    }
}

/// The NEAT clustering pipeline bound to a road network and configuration.
///
/// See the [crate-level docs](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct Neat<'a> {
    net: &'a RoadNetwork,
    config: NeatConfig,
}

impl<'a> Neat<'a> {
    /// Creates a pipeline over `net` with the given configuration.
    pub fn new(net: &'a RoadNetwork, config: NeatConfig) -> Self {
        Neat { net, config }
    }

    /// The active configuration.
    pub fn config(&self) -> &NeatConfig {
        &self.config
    }

    /// Runs the pipeline on `dataset` in the requested mode.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::InvalidConfig`] for invalid parameters and
    /// [`NeatError::UnknownSegment`] when the dataset references segments
    /// missing from the network.
    pub fn run(&self, dataset: &Dataset, mode: Mode) -> Result<NeatResult, NeatError> {
        self.run_with_policy(dataset, mode, ErrorPolicy::Strict)
    }

    /// Runs the pipeline under an explicit [`ErrorPolicy`]. Under
    /// [`ErrorPolicy::Skip`] or [`ErrorPolicy::Repair`], per-trajectory
    /// data faults (e.g. samples on segments missing from the network)
    /// isolate the offending trajectory — counted in
    /// [`NeatResult::resilience`] — instead of aborting the run.
    ///
    /// # Errors
    ///
    /// [`NeatError::InvalidConfig`] always fails early; data errors only
    /// propagate under [`ErrorPolicy::Strict`].
    pub fn run_with_policy(
        &self,
        dataset: &Dataset,
        mode: Mode,
        policy: ErrorPolicy,
    ) -> Result<NeatResult, NeatError> {
        self.run_inner(dataset, mode, policy, None)
            .map(|outcome| outcome.result)
    }

    /// Runs the pipeline under a [`Control`]: cooperative cancel points
    /// thread through every long loop, and on interrupt the run walks the
    /// degradation ladder (`opt-NEAT → flow-NEAT → base-NEAT`; within
    /// Phase 3 `exhaustive → ELB-only → skip refinement`) instead of
    /// aborting, returning the best valid result computed so far.
    ///
    /// With an unlimited [`Control`] the result is bit-identical to
    /// [`Neat::run_with_policy`]: every check is observation-only until a
    /// limit fires.
    ///
    /// # Errors
    ///
    /// Same as [`Neat::run_with_policy`] — interrupts are *never* errors;
    /// they are reported in the returned [`Outcome`].
    pub fn run_controlled(
        &self,
        dataset: &Dataset,
        mode: Mode,
        policy: ErrorPolicy,
        ctl: &Control,
    ) -> Result<Outcome, NeatError> {
        self.run_inner(dataset, mode, policy, Some(ctl))
    }

    /// The one pipeline body. Phases 2 and 3 get `ctl` as given, so a
    /// free run keeps phase 3's uncontrolled parallel exact scan.
    fn run_inner(
        &self,
        dataset: &Dataset,
        mode: Mode,
        policy: ErrorPolicy,
        ctl: Option<&Control>,
    ) -> Result<Outcome, NeatError> {
        self.config.validate()?;
        let requested = mode;
        let mut timings = PhaseTimings::default();
        // Phase 1 always runs under a control; an unlimited one has no
        // observer, so its phase hooks are no-ops.
        let free = Control::unlimited();
        let control = ctl.unwrap_or(&free);

        control.phase_start("phase1");
        let t0 = Instant::now(); // lint:allow(L5) reason=phase timing instrumentation only; never influences clustering
        let (p1, resilience, s1) = form_base_clusters_ctl(
            self.net,
            dataset,
            self.config.insert_junctions,
            self.config.threads,
            policy,
            control,
        )?;
        timings.phase1 = t0.elapsed();
        control.phase_end("phase1");
        let mut result = NeatResult {
            mode: Mode::Base,
            base_clusters: Vec::new(),
            base_cluster_count: p1.base_clusters.len(),
            fragment_count: p1.fragment_count,
            samples_scanned: p1.samples_scanned,
            flow_clusters: Vec::new(),
            discarded_flows: 0,
            clusters: Vec::new(),
            phase3_stats: Phase3Stats::default(),
            timings,
            resilience,
        };

        if requested == Mode::Base || !s1.is_complete() {
            // Ladder bottom: deliver base-NEAT, possibly truncated.
            let why = s1.interrupt();
            let mut steps = Vec::new();
            if let PhaseStatus::Partial { done, total, .. } = s1 {
                steps.push(DegradationStep::TruncatedPhase1 { done, total });
            }
            let mut phase2 = PhaseStatus::NotRequested;
            let mut phase3 = PhaseStatus::NotRequested;
            if let Some(w) = why {
                if requested != Mode::Base {
                    phase2 = PhaseStatus::Skipped { why: w };
                    steps.push(DegradationStep::SkippedPhase2);
                    if requested == Mode::Opt {
                        phase3 = PhaseStatus::Skipped { why: w };
                        steps.push(DegradationStep::SkippedPhase3);
                    }
                }
            }
            result.base_clusters = p1.base_clusters;
            return Ok(Outcome {
                result,
                completeness: Completeness {
                    phase1: s1,
                    phase2,
                    phase3,
                },
                degradation: Degradation {
                    requested,
                    delivered: Mode::Base,
                    steps,
                },
                interrupt: why,
            });
        }

        control.phase_start("phase2");
        let t1 = Instant::now(); // lint:allow(L5) reason=phase timing instrumentation only; never influences clustering
        let (p2, s2) =
            form_flow_clusters_inner(self.net, p1.base_clusters, &self.config, &mut None, ctl)?;
        result.timings.phase2 = t1.elapsed();
        control.phase_end("phase2");
        result.mode = Mode::Flow;
        result.discarded_flows = p2.discarded;

        if requested == Mode::Flow || !s2.is_complete() {
            // Middle rung: deliver flow-NEAT, possibly with a truncated
            // flow set (the flow being expanded at the interrupt was
            // finished as a valid, shorter route).
            let why = s2.interrupt();
            let mut steps = Vec::new();
            if let PhaseStatus::Partial { done, total, .. } = s2 {
                steps.push(DegradationStep::TruncatedPhase2 { done, total });
            }
            let mut phase3 = PhaseStatus::NotRequested;
            if requested == Mode::Opt {
                if let Some(w) = why {
                    phase3 = PhaseStatus::Skipped { why: w };
                    steps.push(DegradationStep::SkippedPhase3);
                }
            }
            result.flow_clusters = p2.flow_clusters;
            return Ok(Outcome {
                result,
                completeness: Completeness {
                    phase1: s1,
                    phase2: s2,
                    phase3,
                },
                degradation: Degradation {
                    requested,
                    delivered: Mode::Flow,
                    steps,
                },
                interrupt: why,
            });
        }

        control.phase_start("phase3");
        let t2 = Instant::now(); // lint:allow(L5) reason=phase timing instrumentation only; never influences clustering
        result.flow_clusters = p2.flow_clusters.clone();
        let refined = refine_flow_clusters_ctl(self.net, p2.flow_clusters, &self.config, ctl)?;
        result.timings.phase3 = t2.elapsed();
        control.phase_end("phase3");
        result.mode = Mode::Opt;
        result.clusters = refined.output.clusters;
        result.phase3_stats = refined.output.stats;

        let s3 = refined.status;
        let mut steps = Vec::new();
        if refined.elb_only {
            steps.push(DegradationStep::ElbOnlyPhase3);
        }
        if let PhaseStatus::Partial { done, total, .. } = s3 {
            steps.push(DegradationStep::TruncatedPhase3 {
                grouped: done,
                total,
            });
        }
        Ok(Outcome {
            result,
            completeness: Completeness {
                phase1: s1,
                phase2: s2,
                phase3: s3,
            },
            degradation: Degradation {
                requested,
                delivered: Mode::Opt,
                steps,
            },
            interrupt: s3.interrupt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{Trajectory, TrajectoryId};

    /// Dataset where `count` objects traverse segments `segs` of a chain
    /// network (100 m spacing), sampled twice per segment.
    fn traverse(count: u64, id0: u64, segs: &[usize]) -> Vec<Trajectory> {
        (0..count)
            .map(|i| {
                let pts = segs
                    .iter()
                    .enumerate()
                    .flat_map(|(k, &s)| {
                        [
                            RoadLocation::new(
                                SegmentId::new(s),
                                Point::new(s as f64 * 100.0 + 30.0, 0.0),
                                k as f64 * 10.0,
                            ),
                            RoadLocation::new(
                                SegmentId::new(s),
                                Point::new(s as f64 * 100.0 + 70.0, 0.0),
                                k as f64 * 10.0 + 5.0,
                            ),
                        ]
                    })
                    .collect();
                Trajectory::new(TrajectoryId::new(id0 + i), pts).unwrap()
            })
            .collect()
    }

    fn config(min_card: usize) -> NeatConfig {
        NeatConfig {
            min_card,
            ..NeatConfig::default()
        }
    }

    #[test]
    fn base_mode_returns_base_clusters() {
        let net = chain_network(6, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(4, 0, &[0, 1, 2]));
        let r = Neat::new(&net, config(1)).run(&data, Mode::Base).unwrap();
        assert_eq!(r.mode, Mode::Base);
        assert_eq!(r.base_clusters.len(), 3);
        assert_eq!(r.base_cluster_count, 3);
        assert!(r.flow_clusters.is_empty());
        assert!(r.clusters.is_empty());
        assert!(r.timings.phase2.is_zero());
    }

    #[test]
    fn flow_mode_produces_flows() {
        let net = chain_network(6, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(4, 0, &[0, 1, 2]));
        data.extend(traverse(2, 100, &[4]));
        let r = Neat::new(&net, config(2)).run(&data, Mode::Flow).unwrap();
        assert_eq!(r.flow_clusters.len(), 2);
        assert!(r.base_clusters.is_empty());
        assert_eq!(r.base_cluster_count, 4);
        assert!(r.clusters.is_empty());
    }

    #[test]
    fn opt_mode_produces_final_clusters() {
        let net = chain_network(10, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(4, 0, &[0, 1, 2]));
        data.extend(traverse(4, 100, &[5, 6, 7]));
        // Definition-11 distance between the flows is 500 m (nearest
        // endpoint correspondence n0↔n5, n3↔n8).
        let mut c = config(2);
        c.epsilon = 500.0;
        let r = Neat::new(&net, c).run(&data, Mode::Opt).unwrap();
        assert_eq!(r.flow_clusters.len(), 2);
        assert_eq!(r.clusters.len(), 1);
        assert_eq!(r.clusters[0].flows().len(), 2);
        assert!(r.phase3_stats.pairs_considered > 0);
    }

    #[test]
    fn min_card_discard_count_surfaces() {
        let net = chain_network(6, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(5, 0, &[0, 1]));
        data.extend(traverse(1, 100, &[3, 4]));
        let r = Neat::new(&net, config(3)).run(&data, Mode::Flow).unwrap();
        assert_eq!(r.flow_clusters.len(), 1);
        assert_eq!(r.discarded_flows, 1);
    }

    #[test]
    fn invalid_config_fails_early() {
        let net = chain_network(3, 100.0, 10.0);
        let mut c = config(1);
        c.beta = 0.1;
        assert!(matches!(
            Neat::new(&net, c).run(&Dataset::new("x"), Mode::Base),
            Err(NeatError::InvalidConfig(_))
        ));
    }

    #[test]
    fn mode_names_match_paper() {
        assert_eq!(Mode::Base.name(), "base-NEAT");
        assert_eq!(Mode::Flow.name(), "flow-NEAT");
        assert_eq!(Mode::Opt.name(), "opt-NEAT");
    }

    #[test]
    fn summary_mentions_each_phase() {
        let net = chain_network(6, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(4, 0, &[0, 1, 2]));
        let neat = Neat::new(&net, config(1));
        let base = neat.run(&data, Mode::Base).unwrap().summary(&net);
        assert!(base.contains("base-NEAT"));
        assert!(!base.contains("flows:"));
        let flow = neat.run(&data, Mode::Flow).unwrap().summary(&net);
        assert!(flow.contains("flows:"));
        assert!(!flow.contains("clusters:"));
        let opt = neat.run(&data, Mode::Opt).unwrap().summary(&net);
        assert!(opt.contains("clusters:"));
        assert!(opt.lines().count() >= 3);
    }

    #[test]
    fn run_with_policy_degrades_instead_of_aborting() {
        let net = chain_network(6, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(4, 0, &[0, 1, 2]));
        // One trajectory entirely on a segment the network doesn't have.
        data.push(
            Trajectory::new(
                TrajectoryId::new(900),
                vec![
                    RoadLocation::new(SegmentId::new(50), Point::new(0.0, 0.0), 0.0),
                    RoadLocation::new(SegmentId::new(50), Point::new(1.0, 0.0), 1.0),
                ],
            )
            .unwrap(),
        );
        let neat = Neat::new(&net, config(1));
        // Strict (and plain run) abort.
        assert!(neat.run(&data, Mode::Opt).is_err());
        assert!(neat
            .run_with_policy(&data, Mode::Opt, ErrorPolicy::Strict)
            .is_err());
        // Skip isolates the bad trajectory and still clusters the rest.
        let r = neat
            .run_with_policy(&data, Mode::Opt, ErrorPolicy::Skip)
            .unwrap();
        assert_eq!(r.resilience.skipped, 1);
        assert_eq!(r.resilience.skipped_ids, vec![TrajectoryId::new(900)]);
        assert!(!r.flow_clusters.is_empty());
        assert!(r
            .summary(&net)
            .contains("resilience: 1 trajectories skipped"));
    }

    #[test]
    fn clean_data_has_clean_resilience_under_every_policy() {
        let net = chain_network(6, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(4, 0, &[0, 1, 2]));
        let neat = Neat::new(&net, config(1));
        let strict = neat.run(&data, Mode::Flow).unwrap();
        for policy in [ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let r = neat.run_with_policy(&data, Mode::Flow, policy).unwrap();
            assert!(r.resilience.is_clean());
            assert_eq!(r.flow_clusters, strict.flow_clusters, "{policy:?}");
            assert!(!r.summary(&net).contains("resilience"));
        }
    }

    #[test]
    fn timings_accumulate() {
        let net = chain_network(6, 100.0, 10.0);
        let mut data = Dataset::new("d");
        data.extend(traverse(3, 0, &[0, 1, 2, 3]));
        let r = Neat::new(&net, config(1)).run(&data, Mode::Opt).unwrap();
        assert!(r.timings.total() >= r.timings.phase1);
        assert!(r.timings.total() >= r.timings.phase3);
    }

    /// Fingerprint of everything in a [`NeatResult`] except the timings,
    /// which legitimately differ between two runs.
    fn fingerprint(r: &NeatResult) -> String {
        format!(
            "{:?}|{:?}|{}|{}|{}|{:?}|{}|{:?}|{:?}|{:?}",
            r.mode,
            r.base_clusters,
            r.base_cluster_count,
            r.fragment_count,
            r.samples_scanned,
            r.flow_clusters,
            r.discarded_flows,
            r.clusters,
            r.phase3_stats,
            r.resilience,
        )
    }

    fn two_population_dataset() -> Dataset {
        let mut data = Dataset::new("d");
        data.extend(traverse(4, 0, &[0, 1, 2]));
        data.extend(traverse(3, 100, &[4, 5]));
        data
    }

    #[test]
    fn unlimited_control_is_bit_identical_to_uncontrolled() {
        let net = chain_network(8, 100.0, 10.0);
        let data = two_population_dataset();
        let neat = Neat::new(&net, config(2));
        for mode in [Mode::Base, Mode::Flow, Mode::Opt] {
            let plain = neat.run(&data, mode).unwrap();
            let ctl = neat_runctl::Control::unlimited();
            let out = neat
                .run_controlled(&data, mode, ErrorPolicy::Strict, &ctl)
                .unwrap();
            assert!(out.is_complete(), "{mode:?} must complete unlimited");
            assert_eq!(
                out.completeness,
                crate::control::Completeness::complete_for(mode)
            );
            assert!(!out.degradation.is_degraded());
            assert_eq!(
                fingerprint(&plain),
                fingerprint(&out.result),
                "unlimited {mode:?} run must match the uncontrolled one"
            );
        }
    }

    #[test]
    fn cancel_before_first_check_delivers_empty_base() {
        use neat_runctl::{CancelToken, Control, Interrupt, RunBudget};
        let net = chain_network(8, 100.0, 10.0);
        let data = two_population_dataset();
        let ctl = Control::new(RunBudget::unlimited(), CancelToken::armed_after(0));
        let out = Neat::new(&net, config(2))
            .run_controlled(&data, Mode::Opt, ErrorPolicy::Strict, &ctl)
            .unwrap();
        assert_eq!(out.interrupt, Some(Interrupt::Cancelled));
        assert_eq!(out.degradation.requested, Mode::Opt);
        assert_eq!(out.degradation.delivered, Mode::Base);
        assert_eq!(out.result.mode, Mode::Base);
        assert!(out.result.base_clusters.is_empty());
        assert!(matches!(
            out.completeness.phase1,
            crate::control::PhaseStatus::Partial { done: 0, .. }
        ));
    }

    #[test]
    fn op_budget_in_phase1_truncates_to_prefix() {
        use neat_runctl::{CancelToken, Control, Interrupt, RunBudget};
        let net = chain_network(8, 100.0, 10.0);
        let data = two_population_dataset();
        // Budget of 3 checks: a couple of trajectories clear their
        // per-trajectory cancel point, then the budget fires.
        let ctl = Control::new(RunBudget::unlimited().with_max_ops(3), CancelToken::new());
        let out = Neat::new(&net, config(2))
            .run_controlled(&data, Mode::Opt, ErrorPolicy::Strict, &ctl)
            .unwrap();
        assert_eq!(out.interrupt, Some(Interrupt::OpBudgetExhausted));
        assert_eq!(out.degradation.delivered, Mode::Base);
        let crate::control::PhaseStatus::Partial { done, total, .. } = out.completeness.phase1
        else {
            panic!(
                "expected partial phase 1, got {:?}",
                out.completeness.phase1
            );
        };
        assert_eq!(total, data.len());
        assert!(done < total);
        // The delivered base clusters cover exactly the done-prefix: they
        // match an uncontrolled run over the truncated dataset.
        let mut prefix = Dataset::new("prefix");
        prefix.extend(data.trajectories().iter().take(done).cloned());
        let plain = Neat::new(&net, config(2)).run(&prefix, Mode::Base).unwrap();
        assert_eq!(
            format!("{:?}", plain.base_clusters),
            format!("{:?}", out.result.base_clusters)
        );
    }

    #[test]
    fn cluster_cap_stops_phase2_at_cap() {
        use neat_runctl::{CancelToken, Control, Interrupt, RunBudget};
        let net = chain_network(8, 100.0, 10.0);
        let data = two_population_dataset(); // two disjoint flows
        let ctl = Control::new(
            RunBudget::unlimited().with_max_clusters(1),
            CancelToken::new(),
        );
        let out = Neat::new(&net, config(2))
            .run_controlled(&data, Mode::Opt, ErrorPolicy::Strict, &ctl)
            .unwrap();
        assert_eq!(out.interrupt, Some(Interrupt::ClusterCapReached));
        assert_eq!(out.degradation.delivered, Mode::Flow);
        assert_eq!(out.result.flow_clusters.len(), 1);
        assert!(out
            .degradation
            .steps
            .iter()
            .any(|s| matches!(s, DegradationStep::TruncatedPhase2 { .. })));
    }

    #[test]
    fn budget_exhausted_in_phase3_degrades_to_elb_only() {
        use neat_runctl::{CancelToken, Control, Interrupt, RunBudget};
        let net = chain_network(8, 100.0, 10.0);
        let data = two_population_dataset();
        let neat = Neat::new(&net, config(2));
        // Measure the ops phases 1–2 consume, then allow just one more:
        // the budget fires on phase 3's first candidate-pair check.
        let probe = Control::unlimited();
        neat.run_controlled(&data, Mode::Flow, ErrorPolicy::Strict, &probe)
            .unwrap();
        let ctl = Control::new(
            RunBudget::unlimited().with_max_ops(probe.ops() + 1),
            CancelToken::new(),
        );
        let out = neat
            .run_controlled(&data, Mode::Opt, ErrorPolicy::Strict, &ctl)
            .unwrap();
        assert_eq!(out.interrupt, Some(Interrupt::OpBudgetExhausted));
        // Degrade (default overrun mode): phase 3 finishes on the
        // Euclidean lower bound and still delivers opt-NEAT clusters.
        assert_eq!(out.degradation.delivered, Mode::Opt);
        assert!(out
            .degradation
            .steps
            .contains(&DegradationStep::ElbOnlyPhase3));
        assert!(matches!(
            out.completeness.phase3,
            crate::control::PhaseStatus::Degraded { .. }
        ));
        assert!(!out.result.clusters.is_empty());
    }

    #[test]
    fn partial_overrun_in_phase3_returns_singletons() {
        use neat_runctl::{CancelToken, Control, Interrupt, OverrunMode, RunBudget};
        let net = chain_network(8, 100.0, 10.0);
        let data = two_population_dataset();
        let neat = Neat::new(&net, config(2));
        let probe = Control::unlimited();
        neat.run_controlled(&data, Mode::Flow, ErrorPolicy::Strict, &probe)
            .unwrap();
        let ctl = Control::new(
            RunBudget::unlimited().with_max_ops(probe.ops() + 1),
            CancelToken::new(),
        )
        .with_overrun(OverrunMode::Partial);
        let out = neat
            .run_controlled(&data, Mode::Opt, ErrorPolicy::Strict, &ctl)
            .unwrap();
        assert_eq!(out.interrupt, Some(Interrupt::OpBudgetExhausted));
        assert!(matches!(
            out.completeness.phase3,
            crate::control::PhaseStatus::Partial { .. }
        ));
        // Every flow still lands in some cluster (ungrouped ones become
        // singletons) so the outcome remains a valid clustering.
        let flows_in_clusters: usize = out.result.clusters.iter().map(|c| c.flows().len()).sum();
        assert_eq!(flows_in_clusters, out.result.flow_clusters.len());
    }

    #[test]
    fn controlled_run_is_deterministic_for_fixed_arming() {
        use neat_runctl::{CancelToken, Control, RunBudget};
        let net = chain_network(8, 100.0, 10.0);
        let data = two_population_dataset();
        let neat = Neat::new(&net, config(2));
        for armed in [0u64, 2, 5, 11, 40] {
            let run = |armed| {
                let ctl = Control::new(RunBudget::unlimited(), CancelToken::armed_after(armed));
                let out = neat
                    .run_controlled(&data, Mode::Opt, ErrorPolicy::Strict, &ctl)
                    .unwrap();
                fingerprint(&out.result)
            };
            assert_eq!(run(armed), run(armed), "cancel at op {armed} must replay");
        }
    }
}
