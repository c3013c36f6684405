//! NEAT — road-network-aware trajectory clustering (ICDCS 2012).
//!
//! This crate implements the paper's three-phase clustering framework:
//!
//! 1. **Base cluster formation** ([`phase1`]): trajectories are split at
//!    road junctions into *t-fragments*; fragments on the same road segment
//!    form a *base cluster*; clusters are density-sorted.
//! 2. **Flow cluster formation** ([`phase2`]): starting from the
//!    dense-core, base clusters are merged along the road network into
//!    *flow clusters* by maximising the merging selectivity
//!    `SF = wq·q + wk·k + wv·v` over each end's f-neighbourhood, with a
//!    netflow-domination restart rule (threshold β) and a minimum
//!    trajectory-cardinality filter.
//! 3. **Flow cluster refinement** ([`phase3`]): flow clusters whose
//!    endpoint-based modified Hausdorff *network* distance is within ε are
//!    merged by a deterministic DBSCAN adaptation, using the Euclidean
//!    lower bound (ELB) to skip shortest-path computations.
//!
//! The three user-facing pipeline versions of the paper — `base-NEAT`,
//! `flow-NEAT` and `opt-NEAT` — are selected with [`Mode`] and run through
//! [`Neat`]:
//!
//! ```
//! use neat_core::{Mode, Neat, NeatConfig};
//! use neat_rnet::netgen::chain_network;
//! use neat_rnet::{RoadLocation, SegmentId, Point};
//! use neat_traj::{Dataset, Trajectory, TrajectoryId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = chain_network(4, 100.0, 13.9);
//! let mut data = Dataset::new("demo");
//! for id in 0..3 {
//!     let pts = (0..3).map(|i| RoadLocation::new(
//!         SegmentId::new(i), Point::new(i as f64 * 100.0 + 50.0, 0.0), i as f64 * 10.0,
//!     )).collect();
//!     data.push(Trajectory::new(TrajectoryId::new(id), pts)?);
//! }
//! let config = NeatConfig { min_card: 2, ..NeatConfig::default() };
//! let result = Neat::new(&net, config).run(&data, Mode::Opt)?;
//! assert_eq!(result.flow_clusters.len(), 1); // one shared flow
//! # Ok(())
//! # }
//! ```

pub mod analysis;
pub mod checkpoint;
pub mod config;
pub mod control;
pub mod error;
pub mod evaluation;
pub mod incremental;
pub mod model;
pub mod phase1;
pub mod phase2;
pub mod phase3;
pub mod pipeline;
pub mod query;
pub mod retention;

pub use analysis::{ClusterStatistics, DirectionSplit, FlowStatistics};
pub use checkpoint::{
    config_hash, network_fingerprint, CheckpointError, CheckpointStore, ResumeReport,
    CHECKPOINT_VERSION,
};
pub use config::{NeatConfig, RouteDistance, SpStrategy, Weights};
pub use control::{Completeness, Degradation, DegradationStep, Outcome, PhaseStatus};
pub use error::NeatError;
pub use evaluation::{assign_trajectories, pairwise_scores, PairwiseScores};
pub use incremental::{IncrementalNeat, IngestOutcome};
pub use model::{BaseCluster, FlowCluster, TrajectoryCluster};
pub use neat_traj::sanitize::ErrorPolicy;
pub use phase1::ResilienceCounters;
pub use phase2::MergeEvent;
pub use phase3::Phase3Stats;
pub use pipeline::{Mode, Neat, NeatResult, PhaseTimings};
pub use query::{FlowHit, FlowIndex};
pub use retention::{diff_drift, DriftCounts, DriftEvent, ExpiryOutcome};
