//! Road-network substrate for the NEAT trajectory-clustering reproduction.
//!
//! This crate provides the road-network reference model of Section II-A of
//! *NEAT: Road Network Aware Trajectory Clustering* (ICDCS 2012):
//!
//! * a directed road-network graph of junction nodes and road segments
//!   ([`RoadNetwork`], [`Segment`], [`graph`]),
//! * road-network locations `(sid, x, y, t)` and offset arithmetic
//!   ([`location`]),
//! * one shortest-path engine (Dijkstra and A* over a single search loop)
//!   used by the simulator, NEAT Phase 1 gap repair and Phase 3
//!   ([`path`]), plus ALT landmark lower bounds for Phase 3 ([`alt`]),
//! * a uniform-grid spatial index for nearest-segment queries ([`index`]),
//! * seeded synthetic network generators calibrated to the paper's three
//!   real maps — North-West Atlanta, West San Jose and Miami-Dade
//!   ([`netgen`]).
//!
//! # Example
//!
//! ```
//! use neat_rnet::netgen::{GridNetworkConfig, generate_grid_network};
//!
//! let net = generate_grid_network(&GridNetworkConfig::small_test(7, 7), 42);
//! assert!(net.node_count() >= 45);
//! let stats = net.stats();
//! assert!(stats.avg_degree > 2.0);
//! ```

pub mod alt;
pub mod error;
pub mod geometry;
pub mod graph;
pub mod ids;
pub mod index;
pub mod io;
pub mod location;
pub mod netgen;
pub mod path;

pub use error::RnetError;
pub use geometry::Point;
pub use graph::{NetworkStats, RoadNetwork, RoadNetworkBuilder, Segment};
pub use ids::{NodeId, SegmentId};
pub use index::{GridScratch, SegmentIndex};
pub use location::RoadLocation;
pub use path::{Route, ShortestPathEngine};
