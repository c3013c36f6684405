//! Event-stepped mobility-trace generator (the paper's GTMobiSIM stand-in).
//!
//! Section IV-A of the paper generates its datasets by placing N mobile
//! objects on a road network and simulating each one travelling, under the
//! per-segment speed limits, along the shortest path to a destination
//! chosen from a predefined set. Objects start from a small number of
//! *hotspot* regions (the ATL500 visualisation shows two) and head to one
//! of a few destinations (three, marked with X in Figure 3).
//!
//! [`generate_dataset`] reproduces that generative model deterministically:
//!
//! * `num_hotspots` hotspot centres and `num_destinations` destination
//!   junctions are drawn from the network (seeded),
//! * each object starts at a random junction within `hotspot_radius_m`
//!   *network* distance of a hotspot centre,
//! * it follows the shortest (directed) path to a random destination at a
//!   per-object fraction of the speed limit,
//! * its position is sampled every `sample_period_s` seconds as a
//!   map-matched [`RoadLocation`] (segment id + coordinates + timestamp).
//!
//! [`presets`] scales the simulation to the paper's fifteen datasets
//! ({ATL, SJ, MIA} × {500, 1000, 2000, 3000, 5000}, Table II).

pub mod faults;
pub mod noise;
pub mod presets;

use neat_rnet::path::TravelMode;
use neat_rnet::{NodeId, RoadLocation, RoadNetwork, ShortestPathEngine};
use neat_traj::{Dataset, Trajectory, TrajectoryId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of mobile objects (each produces one trajectory).
    pub num_objects: usize,
    /// Number of hotspot start regions.
    pub num_hotspots: usize,
    /// Number of destination junctions.
    pub num_destinations: usize,
    /// Network radius (metres) of each hotspot region; objects start at a
    /// random junction within this distance of the hotspot centre.
    pub hotspot_radius_m: f64,
    /// GPS sampling period in seconds.
    pub sample_period_s: f64,
    /// Per-object speed factor range `(lo, hi)` relative to the speed
    /// limit (objects travel *under* the limit, as in the paper).
    pub speed_factor: (f64, f64),
    /// Departure times are staggered uniformly over this window (seconds).
    pub start_window_s: f64,
    /// First trajectory id to assign (ids are consecutive from here).
    /// Lets multiple batches on the same network keep globally unique ids.
    pub first_trajectory_id: u64,
    /// How objects choose their route: shortest distance (the paper's
    /// setting) or fastest free-flow travel time.
    pub route_by: neat_rnet::path::CostModel,
    /// Probability that any interior GPS sample is dropped (signal loss).
    /// The first and last samples of a trip always survive. Dropout
    /// produces the non-contiguous consecutive samples whose repair the
    /// paper delegates to the map-matching approach of \[14\]. It draws
    /// from its own seeded stream, so a thinned dataset holds the same
    /// trips as the full one, minus interior samples.
    pub sample_dropout: f64,
    /// Trips per object. The paper's datasets use one trip per object;
    /// with more, each object chains trips (next origin = last
    /// destination, dwell `trip_dwell_s` between them), each trip forming
    /// its own trajectory exactly as Section II-B defines.
    pub trips_per_object: usize,
    /// Dwell time between chained trips, in seconds.
    pub trip_dwell_s: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_objects: 100,
            num_hotspots: 2,
            num_destinations: 3,
            hotspot_radius_m: 600.0,
            sample_period_s: 3.0,
            speed_factor: (0.75, 1.0),
            start_window_s: 300.0,
            first_trajectory_id: 0,
            route_by: neat_rnet::path::CostModel::Distance,
            sample_dropout: 0.0,
            trips_per_object: 1,
            trip_dwell_s: 120.0,
        }
    }
}

/// Generates a mobility-trace dataset on `net`.
///
/// Fully deterministic for a given `(net, config, seed)` triple. Objects
/// whose origin equals their destination, or whose destination is
/// unreachable, are re-drawn (up to a bounded number of attempts), so the
/// returned dataset normally holds exactly `config.num_objects`
/// trajectories.
///
/// # Panics
///
/// Panics if the network has no junctions or `sample_period_s ≤ 0`.
pub fn generate_dataset(
    net: &RoadNetwork,
    config: &SimConfig,
    seed: u64,
    name: impl Into<String>,
) -> Dataset {
    generate_dataset_labeled(net, config, seed, name).0
}

/// Ground-truth label of a trajectory: the origin→destination pair whose
/// shortest path the object followed. Trajectories with equal labels
/// travelled the exact same route.
pub type RouteLabel = (NodeId, NodeId);

/// Full ground truth of a simulation run: per-trajectory route labels
/// plus the generating structure (hotspot centres and destinations), so
/// evaluations can score at either granularity — exact route or macro
/// origin-region→destination class.
#[derive(Debug, Clone, PartialEq)]
pub struct SimGroundTruth {
    /// Exact (origin, destination) route of each trajectory.
    pub labels: HashMap<TrajectoryId, RouteLabel>,
    /// Hotspot centre junctions, in draw order.
    pub hotspots: Vec<NodeId>,
    /// Junctions within the hotspot radius of each centre (same order as
    /// `hotspots`).
    pub hotspot_members: Vec<Vec<NodeId>>,
    /// Destination junctions, in draw order.
    pub destinations: Vec<NodeId>,
}

impl SimGroundTruth {
    /// Macro class of a trajectory: (index of the hotspot region its
    /// origin belongs to, index of its destination). Trajectories whose
    /// origin is in no hotspot ball (chained trips start at previous
    /// destinations) get the hotspot slot `usize::MAX`.
    pub fn macro_class(&self, tr: TrajectoryId) -> Option<(usize, usize)> {
        let (origin, dest) = *self.labels.get(&tr)?;
        let h = self
            .hotspot_members
            .iter()
            .position(|m| m.contains(&origin))
            .unwrap_or(usize::MAX);
        let d = self
            .destinations
            .iter()
            .position(|&x| x == dest)
            .unwrap_or(usize::MAX);
        Some((h, d))
    }
}

/// Like [`generate_dataset`], but also returns the full
/// [`SimGroundTruth`] — the basis for external cluster-quality evaluation
/// (the simulator knows which trips genuinely belong together).
///
/// # Panics
///
/// Same as [`generate_dataset`].
pub fn generate_dataset_labeled(
    net: &RoadNetwork,
    config: &SimConfig,
    seed: u64,
    name: impl Into<String>,
) -> (Dataset, SimGroundTruth) {
    assert!(net.node_count() > 0, "network has no junctions");
    assert!(
        config.sample_period_s > 0.0,
        "sample period must be positive"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut dropout_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD0_0D_5A_3E);
    let mut engine = ShortestPathEngine::new(net);

    // Draw hotspot centres and destinations (distinct junctions).
    let mut all_nodes: Vec<NodeId> = (0..net.node_count()).map(NodeId::new).collect();
    all_nodes.shuffle(&mut rng);
    let hotspots: Vec<NodeId> = all_nodes
        .iter()
        .take(config.num_hotspots)
        .copied()
        .collect();
    let destinations: Vec<NodeId> = all_nodes
        .iter()
        .skip(config.num_hotspots)
        .take(config.num_destinations)
        .copied()
        .collect();

    // Junctions within network radius of each hotspot centre.
    let mut hotspot_members: Vec<Vec<NodeId>> = Vec::with_capacity(hotspots.len());
    for &h in &hotspots {
        // Never interrupted: no control is attached.
        let dist = engine
            .distances_from(net, h, TravelMode::Undirected, None)
            .unwrap_or_default();
        let mut members: Vec<NodeId> = dist
            .iter()
            .enumerate()
            .filter(|(_, d)| **d <= config.hotspot_radius_m)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        if members.is_empty() {
            members.push(h);
        }
        hotspot_members.push(members);
    }

    // Route cache: start-hotspot regions are small and destinations few,
    // so most objects share (origin, destination) pairs.
    let mut route_cache: HashMap<(NodeId, NodeId), Option<neat_rnet::path::Route>> = HashMap::new();

    let mut dataset = Dataset::new(name);
    let mut labels: HashMap<TrajectoryId, RouteLabel> = HashMap::new();
    let mut next_id = config.first_trajectory_id;
    let trips = config.trips_per_object.max(1);
    for _ in 0..config.num_objects {
        // The object's first trip starts in a hotspot; chained trips start
        // where the previous one ended.
        let mut chain_origin: Option<NodeId> = None;
        let mut chain_time = 0.0f64;
        for trip in 0..trips {
            let mut placed = false;
            for _attempt in 0..16 {
                let origin = match chain_origin {
                    Some(o) => o,
                    None => {
                        let members = &hotspot_members[rng.gen_range(0..hotspot_members.len())];
                        members[rng.gen_range(0..members.len())]
                    }
                };
                let dest = if destinations.is_empty() {
                    all_nodes[rng.gen_range(0..all_nodes.len())]
                } else {
                    destinations[rng.gen_range(0..destinations.len())]
                };
                if origin == dest {
                    continue;
                }
                let route = route_cache
                    .entry((origin, dest))
                    .or_insert_with(|| match config.route_by {
                        neat_rnet::path::CostModel::Distance => {
                            // Never interrupted: no control is attached.
                            engine
                                .route(net, origin, dest, TravelMode::Directed, None)
                                .unwrap_or(None)
                        }
                        neat_rnet::path::CostModel::TravelTime => engine
                            .fastest_route(net, origin, dest, TravelMode::Directed)
                            .map(|(r, _)| r),
                    })
                    .clone();
                let route = match route {
                    Some(r) if !r.segments.is_empty() => r,
                    _ => continue,
                };
                let factor = rng.gen_range(config.speed_factor.0..=config.speed_factor.1);
                let start = if trip == 0 {
                    rng.gen_range(0.0..=config.start_window_s.max(f64::MIN_POSITIVE))
                } else {
                    chain_time + config.trip_dwell_s
                };
                let mut points = sample_route(net, &route, factor, start, config.sample_period_s);
                if config.sample_dropout > 0.0 && points.len() > 2 {
                    let last = points.len() - 1;
                    points = points
                        .into_iter()
                        .enumerate()
                        .filter(|(i, _)| {
                            *i == 0
                                || *i == last
                                || dropout_rng.gen_range(0.0..1.0) >= config.sample_dropout
                        })
                        .map(|(_, p)| p)
                        .collect();
                }
                if points.len() >= 2 {
                    chain_origin = Some(dest);
                    chain_time = points.last().expect("non-empty").time; // lint:allow(L1) reason=points.len() >= 2 checked by the enclosing branch
                    labels.insert(TrajectoryId::new(next_id), (origin, dest));
                    dataset.push(
                        Trajectory::new(TrajectoryId::new(next_id), points)
                            .expect("sampled points are time-ordered"), // lint:allow(L1) reason=the simulator emits strictly increasing sample times
                    );
                    next_id += 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Pathological configs (e.g. 1-node networks) may fail
                // placement after all attempts; remaining trips of this
                // object are skipped rather than looping forever.
                break;
            }
        }
    }
    (
        dataset,
        SimGroundTruth {
            labels,
            hotspots,
            hotspot_members,
            destinations,
        },
    )
}

/// Samples an object's motion along `route` every `dt` seconds.
///
/// The object moves at `factor × speed_limit` on every segment. The
/// destination arrival point is always emitted as the final sample.
fn sample_route(
    net: &RoadNetwork,
    route: &neat_rnet::path::Route,
    factor: f64,
    start_time: f64,
    dt: f64,
) -> Vec<RoadLocation> {
    // Per-segment (start time, duration) pairs.
    let mut seg_times = Vec::with_capacity(route.segments.len());
    let mut total_time = 0.0;
    for &sid in &route.segments {
        let seg = net.segment(sid).expect("route segment exists"); // lint:allow(L1) reason=route segments come from this network's own router
        let t = seg.length / (seg.speed_limit * factor);
        seg_times.push((total_time, t));
        total_time += t;
    }

    let mut points = Vec::new();
    let mut seg_idx = 0usize;
    let mut elapsed = 0.0f64;
    loop {
        while seg_idx + 1 < route.segments.len()
            && elapsed >= seg_times[seg_idx].0 + seg_times[seg_idx].1
        {
            seg_idx += 1;
        }
        let clamped = elapsed.min(total_time);
        let (seg_start, seg_dur) = seg_times[seg_idx];
        let frac = ((clamped - seg_start) / seg_dur).clamp(0.0, 1.0);
        let sid = route.segments[seg_idx];
        let a = net.position(route.nodes[seg_idx]);
        let b = net.position(route.nodes[seg_idx + 1]);
        points.push(RoadLocation::new(
            sid,
            a.lerp(b, frac),
            start_time + clamped,
        ));
        if elapsed >= total_time {
            break;
        }
        elapsed += dt;
        if elapsed > total_time {
            elapsed = total_time;
        }
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};

    fn small_net() -> RoadNetwork {
        generate_grid_network(&GridNetworkConfig::small_test(10, 10), 1)
    }

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            num_objects: n,
            ..SimConfig::default()
        }
    }

    #[test]
    fn generates_requested_object_count() {
        let net = small_net();
        let d = generate_dataset(&net, &cfg(25), 7, "t");
        assert_eq!(d.len(), 25);
        assert!(d.validate_unique_ids().is_ok());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let net = small_net();
        let a = generate_dataset(&net, &cfg(10), 3, "a");
        let b = generate_dataset(&net, &cfg(10), 3, "b");
        assert_eq!(a.trajectories(), b.trajectories());
        let c = generate_dataset(&net, &cfg(10), 4, "c");
        assert_ne!(a.trajectories(), c.trajectories());
    }

    #[test]
    fn samples_are_time_ordered_and_on_route_segments() {
        let net = small_net();
        let d = generate_dataset(&net, &cfg(10), 5, "t");
        for tr in d.trajectories() {
            for w in tr.points().windows(2) {
                assert!(w[1].time >= w[0].time);
            }
            for p in tr.points() {
                let seg = net.segment(p.segment).unwrap();
                let a = net.position(seg.a);
                let b = net.position(seg.b);
                let d = neat_rnet::geometry::point_segment_distance(p.position, a, b);
                assert!(d < 1e-6, "sample {p} off its segment by {d}");
            }
        }
    }

    #[test]
    fn consecutive_samples_on_same_or_nearby_segments() {
        let net = small_net();
        let d = generate_dataset(&net, &cfg(10), 11, "t");
        for tr in d.trajectories() {
            for w in tr.points().windows(2) {
                if w[0].segment != w[1].segment {
                    // Shortest-path routes are contiguous, but sampling may
                    // skip a short segment entirely between two ticks —
                    // verify the two segments are within one hop.
                    let s0 = net.segment(w[0].segment).unwrap();
                    let s1 = net.segment(w[1].segment).unwrap();
                    let direct = net.intersection_of(s0.id, s1.id).is_some();
                    let one_hop = net
                        .adjacent_segments(s0.id)
                        .iter()
                        .any(|&m| net.intersection_of(m, s1.id).is_some());
                    assert!(direct || one_hop);
                }
            }
        }
    }

    #[test]
    fn speed_respects_limit() {
        let net = small_net();
        let d = generate_dataset(&net, &cfg(20), 13, "t");
        let max_limit = net.segments().map(|s| s.speed_limit).fold(0.0f64, f64::max);
        for tr in d.trajectories() {
            for w in tr.points().windows(2) {
                let dt = w[1].time - w[0].time;
                if dt > 1e-9 {
                    let v = w[0].position.distance(w[1].position) / dt;
                    // Straight-line speed can never exceed the max limit.
                    assert!(v <= max_limit * 1.001, "speed {v} over limit");
                }
            }
        }
    }

    #[test]
    fn trajectories_end_at_destinations() {
        let net = small_net();
        let config = cfg(30);
        let d = generate_dataset(&net, &config, 17, "t");
        // Final samples coincide with destination junctions, so there are
        // at most `num_destinations` distinct final positions.
        let mut finals: Vec<(i64, i64)> = d
            .trajectories()
            .iter()
            .map(|t| {
                let p = t.last().position;
                ((p.x * 1000.0) as i64, (p.y * 1000.0) as i64)
            })
            .collect();
        finals.sort();
        finals.dedup();
        assert!(finals.len() <= config.num_destinations);
    }

    #[test]
    fn sampling_period_controls_point_count() {
        let net = small_net();
        let mut fast = cfg(10);
        fast.sample_period_s = 1.0;
        let mut slow = cfg(10);
        slow.sample_period_s = 10.0;
        let df = generate_dataset(&net, &fast, 23, "f");
        let ds = generate_dataset(&net, &slow, 23, "s");
        assert!(df.total_points() > ds.total_points());
    }

    #[test]
    fn labels_cover_every_trajectory_and_group_same_routes() {
        let net = small_net();
        let (d, gt) = generate_dataset_labeled(&net, &cfg(30), 7, "lab");
        let labels = &gt.labels;
        assert_eq!(labels.len(), d.len());
        assert_eq!(gt.hotspots.len(), 2);
        assert_eq!(gt.destinations.len(), 3);
        // Every first-trip origin belongs to a hotspot ball.
        for tr in d.trajectories() {
            assert!(gt.macro_class(tr.id()).is_some());
        }
        // Same-label trajectories follow the same segment sequence.
        let mut by_label: std::collections::HashMap<_, Vec<_>> = std::collections::HashMap::new();
        for tr in d.trajectories() {
            by_label
                .entry(labels[&tr.id()])
                .or_default()
                .push(tr.segment_sequence());
        }
        for (_, seqs) in by_label {
            for w in seqs.windows(2) {
                // Sampling cadence may skip different short segments, but
                // first and last segments of the shared route agree.
                assert_eq!(w[0].first(), w[1].first());
                assert_eq!(w[0].last(), w[1].last());
            }
        }
        // Labeled and unlabeled generation agree (same RNG stream).
        let plain = generate_dataset(&net, &cfg(30), 7, "lab");
        assert_eq!(plain.trajectories(), d.trajectories());
    }

    #[test]
    fn dropout_thins_samples_but_keeps_endpoints() {
        let net = small_net();
        let full = generate_dataset(&net, &cfg(15), 3, "full");
        let mut c = cfg(15);
        c.sample_dropout = 0.5;
        let thin = generate_dataset(&net, &c, 3, "thin");
        assert_eq!(thin.len(), full.len());
        assert!(thin.total_points() < full.total_points());
        // Thinning only removes interior samples of the same trips.
        for (t, f) in thin.trajectories().iter().zip(full.trajectories()) {
            assert_eq!(t.id(), f.id());
            assert!(t.len() >= 2);
            assert_eq!(t.points().first(), f.points().first());
            assert_eq!(t.points().last(), f.points().last());
            assert!(t.points().iter().all(|p| f.points().contains(p)));
        }
    }

    #[test]
    fn trip_chaining_multiplies_trajectories() {
        let net = small_net();
        let mut c = cfg(8);
        c.trips_per_object = 3;
        let d = generate_dataset(&net, &c, 19, "chain");
        assert_eq!(d.len(), 24);
        assert!(d.validate_unique_ids().is_ok());
    }

    #[test]
    fn chained_trips_connect_in_space_and_time() {
        let net = small_net();
        let mut c = cfg(4);
        c.trips_per_object = 2;
        c.trip_dwell_s = 60.0;
        let d = generate_dataset(&net, &c, 23, "chain2");
        // Trips come out in object order: (t0, t1) of object 0, then
        // object 1, … Each second trip starts where the first ended and
        // after the dwell.
        for pair in d.trajectories().chunks(2) {
            if pair.len() < 2 {
                continue;
            }
            let (a, b) = (&pair[0], &pair[1]);
            assert!(b.first().time >= a.last().time + 60.0 - 1e-9);
            assert!(
                a.last().position.distance(b.first().position) < 1e-6,
                "second trip must start at the first trip's destination"
            );
        }
    }

    #[test]
    fn time_routing_changes_or_preserves_routes_validly() {
        let net = small_net();
        let mut cfg_time = cfg(10);
        cfg_time.route_by = neat_rnet::path::CostModel::TravelTime;
        let d = generate_dataset(&net, &cfg_time, 5, "t");
        assert_eq!(d.len(), 10);
        // Same invariants as distance routing: time-ordered, on-network.
        for tr in d.trajectories() {
            for w in tr.points().windows(2) {
                assert!(w[1].time >= w[0].time);
            }
        }
    }

    #[test]
    #[should_panic(expected = "sample period")]
    fn zero_period_panics() {
        let net = small_net();
        let mut c = cfg(1);
        c.sample_period_s = 0.0;
        let _ = generate_dataset(&net, &c, 0, "x");
    }
}
