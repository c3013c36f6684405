//! Cross-crate property-based tests (proptest) on the core invariants the
//! paper's algorithms rely on.

use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::evaluation::pairwise_scores;
use neat_repro::neat::phase1::{form_base_clusters_parallel_with_policy, Phase1Output};
use neat_repro::neat::phase2::form_flow_clusters;
use neat_repro::neat::phase3::refine_flow_clusters;
use neat_repro::neat::{ErrorPolicy, NeatConfig, NeatError};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_repro::rnet::path::TravelMode;
use neat_repro::rnet::RoadNetwork;
use neat_repro::rnet::{NodeId, ShortestPathEngine};
use neat_repro::traj::Dataset;
use proptest::prelude::*;
use std::collections::HashMap;

fn small_net(seed: u64) -> neat_repro::rnet::RoadNetwork {
    let mut cfg = GridNetworkConfig::small_test(8, 8);
    cfg.segment_ratio = 1.5;
    generate_grid_network(&cfg, seed)
}

/// Phase 1 on one thread under the strict policy.
fn phase1(net: &RoadNetwork, data: &Dataset, junctions: bool) -> Result<Phase1Output, NeatError> {
    form_base_clusters_parallel_with_policy(net, data, junctions, 1, ErrorPolicy::Strict)
        .map(|(out, _)| out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ELB soundness (Section III-C3): the Euclidean distance never
    /// exceeds the network distance, for any node pair on any generated
    /// network.
    #[test]
    fn prop_euclidean_lower_bound(seed in 0u64..50, a in 0usize..64, b in 0usize..64) {
        let net = small_net(seed);
        let (a, b) = (NodeId::new(a % net.node_count()), NodeId::new(b % net.node_count()));
        let mut sp = ShortestPathEngine::new(&net);
        if let Ok(Some(dn)) = sp.distance(&net, a, b, TravelMode::Undirected, f64::INFINITY, None) {
            let de = net.euclidean_distance(a, b);
            prop_assert!(de <= dn + 1e-6, "ELB violated: dE={de} dN={dn}");
        }
    }

    /// Shortest-path metric properties on the undirected network:
    /// symmetry and the triangle inequality.
    #[test]
    fn prop_network_distance_is_a_metric(seed in 0u64..20,
                                         a in 0usize..64, b in 0usize..64, c in 0usize..64) {
        let net = small_net(seed);
        let n = net.node_count();
        let (a, b, c) = (NodeId::new(a % n), NodeId::new(b % n), NodeId::new(c % n));
        let mut sp = ShortestPathEngine::new(&net);
        let d = |sp: &mut ShortestPathEngine, x, y| {
            sp.distance(&net, x, y, TravelMode::Undirected, f64::INFINITY, None).unwrap()
        };
        let (ab, ba) = (d(&mut sp, a, b), d(&mut sp, b, a));
        prop_assert_eq!(ab.is_some(), ba.is_some());
        if let (Some(ab), Some(ba)) = (ab, ba) {
            prop_assert!((ab - ba).abs() < 1e-6, "asymmetric: {ab} vs {ba}");
        }
        if let (Some(ab), Some(bc), Some(ac)) =
            (d(&mut sp, a, b), d(&mut sp, b, c), d(&mut sp, a, c)) {
            prop_assert!(ac <= ab + bc + 1e-6, "triangle violated");
        }
    }

    /// Shortest-path routes are valid routes whose segment lengths sum to
    /// the reported distance.
    #[test]
    fn prop_routes_are_consistent(seed in 0u64..20, a in 0usize..64, b in 0usize..64) {
        let net = small_net(seed);
        let n = net.node_count();
        let (a, b) = (NodeId::new(a % n), NodeId::new(b % n));
        let mut sp = ShortestPathEngine::new(&net);
        if let Ok(Some(route)) = sp.route(&net, a, b, TravelMode::Undirected, None) {
            prop_assert!(net.is_route(&route.segments));
            let sum: f64 = route
                .segments
                .iter()
                .map(|&s| net.segment(s).unwrap().length)
                .sum();
            prop_assert!((sum - route.length).abs() < 1e-6);
            prop_assert_eq!(route.nodes.first(), Some(&a));
            prop_assert_eq!(route.nodes.last(), Some(&b));
        }
    }

    /// Phase 1 invariants hold on arbitrary simulated traffic: fragments
    /// partition points; every t-fragment lands in exactly one base
    /// cluster; netflow is bounded by both cardinalities.
    #[test]
    fn prop_phase1_invariants(seed in 0u64..12, objects in 5usize..40) {
        let net = small_net(seed);
        let data = generate_dataset(&net, &SimConfig {
            num_objects: objects,
            ..SimConfig::default()
        }, seed.wrapping_add(1), "prop");
        let out = phase1(&net, &data, true).unwrap();
        let total: usize = out.base_clusters.iter().map(|c| c.density()).sum();
        prop_assert_eq!(total, out.fragment_count);
        for (i, x) in out.base_clusters.iter().enumerate() {
            for y in out.base_clusters.iter().skip(i + 1) {
                let f = x.netflow(y);
                prop_assert!(f <= x.trajectory_cardinality().min(y.trajectory_cardinality()));
                prop_assert_ne!(x.segment(), y.segment());
            }
        }
    }

    /// Phase 2 invariants: every base cluster lands in exactly one flow
    /// (counting discarded flows), flows are routes, and participating
    /// trajectories are the union of the members'.
    #[test]
    fn prop_phase2_invariants(seed in 0u64..12, objects in 5usize..40, min_card in 1usize..6) {
        let net = small_net(seed);
        let data = generate_dataset(&net, &SimConfig {
            num_objects: objects,
            ..SimConfig::default()
        }, seed.wrapping_add(1), "prop");
        let p1 = phase1(&net, &data, true).unwrap();
        let n_base = p1.base_clusters.len();
        let config = NeatConfig { min_card, ..NeatConfig::default() };
        let p2 = form_flow_clusters(&net, p1.base_clusters, &config).unwrap();
        let placed: usize = p2.flow_clusters.iter().map(|f| f.members().len()).sum();
        prop_assert!(placed <= n_base);
        for f in &p2.flow_clusters {
            prop_assert!(net.is_route(&f.route()));
            prop_assert!(f.trajectory_cardinality() >= min_card);
            let union: std::collections::BTreeSet<_> = f
                .members()
                .iter()
                .flat_map(|m| m.participating_trajectories().iter().copied())
                .collect();
            let union: Vec<_> = union.into_iter().collect();
            prop_assert_eq!(union.as_slice(), f.participating_trajectories());
        }
    }

    /// Evaluation-metric sanity on random labelings: bounded scores,
    /// permutation invariance, and perfection on self-comparison.
    #[test]
    fn prop_pairwise_scores_are_sane(
        labels in proptest::collection::vec((0usize..5, 0usize..5), 2..60),
        offset in 1usize..99,
    ) {
        let truth: HashMap<u64, usize> =
            labels.iter().enumerate().map(|(i, &(t, _))| (i as u64, t)).collect();
        let pred: HashMap<u64, usize> =
            labels.iter().enumerate().map(|(i, &(_, p))| (i as u64, p)).collect();
        let s = pairwise_scores(&truth, &pred);
        prop_assert!((0.0..=1.0).contains(&s.precision));
        prop_assert!((0.0..=1.0).contains(&s.recall));
        prop_assert!((0.0..=1.0).contains(&s.f1));
        prop_assert!((0.0..=1.0).contains(&s.rand_index));
        prop_assert!(s.adjusted_rand <= 1.0 + 1e-9);
        // Relabelling predicted clusters changes nothing.
        let renamed: HashMap<u64, usize> =
            pred.iter().map(|(&k, &v)| (k, v + offset)).collect();
        let s2 = pairwise_scores(&truth, &renamed);
        prop_assert!((s.f1 - s2.f1).abs() < 1e-12);
        prop_assert!((s.adjusted_rand - s2.adjusted_rand).abs() < 1e-12);
        // Self-comparison is perfect.
        let selfs = pairwise_scores(&truth, &truth);
        prop_assert!((selfs.rand_index - 1.0).abs() < 1e-12);
    }

    /// Phase 3 invariants: output clusters partition the input flows and
    /// every flow appears exactly once, for any epsilon.
    #[test]
    fn prop_phase3_partitions_flows(seed in 0u64..12, objects in 10usize..40,
                                    eps in 10.0f64..2000.0) {
        let net = small_net(seed);
        let data = generate_dataset(&net, &SimConfig {
            num_objects: objects,
            ..SimConfig::default()
        }, seed.wrapping_add(1), "prop");
        let p1 = phase1(&net, &data, true).unwrap();
        let config = NeatConfig { min_card: 1, epsilon: eps, ..NeatConfig::default() };
        let p2 = form_flow_clusters(&net, p1.base_clusters, &config).unwrap();
        let n_flows = p2.flow_clusters.len();
        let p3 = refine_flow_clusters(&net, p2.flow_clusters, &config).unwrap();
        let total: usize = p3.clusters.iter().map(|c| c.flows().len()).sum();
        prop_assert_eq!(total, n_flows);
    }
}
