//! Reference test for every shortest-path query: the engine against
//! Floyd–Warshall all-pairs distances on small seeded networks, in both
//! travel modes.
//!
//! The grid generator makes no one-way streets, so each case rebuilds
//! its network with a seeded share of segments one-way (in a random
//! orientation). Each case also checks the plain ratio-1.6 grid with a
//! random source and bound, the input of the former one-to-many table
//! property.

use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::path::{ShortestPathEngine, TravelMode};
use neat_rnet::{NodeId, RoadNetwork, RoadNetworkBuilder};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn grid(rows: usize, cols: usize, seed: u64, ratio: f64) -> RoadNetwork {
    let mut cfg = GridNetworkConfig::small_test(rows, cols);
    cfg.segment_ratio = ratio; // low ratios delete edges, even splitting the graph
    generate_grid_network(&cfg, seed)
}

/// `net` with a seeded `share` of its segments made one-way, half of
/// them against the original orientation.
fn with_oneways(net: &RoadNetwork, share: f64, rng: &mut ChaCha8Rng) -> RoadNetwork {
    let mut b = RoadNetworkBuilder::new();
    for node in net.nodes() {
        b.add_node(node.position);
    }
    for s in net.segments() {
        let oneway = rng.gen_bool(share);
        let (from, to) = if oneway && rng.gen_bool(0.5) {
            (s.b, s.a)
        } else {
            (s.a, s.b)
        };
        b.add_segment_detailed(from, to, s.length, s.speed_limit, oneway)
            .unwrap();
    }
    b.build().unwrap()
}

/// All-pairs shortest distances; `INFINITY` where unreachable.
fn floyd_warshall(net: &RoadNetwork, mode: TravelMode) -> Vec<Vec<f64>> {
    let n = net.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for s in net.segments() {
        let (a, b) = (s.a.index(), s.b.index());
        d[a][b] = d[a][b].min(s.length);
        if mode == TravelMode::Undirected || !s.oneway {
            d[b][a] = d[b][a].min(s.length);
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// Equal up to summation order.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

/// `got` is the reference distance `want`, or `None` exactly when
/// `want` exceeds `bound` or is unreachable.
fn check_bounded(got: Option<f64>, want: f64, bound: f64) -> Result<(), TestCaseError> {
    match got {
        Some(d) => {
            prop_assert!(close(d, want), "distance {d}, reference {want}");
            prop_assert!(d <= bound, "distance {d} past the bound {bound}");
        }
        None => prop_assert!(
            want > bound || want.is_infinite() || close(want, bound),
            "missing distance {want} within the bound {bound}"
        ),
    }
    Ok(())
}

/// Every query shape from `src`, in both modes, against Floyd–Warshall.
fn check_all_queries(
    net: &RoadNetwork,
    src: NodeId,
    bound: f64,
    rng: &mut ChaCha8Rng,
) -> Result<(), TestCaseError> {
    let n = net.node_count();
    let inf = f64::INFINITY;
    let mut sp = ShortestPathEngine::new(net);
    for mode in [TravelMode::Directed, TravelMode::Undirected] {
        let reference = floyd_warshall(net, mode);
        let want = &reference[src.index()];

        let all = sp.distances_from(net, src, mode, None).unwrap();
        for (i, (&got, &w)) in all.iter().zip(want).enumerate() {
            prop_assert!(
                got == w || close(got, w),
                "{mode:?} from node {i}: {got} vs {w}"
            );
        }

        // Unbounded A* point queries, which the tables below must equal
        // bit for bit: phase 3 swaps the one for the other.
        let mut point = Vec::with_capacity(n);
        for (i, &w) in want.iter().enumerate() {
            let to = NodeId::new(i);
            let direct = sp.distance(net, src, to, mode, inf, None).unwrap();
            check_bounded(direct, w, inf)?;
            point.push(direct);
            check_bounded(
                sp.distance(net, src, to, mode, bound, None).unwrap(),
                w,
                bound,
            )?;
            if mode == TravelMode::Undirected {
                check_bounded(sp.distance_plain(net, src, to, None).unwrap(), w, inf)?;
            }
            match sp.route(net, src, to, mode, None).unwrap() {
                None => prop_assert!(w.is_infinite(), "{mode:?}: no route to node {i}"),
                Some(route) => {
                    prop_assert!(
                        close(route.length, w),
                        "{mode:?}: route {} vs {w}",
                        route.length
                    );
                    prop_assert!(net.is_route(&route.segments));
                    prop_assert_eq!(route.nodes.first(), Some(&src));
                    prop_assert_eq!(route.nodes.last(), Some(&to));
                    prop_assert_eq!(route.segments.len() + 1, route.nodes.len());
                    let mut sum = 0.0;
                    for (hop, &sid) in route.nodes.windows(2).zip(&route.segments) {
                        let seg = net.segment(sid).unwrap();
                        prop_assert_eq!(seg.other_endpoint(hop[0]), hop[1]);
                        if mode == TravelMode::Directed {
                            prop_assert!(seg.traversable_from(hop[0]), "wrong way on {sid}");
                        }
                        sum += seg.length;
                    }
                    prop_assert!(close(sum, route.length));
                }
            }
        }

        // Without targets every node is answered: present entries equal
        // the one-to-all distances and the point queries bit for bit,
        // absent ones lie past the bound.
        let table = sp
            .distances_within(net, src, mode, bound, None, None)
            .unwrap();
        for (i, &w) in want.iter().enumerate() {
            let got = table.get(NodeId::new(i));
            check_bounded(got, w, bound)?;
            match got {
                Some(d) => {
                    prop_assert_eq!(d.to_bits(), all[i].to_bits());
                    prop_assert_eq!(Some(d.to_bits()), point[i].map(f64::to_bits));
                }
                None => prop_assert!(
                    point[i].is_none_or(|d| d > bound),
                    "{mode:?}: node {i} missing from the table but within the bound"
                ),
            }
        }

        // With targets only the targets are answered, each exactly.
        let targets: Vec<NodeId> = (0..rng.gen_range(0..=n.min(6)))
            .map(|_| NodeId::new(rng.gen_range(0..n)))
            .collect();
        let table = sp
            .distances_within(net, src, mode, bound, Some(&targets), None)
            .unwrap();
        for &t in &targets {
            let got = table.get(t);
            check_bounded(got, want[t.index()], bound)?;
            if let Some(d) = got {
                prop_assert_eq!(d.to_bits(), all[t.index()].to_bits());
                prop_assert_eq!(Some(d.to_bits()), point[t.index()].map(f64::to_bits));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_query_matches_floyd_warshall(seed in 0u64..50,
                                          rows in 3usize..8,
                                          cols in 3usize..8,
                                          ratio in 1.2..2.0f64,
                                          oneway_share in 0.0..0.6f64,
                                          bound in 100.0..900.0f64,
                                          src in 0usize..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((src as u64) << 8));
        let net = with_oneways(&grid(rows, cols, seed, ratio), oneway_share, &mut rng);
        let n = net.node_count();
        prop_assume!(n >= 2);
        check_all_queries(&net, NodeId::new(src % n), bound, &mut rng)?;

        let plain = grid(rows, cols, seed, 1.6);
        let n = plain.node_count();
        check_all_queries(&plain, NodeId::new(src % n), bound, &mut rng)?;
    }
}
