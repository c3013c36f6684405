//! Phase 2 reproduces recorded merge traces at finite and infinite β.
//!
//! Every golden and determinism configuration runs β = +∞, where the
//! β-domination branch of Section III-B2 never fires. These digests pin
//! the full traced run at β ∈ {1, 1.5, 3, ∞}: every `MergeEvent` (seeds,
//! domination restarts, merges with their selectivities, finish
//! verdicts), then every kept flow and the discard count. They were
//! recorded from the phase-2 body that kept its f-neighbourhood as pool
//! slot indices.
//!
//! The base clusters come from seeded random walks on a small grid, so
//! junctions see several candidate segments with overlapping netflows.

use neat_core::phase2::{form_flow_clusters_traced, MergeEvent};
use neat_core::{BaseCluster, NeatConfig, Weights};
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::{NodeId, Point, RoadLocation, RoadNetwork, SegmentId};
use neat_traj::{TFragment, TrajectoryId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn net() -> RoadNetwork {
    generate_grid_network(&GridNetworkConfig::small_test(6, 6), 11)
}

fn frag(tr: u64, seg: SegmentId) -> TFragment {
    let loc = RoadLocation::new(seg, Point::new(0.0, 0.0), 0.0);
    TFragment {
        trajectory: TrajectoryId::new(tr),
        segment: seg,
        first: loc,
        last: loc,
        point_count: 2,
    }
}

/// One step of a random walk: a segment adjacent to `seg` at `at`,
/// with its far endpoint, or `None` at a dead end.
fn step(
    net: &RoadNetwork,
    rng: &mut ChaCha8Rng,
    seg: SegmentId,
    at: NodeId,
) -> Option<(SegmentId, NodeId)> {
    let next = net.adjacent_segments_at(seg, at);
    if next.is_empty() {
        return None;
    }
    let seg = next[rng.gen_range(0..next.len())];
    Some((seg, net.segment(seg).unwrap().other_endpoint(at)))
}

/// Base clusters of `n` seeded trajectories, sorted by density
/// (descending) then segment id like phase 1's output. Each trajectory
/// follows a window of one of six fixed random routes, then wanders off
/// for up to three random segments: routes carry heavy shared flow, and
/// where two routes cross, the wanderers add thin flow between them, so
/// a heavy pair of f-neighbours can dominate an end's maxFlow.
fn bases(net: &RoadNetwork, n: u64) -> Vec<BaseCluster> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let segs = net.segment_count();
    let routes: Vec<Vec<(SegmentId, NodeId)>> = (0..6)
        .map(|_| {
            let seg = SegmentId::new(rng.gen_range(0..segs));
            let mut route = vec![(seg, net.segment(seg).unwrap().b)];
            while route.len() < 9 {
                let &(seg, at) = route.last().unwrap();
                match step(net, &mut rng, seg, at) {
                    Some(next) => route.push(next),
                    None => break,
                }
            }
            route
        })
        .collect();
    let mut by_segment: BTreeMap<SegmentId, Vec<TFragment>> = BTreeMap::new();
    for tr in 0..n {
        let route = &routes[rng.gen_range(0..routes.len())];
        let from = rng.gen_range(0..route.len() - 1);
        let to = rng.gen_range(from + 1..=route.len());
        let mut walk = route[from..to].to_vec();
        for _ in 0..rng.gen_range(0..4usize) {
            let &(seg, at) = walk.last().unwrap();
            match step(net, &mut rng, seg, at) {
                Some(next) => walk.push(next),
                None => break,
            }
        }
        for (i, &(seg, _)) in walk.iter().enumerate() {
            by_segment.entry(seg).or_default().push(frag(tr, seg));
            if i > 0 && rng.gen_bool(0.1) {
                // A revisit: a second fragment of the same trajectory.
                by_segment.entry(seg).or_default().push(frag(tr, seg));
            }
        }
    }
    let mut out: Vec<BaseCluster> = by_segment
        .into_iter()
        .map(|(seg, frags)| BaseCluster::new(seg, frags).unwrap())
        .collect();
    out.sort_by(|a, b| {
        b.density()
            .cmp(&a.density())
            .then_with(|| a.segment().cmp(&b.segment()))
    });
    out
}

/// The recorded configurations: each β under balanced weights, plus
/// flow-only weights (Definition 7's maxFlow selection) at β = 1.5.
fn configs() -> [(&'static str, NeatConfig); 5] {
    let at = |beta: f64| NeatConfig {
        beta,
        min_card: 3,
        ..NeatConfig::default()
    };
    [
        ("beta-1", at(1.0)),
        ("beta-1.5", at(1.5)),
        ("beta-3", at(3.0)),
        ("beta-inf", at(f64::INFINITY)),
        (
            "beta-1.5-flow-only",
            NeatConfig {
                weights: Weights::flow_only(),
                ..at(1.5)
            },
        ),
    ]
}

/// FNV-1a 64 step over `bytes`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Per configuration: (name, domination restarts, merges, digest of the
/// rendered trace, kept flows and discard count).
type Recorded = (&'static str, usize, usize, u64);

const RECORDED: [Recorded; 5] = [
    ("beta-1", 3, 45, 0xadcd_e0d3_52ce_f7e8),
    ("beta-1.5", 4, 46, 0x8027_0eba_111f_2ec9),
    ("beta-3", 2, 46, 0xf588_813a_a703_fedb),
    ("beta-inf", 0, 46, 0xb9ee_acc7_eda1_bd2c),
    ("beta-1.5-flow-only", 4, 46, 0x306a_a1f7_b849_b55e),
];

#[test]
fn phase2_matches_the_recorded_traces() {
    let net = net();
    let mut got: Vec<Recorded> = Vec::new();
    for ((name, cfg), recorded) in configs().into_iter().zip(RECORDED) {
        assert_eq!(name, recorded.0);
        let mut trace = Some(Vec::new());
        let out = form_flow_clusters_traced(&net, bases(&net, 200), &cfg, &mut trace).unwrap();
        let events = trace.unwrap();
        let count = |pred: fn(&MergeEvent) -> bool| events.iter().filter(|e| pred(e)).count();
        let restarts = count(|e| matches!(e, MergeEvent::DominationRestart { .. }));
        let merges = count(|e| matches!(e, MergeEvent::Merge { .. }));
        // Finite β must exercise the domination branch; β = ∞ never does.
        assert_eq!(restarts > 0, cfg.beta.is_finite(), "{name}");
        assert!(merges > 0 && !out.flow_clusters.is_empty(), "{name}");
        let digest = fnv(
            events
                .iter()
                .fold(FNV_BASIS, |h, e| fnv(h, format!("{e:?}\n").as_bytes())),
            format!("{:?}\n{}\n", out.flow_clusters, out.discarded).as_bytes(),
        );
        got.push((name, restarts, merges, digest));
    }
    let got: Vec<String> = got.iter().map(|r| format!("{r:#x?}")).collect();
    let want: Vec<String> = RECORDED.iter().map(|r| format!("{r:#x?}")).collect();
    assert_eq!(got, want);
}
