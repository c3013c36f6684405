//! The NEAT paper's TraClus *variant* (Section IV-C): give TraClus the
//! benefit of NEAT's preprocessing — base clusters as the grouping unit —
//! and of the modified Hausdorff network distance, then run its DBSCAN
//! grouping phase. The paper shows this variant remains far slower than
//! NEAT (SJ2000: 6 396.79 s for 117 clusters vs NEAT's 11.68 s) because
//! grouping still computes pairwise distances.

use neat_core::BaseCluster;
use neat_rnet::path::TravelMode;
use neat_rnet::{NodeId, RoadNetwork, ShortestPathEngine};
use std::collections::HashMap;

/// Parameters of the hybrid variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridConfig {
    /// DBSCAN ε over the modified Hausdorff network distance (metres).
    pub epsilon: f64,
    /// DBSCAN minimum neighbourhood size (TraClus's MinLns analogue).
    pub min_pts: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            epsilon: 500.0,
            min_pts: 2,
        }
    }
}

/// Result of the hybrid run.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridResult {
    /// Clusters as groups of base clusters.
    pub clusters: Vec<Vec<BaseCluster>>,
    /// Base clusters labelled noise.
    pub noise: usize,
    /// Network-distance evaluations performed (the cost driver the NEAT
    /// paper measures).
    pub distance_computations: u64,
}

/// Modified Hausdorff network distance between the endpoint pairs of two
/// road segments (the base clusters' representatives) — the same
/// Definition-11 form NEAT Phase 3 uses, applied at segment granularity.
fn segment_hausdorff(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    cache: &mut HashMap<(NodeId, NodeId), Option<f64>>,
    a: &BaseCluster,
    b: &BaseCluster,
    computations: &mut u64,
) -> Option<f64> {
    let sa = net.segment(a.segment()).ok()?;
    let sb = net.segment(b.segment()).ok()?;
    let mut dn = |x: NodeId, y: NodeId| -> Option<f64> {
        if x == y {
            return Some(0.0);
        }
        let key = if x <= y { (x, y) } else { (y, x) };
        if let Some(&d) = cache.get(&key) {
            return d;
        }
        *computations += 1;
        // Never interrupted: no control is attached.
        let (a, b, mode) = (key.0, key.1, TravelMode::Undirected);
        let d = engine
            .distance(net, a, b, mode, f64::INFINITY, None)
            .unwrap_or(None);
        cache.insert(key, d);
        d
    };
    let mut h = 0.0f64;
    for x in [sa.a, sa.b] {
        let m = [sb.a, sb.b]
            .into_iter()
            .filter_map(|y| dn(x, y))
            .fold(f64::INFINITY, f64::min);
        if !m.is_finite() {
            return None;
        }
        h = h.max(m);
    }
    for y in [sb.a, sb.b] {
        let m = [sa.a, sa.b]
            .into_iter()
            .filter_map(|x| dn(y, x))
            .fold(f64::INFINITY, f64::min);
        if !m.is_finite() {
            return None;
        }
        h = h.max(m);
    }
    Some(h)
}

/// Runs the hybrid TraClus variant over NEAT base clusters.
pub fn cluster_base_clusters(
    net: &RoadNetwork,
    base_clusters: Vec<BaseCluster>,
    config: &HybridConfig,
) -> HybridResult {
    const UNVISITED: i32 = -2;
    const NOISE: i32 = -1;
    let n = base_clusters.len();
    let mut engine = ShortestPathEngine::new(net);
    let mut cache: HashMap<(NodeId, NodeId), Option<f64>> = HashMap::new();
    let mut computations = 0u64;
    let mut label = vec![UNVISITED; n];
    let mut groups: Vec<Vec<usize>> = Vec::new();

    // Materialised distance-query closure over indices.
    let neighbourhood = |i: usize,
                         engine: &mut ShortestPathEngine,
                         cache: &mut HashMap<(NodeId, NodeId), Option<f64>>,
                         computations: &mut u64|
     -> Vec<usize> {
        (0..n)
            .filter(|&j| {
                if i == j {
                    return true;
                }
                matches!(
                    segment_hausdorff(
                        net,
                        engine,
                        cache,
                        &base_clusters[i],
                        &base_clusters[j],
                        computations,
                    ),
                    Some(d) if d <= config.epsilon
                )
            })
            .collect()
    };

    for i in 0..n {
        if label[i] != UNVISITED {
            continue;
        }
        let neigh = neighbourhood(i, &mut engine, &mut cache, &mut computations);
        if neigh.len() < config.min_pts {
            label[i] = NOISE;
            continue;
        }
        let cid = groups.len() as i32;
        groups.push(Vec::new());
        label[i] = cid;
        groups[cid as usize].push(i);
        let mut queue: std::collections::VecDeque<usize> = neigh.into();
        while let Some(j) = queue.pop_front() {
            if label[j] == NOISE {
                label[j] = cid;
                groups[cid as usize].push(j);
                continue;
            }
            if label[j] != UNVISITED {
                continue;
            }
            label[j] = cid;
            groups[cid as usize].push(j);
            let jn = neighbourhood(j, &mut engine, &mut cache, &mut computations);
            if jn.len() >= config.min_pts {
                queue.extend(jn);
            }
        }
    }

    let noise = label.iter().filter(|&&l| l == NOISE).count();
    let mut pool: Vec<Option<BaseCluster>> = base_clusters.into_iter().map(Some).collect();
    let clusters = groups
        .into_iter()
        .map(|g| {
            g.into_iter()
                .map(|i| pool[i].take().expect("used once")) // lint:allow(L1) reason=each pool index appears in exactly one group
                .collect()
        })
        .collect();
    HybridResult {
        clusters,
        noise,
        distance_computations: computations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::{TFragment, TrajectoryId};

    fn base(seg: usize, trs: &[u64]) -> BaseCluster {
        let frags = trs
            .iter()
            .map(|&t| {
                let loc = RoadLocation::new(SegmentId::new(seg), Point::new(0.0, 0.0), 0.0);
                TFragment {
                    trajectory: TrajectoryId::new(t),
                    segment: SegmentId::new(seg),
                    first: loc,
                    last: loc,
                    point_count: 2,
                }
            })
            .collect();
        BaseCluster::new(SegmentId::new(seg), frags).unwrap()
    }

    #[test]
    fn adjacent_segments_cluster_together() {
        let net = chain_network(6, 100.0, 10.0);
        let bases = vec![base(0, &[1]), base(1, &[2]), base(2, &[3])];
        // Adjacent segments' Hausdorff distance is 200 m on this chain.
        let out = cluster_base_clusters(
            &net,
            bases,
            &HybridConfig {
                epsilon: 200.0,
                min_pts: 2,
            },
        );
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.clusters[0].len(), 3);
        assert_eq!(out.noise, 0);
        assert!(out.distance_computations > 0);
    }

    #[test]
    fn distant_segments_are_noise_or_separate() {
        let net = chain_network(30, 100.0, 10.0);
        let bases = vec![base(0, &[1]), base(1, &[1]), base(25, &[2])];
        let out = cluster_base_clusters(
            &net,
            bases,
            &HybridConfig {
                epsilon: 200.0,
                min_pts: 2,
            },
        );
        assert_eq!(out.clusters.len(), 1);
        assert_eq!(out.noise, 1);
    }

    #[test]
    fn min_pts_one_keeps_everything() {
        let net = chain_network(10, 100.0, 10.0);
        let bases = vec![base(0, &[1]), base(5, &[2])];
        let out = cluster_base_clusters(
            &net,
            bases,
            &HybridConfig {
                epsilon: 100.0,
                min_pts: 1,
            },
        );
        assert_eq!(out.noise, 0);
        assert_eq!(out.clusters.len(), 2);
    }

    #[test]
    fn empty_input() {
        let net = chain_network(3, 100.0, 10.0);
        let out = cluster_base_clusters(&net, vec![], &HybridConfig::default());
        assert!(out.clusters.is_empty());
        assert_eq!(out.noise, 0);
    }

    #[test]
    fn clusters_partition_input() {
        let net = chain_network(12, 100.0, 10.0);
        let bases: Vec<BaseCluster> = (0..8).map(|s| base(s, &[s as u64])).collect();
        let count = bases.len();
        let out = cluster_base_clusters(
            &net,
            bases,
            &HybridConfig {
                epsilon: 200.0,
                min_pts: 2,
            },
        );
        let placed: usize = out.clusters.iter().map(Vec::len).sum();
        assert_eq!(placed + out.noise, count);
    }
}
