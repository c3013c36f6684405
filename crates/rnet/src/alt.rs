//! ALT landmark lower bounds (Goldberg & Harrelson's A*-landmarks
//! technique, reduced to its bound).
//!
//! A landmark `L` with a precomputed distance table gives, by the
//! triangle inequality, `d(a, b) ≥ |d(L, a) − d(L, b)|` on an
//! undirected metric (and `d(a, b) ≥ d(L, b) − d(L, a)` on a directed
//! one). The maximum over a handful of well-spread landmarks is a
//! cheap, often tight lower bound on the true network distance —
//! strictly at least as tight as nothing, and in phase 3 it is layered
//! *on top of* the paper's Euclidean lower bound (the final filter is
//! `max(euclidean, alt)`), so it can only skip more pairs, never
//! different ones.
//!
//! Preprocessing cost: exactly `k` full single-source Dijkstra
//! expansions and `k × node_count` stored doubles. Landmarks are picked
//! by deterministic farthest-point sampling (first landmark = node 0,
//! each next = the node maximising its distance to the chosen set, ties
//! to the smallest id), so the tables — and every bound computed from
//! them — are identical across runs and thread counts.

use crate::graph::RoadNetwork;
use crate::ids::NodeId;
use crate::path::{ShortestPathEngine, TravelMode};
use neat_runctl::{Control, Interrupt};

/// Precomputed landmark distance tables for ALT lower bounds.
#[derive(Clone, Debug)]
pub struct AltLandmarks {
    landmarks: Vec<NodeId>,
    /// `dist[l][n]` = network distance landmark `l` → node `n`
    /// (`INFINITY` when unreachable).
    dist: Vec<Vec<f64>>,
    /// The metric the tables were built on: the symmetric bound is valid
    /// on the undirected one, only the one-sided bound on the directed.
    mode: TravelMode,
}

impl AltLandmarks {
    /// Builds `k` landmark tables on `net` under `mode`. Every Dijkstra
    /// settlement of the `k` preprocessing expansions is charged against
    /// `ctl`, so landmark preprocessing participates in op/settled
    /// budgets exactly like the query-time searches it replaces.
    ///
    /// # Errors
    ///
    /// Returns the first interrupt observed; no partial table escapes.
    /// Never fails without a control.
    pub fn build(
        net: &RoadNetwork,
        engine: &mut ShortestPathEngine,
        k: usize,
        mode: TravelMode,
        ctl: Option<&Control>,
    ) -> Result<Self, Interrupt> {
        let n = net.node_count();
        let mut out = AltLandmarks {
            landmarks: Vec::new(),
            dist: Vec::new(),
            mode,
        };
        if n == 0 || k == 0 {
            return Ok(out);
        }
        // Farthest-point sampling, seeded at node 0: deterministic and
        // spreads landmarks towards the periphery, where they bound the
        // most pairs.
        let mut min_to_chosen = vec![f64::INFINITY; n];
        let mut next = NodeId::new(0);
        for _ in 0..k.min(n) {
            let table = engine.distances_from(net, next, mode, ctl)?;
            for (i, &d) in table.iter().enumerate() {
                if d < min_to_chosen[i] {
                    min_to_chosen[i] = d;
                }
            }
            out.landmarks.push(next);
            out.dist.push(table);
            // Next landmark: the node farthest from every chosen one
            // (ties to the smallest id; unreachable components sort
            // first and get their own landmark).
            let mut best = -1.0;
            let mut best_node = None;
            for (i, &d) in min_to_chosen.iter().enumerate() {
                if d > best {
                    best = d;
                    best_node = Some(NodeId::new(i));
                }
            }
            match best_node {
                Some(b) if best > 0.0 => next = b,
                _ => break, // every node is a chosen landmark already
            }
        }
        Ok(out)
    }

    /// The chosen landmark nodes, in selection order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Number of landmark tables held.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True when no landmark was built (every bound is 0).
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// Nodes the preprocessing expansions settled: every node each
    /// landmark reaches, once per landmark. A build under a control made
    /// exactly this many [`Control::check_settled`] calls.
    pub fn settled(&self) -> u64 {
        self.dist.iter().flatten().filter(|d| d.is_finite()).count() as u64
    }

    /// A lower bound on the network distance `d(a, b)`, from the
    /// triangle inequality over every landmark. Never negative; `0.0`
    /// when no landmark reaches both nodes. Exact distances are never
    /// exceeded, so filtering with this bound loses nothing.
    pub fn lower_bound(&self, a: NodeId, b: NodeId) -> f64 {
        let (ai, bi) = (a.index(), b.index());
        let mut best = 0.0f64;
        for table in &self.dist {
            let (da, db) = (table[ai], table[bi]);
            if !da.is_finite() || !db.is_finite() {
                continue;
            }
            let lb = match self.mode {
                TravelMode::Undirected => (da - db).abs(),
                // Directed: only d(L,b) ≤ d(L,a) + d(a,b) is usable.
                TravelMode::Directed => db - da,
            };
            if lb > best {
                best = lb;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::graph::RoadNetworkBuilder;
    use crate::netgen::{generate_grid_network, GridNetworkConfig};

    const INF: f64 = f64::INFINITY;

    fn grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
        generate_grid_network(&GridNetworkConfig::small_test(rows, cols), seed)
    }

    /// Uncontrolled undirected build.
    fn build(net: &RoadNetwork, engine: &mut ShortestPathEngine, k: usize) -> AltLandmarks {
        AltLandmarks::build(net, engine, k, TravelMode::Undirected, None).unwrap()
    }

    #[test]
    fn bound_never_exceeds_true_distance_on_grids() {
        let net = grid(6, 7, 13);
        let mut engine = ShortestPathEngine::new(&net);
        let alt = build(&net, &mut engine, 4);
        assert_eq!(alt.len(), 4);
        let n = net.node_count();
        for a in 0..n {
            for b in (a..n).step_by(5) {
                let (na, nb) = (NodeId::new(a), NodeId::new(b));
                let lb = alt.lower_bound(na, nb);
                assert!(lb >= 0.0);
                if let Some(d) = engine
                    .distance(&net, na, nb, TravelMode::Undirected, INF, None)
                    .unwrap()
                {
                    assert!(
                        lb <= d + 1e-9,
                        "ALT bound {lb} exceeds true distance {d} for {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn bound_is_exact_from_a_landmark_itself() {
        let net = grid(4, 4, 7);
        let mut engine = ShortestPathEngine::new(&net);
        let alt = build(&net, &mut engine, 3);
        let l0 = alt.landmarks()[0];
        for b in 0..net.node_count() {
            let nb = NodeId::new(b);
            if let Some(d) = engine
                .distance(&net, l0, nb, TravelMode::Undirected, INF, None)
                .unwrap()
            {
                // d(L0, b) ≥ |d(L0, L0) − d(L0, b)| = d with equality.
                assert!((alt.lower_bound(l0, nb) - d).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn settled_counts_the_checks_of_a_controlled_build() {
        let net = grid(5, 6, 3);
        let ctl = Control::unlimited();
        let alt = AltLandmarks::build(
            &net,
            &mut ShortestPathEngine::new(&net),
            4,
            TravelMode::Undirected,
            Some(&ctl),
        )
        .unwrap();
        assert_eq!(alt.settled(), ctl.settled());
        assert_eq!(alt.settled(), ctl.ops());
        assert!(alt.settled() > 0);
    }

    #[test]
    fn landmark_selection_is_deterministic() {
        let net = grid(5, 5, 99);
        let mut e1 = ShortestPathEngine::new(&net);
        let mut e2 = ShortestPathEngine::new(&net);
        let a = build(&net, &mut e1, 5);
        let b = build(&net, &mut e2, 5);
        assert_eq!(a.landmarks(), b.landmarks());
    }

    #[test]
    fn disconnected_components_each_get_a_landmark() {
        // Two disjoint 2-node chains.
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(0.0, 5_000.0));
        let n3 = b.add_node(Point::new(100.0, 5_000.0));
        b.add_segment(n0, n1, 13.9).expect("distinct nodes");
        b.add_segment(n2, n3, 13.9).expect("distinct nodes");
        let net = b.build().expect("valid network");
        let mut engine = ShortestPathEngine::new(&net);
        let alt = build(&net, &mut engine, 2);
        assert_eq!(alt.len(), 2);
        // One landmark per component: both in-component bounds are live.
        assert!(alt.lower_bound(n0, n1) > 0.0);
        assert!(alt.lower_bound(n2, n3) > 0.0);
        // Cross-component pairs share no landmark coverage: bound 0.
        assert_eq!(alt.lower_bound(n0, n2), 0.0);
    }

    #[test]
    fn empty_and_zero_k_are_harmless() {
        let net = grid(3, 3, 1);
        let mut engine = ShortestPathEngine::new(&net);
        let alt = build(&net, &mut engine, 0);
        assert!(alt.is_empty());
        assert_eq!(alt.lower_bound(NodeId::new(0), NodeId::new(5)), 0.0);
    }
}
