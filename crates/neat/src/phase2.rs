//! Phase 2 — flow cluster formation (Section III-B).
//!
//! Starting from the dense-core of the density-sorted base-cluster list,
//! flow clusters are grown by repeatedly merging, at each open end, the
//! f-neighbour with the highest merging selectivity
//! `SF = wq·q + wk·k + wv·v` (Definitions 9–10). A netflow between two
//! f-neighbours that β-dominates the end's maxFlow removes both from the
//! neighbourhood and restarts the selection (Section III-B2). Expansion of
//! an end stops when its f-neighbourhood is empty; when both ends stop, the
//! flow is emitted (if its trajectory cardinality reaches `minCard`) and
//! the next round starts from the densest remaining base cluster.

use crate::config::NeatConfig;
use crate::control::PhaseStatus;
use crate::error::NeatError;
use crate::model::{BaseCluster, FlowCluster};
use neat_rnet::{RoadNetwork, SegmentId};
use neat_runctl::{Control, Interrupt};

/// Output of Phase 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase2Output {
    /// Flow clusters with trajectory cardinality ≥ `minCard`, in formation
    /// order.
    pub flow_clusters: Vec<FlowCluster>,
    /// Number of flows filtered out by the `minCard` threshold.
    pub discarded: usize,
}

/// Which end of the flow is being extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Appending after the last member.
    Back,
    /// Prepending before the first member.
    Front,
}

/// One step of the Phase-2 merging process — the "explain" trace that
/// makes a clustering run auditable (which candidate won each merge and
/// why, where β-domination diverted a merge, why expansion stopped).
#[derive(Debug, Clone, PartialEq)]
pub enum MergeEvent {
    /// A new flow was seeded from the densest remaining base cluster.
    Seed {
        /// Index of the flow in formation order.
        flow: usize,
        /// Seed segment (the round's dense-core).
        segment: SegmentId,
        /// Seed density.
        density: usize,
    },
    /// A β-dominated pair was removed from an end's f-neighbourhood.
    DominationRestart {
        /// Flow being expanded.
        flow: usize,
        /// Which end.
        end: End,
        /// The removed pair of segments.
        removed: (SegmentId, SegmentId),
        /// Netflow between the removed pair.
        pair_netflow: usize,
        /// The end's maxFlow that was dominated.
        max_flow: usize,
    },
    /// A base cluster was merged into a flow.
    Merge {
        /// Flow being expanded.
        flow: usize,
        /// Which end.
        end: End,
        /// The merged segment.
        segment: SegmentId,
        /// Winning merging selectivity SF.
        selectivity: f64,
        /// Netflow between the end cluster and the merged cluster.
        netflow: usize,
    },
    /// The flow was emitted (cardinality ≥ minCard) or discarded.
    Finished {
        /// Flow index.
        flow: usize,
        /// Member count.
        members: usize,
        /// Trajectory cardinality.
        cardinality: usize,
        /// Whether it passed the minCard filter.
        kept: bool,
    },
}

/// Runs Phase 2 over the density-sorted base clusters produced by Phase 1.
///
/// Consumes the base clusters: every one is assigned to exactly one flow
/// cluster (possibly a discarded one), so repeated rounds always terminate.
///
/// # Errors
///
/// Returns [`NeatError::UnknownSegment`] if a base cluster references a
/// segment missing from `net`, or [`NeatError::InvalidConfig`] when the
/// configuration fails validation.
pub fn form_flow_clusters(
    net: &RoadNetwork,
    base_clusters: Vec<BaseCluster>,
    config: &NeatConfig,
) -> Result<Phase2Output, NeatError> {
    form_flow_clusters_traced(net, base_clusters, config, &mut None)
}

/// Like [`form_flow_clusters`], but records every merging decision into
/// `trace` (pass `&mut Some(Vec::new())` to collect events).
///
/// # Errors
///
/// Same as [`form_flow_clusters`].
pub fn form_flow_clusters_traced(
    net: &RoadNetwork,
    base_clusters: Vec<BaseCluster>,
    config: &NeatConfig,
    trace: &mut Option<Vec<MergeEvent>>,
) -> Result<Phase2Output, NeatError> {
    form_flow_clusters_inner(net, base_clusters, config, trace, None).map(|(out, _)| out)
}

/// Phase 2 under a [`Control`]: one cancel point per seed, one per merge
/// iteration, and a cluster-count cap applied after each kept flow.
///
/// On interrupt the flow being expanded is *finished* — it stays a valid
/// contiguous route, just shorter than it would have grown — the
/// `minCard` filter is applied to it, and no further seeds are processed.
/// The kept flows are returned with a [`PhaseStatus::Partial`] report.
///
/// # Errors
///
/// Same as [`form_flow_clusters`] — interrupts are reported in the
/// returned status, never as errors.
pub fn form_flow_clusters_ctl(
    net: &RoadNetwork,
    base_clusters: Vec<BaseCluster>,
    config: &NeatConfig,
    ctl: &Control,
) -> Result<(Phase2Output, PhaseStatus), NeatError> {
    form_flow_clusters_inner(net, base_clusters, config, &mut None, Some(ctl))
}

/// The one Phase-2 body behind every entry point; `ctl == None` is a
/// free run.
pub(crate) fn form_flow_clusters_inner(
    net: &RoadNetwork,
    base_clusters: Vec<BaseCluster>,
    config: &NeatConfig,
    trace: &mut Option<Vec<MergeEvent>>,
    ctl: Option<&Control>,
) -> Result<(Phase2Output, PhaseStatus), NeatError> {
    config.validate()?;
    // Flat segment-index → pool-slot lookup (`u32::MAX` = no cluster):
    // the adjacency probes in `expand_end` become a dense array read
    // instead of a hash lookup. Segments outside the network are not
    // indexed — they are unreachable from `adjacent_segments_at`, and a
    // seed on such a segment errors in `FlowCluster::from_base` exactly
    // as before.
    let mut by_segment: Vec<u32> = vec![u32::MAX; net.segment_count()];
    for (i, c) in base_clusters.iter().enumerate() {
        if let Some(slot) = by_segment.get_mut(c.segment().index()) {
            *slot = i as u32; // lint:allow(L4) reason=pool slots are bounded by the u32-backed segment id space
        }
    }
    // Every pool slot starts as `Some` and is only emptied by a `take()`
    // when its cluster is merged into a flow.
    let mut pool: Vec<Option<BaseCluster>> = base_clusters.into_iter().map(Some).collect();

    let total = pool.len();
    let mut flows = Vec::new();
    let mut discarded = 0usize;
    let mut status = PhaseStatus::Complete;
    for seed_idx in 0..pool.len() {
        if let Some(c) = ctl {
            if let Err(why) = c.check() {
                status = PhaseStatus::Partial {
                    done: seed_idx,
                    total,
                    why,
                };
                break;
            }
        }
        let seed = match pool[seed_idx].take() {
            Some(s) => s,
            None => continue, // already merged into an earlier flow
        };
        let flow_idx = flows.len() + discarded;
        if let Some(t) = trace.as_mut() {
            t.push(MergeEvent::Seed {
                flow: flow_idx,
                segment: seed.segment(),
                density: seed.density(),
            });
        }
        let mut flow = FlowCluster::from_base(net, seed)?;
        let mut stopped = expand_end(
            net,
            &mut flow,
            &mut pool,
            &by_segment,
            config,
            End::Back,
            flow_idx,
            trace,
            ctl,
        )?;
        if stopped.is_none() {
            stopped = expand_end(
                net,
                &mut flow,
                &mut pool,
                &by_segment,
                config,
                End::Front,
                flow_idx,
                trace,
                ctl,
            )?;
        }
        // An interrupt mid-expansion leaves the flow a valid (shorter)
        // contiguous route: finish it normally, then stop seeding.
        let kept = flow.trajectory_cardinality() >= config.min_card;
        if let Some(t) = trace.as_mut() {
            t.push(MergeEvent::Finished {
                flow: flow_idx,
                members: flow.members().len(),
                cardinality: flow.trajectory_cardinality(),
                kept,
            });
        }
        if kept {
            flows.push(flow);
        } else {
            discarded += 1;
        }
        if let Some(why) = stopped {
            status = PhaseStatus::Partial {
                done: seed_idx + 1,
                total,
                why,
            };
            break;
        }
        if kept {
            if let Some(c) = ctl {
                if let Err(why) = c.check_clusters(flows.len()) {
                    status = PhaseStatus::Partial {
                        done: seed_idx + 1,
                        total,
                        why,
                    };
                    break;
                }
            }
        }
    }
    Ok((
        Phase2Output {
            flow_clusters: flows,
            discarded,
        },
        status,
    ))
}

/// Extends one end of `flow` until its f-neighbourhood is exhausted, or
/// until the controller interrupts (returned as `Ok(Some(why))`; the
/// flow remains a valid contiguous route either way).
#[allow(clippy::too_many_arguments)]
fn expand_end(
    net: &RoadNetwork,
    flow: &mut FlowCluster,
    pool: &mut [Option<BaseCluster>],
    by_segment: &[u32],
    config: &NeatConfig,
    end: End,
    flow_idx: usize,
    trace: &mut Option<Vec<MergeEvent>>,
    ctl: Option<&Control>,
) -> Result<Option<Interrupt>, NeatError> {
    loop {
        // One cancel point per merge iteration.
        if let Some(c) = ctl {
            if let Err(why) = c.check() {
                return Ok(Some(why));
            }
        }
        let (end_cluster, nu) = match end {
            End::Back => (flow.members().last(), flow.back_endpoint()),
            End::Front => (flow.members().first(), flow.front_endpoint()),
        };
        let end_cluster = end_cluster.expect("non-empty flow"); // lint:allow(L1) reason=a flow is created from a seed base cluster and only ever grows

        // f-neighbourhood Nf(S, nu): unmerged base clusters on segments
        // adjacent at nu with positive netflow (Definition 6), borrowed
        // from their pool slots and sorted by segment id for determinism.
        let mut neigh: Vec<(usize, &BaseCluster)> = net
            .adjacent_segments_at(end_cluster.segment(), nu)
            .into_iter()
            .filter_map(|sid| {
                let slot = by_segment[sid.index()];
                (slot != u32::MAX).then_some(slot as usize) // lint:allow(L4) reason=widening a u32 slot back to usize is lossless
            })
            .filter_map(|i| Some((i, pool[i].as_ref()?)))
            .filter(|(_, c)| end_cluster.netflow(c) > 0)
            .collect();
        neigh.sort_by_key(|(_, c)| c.segment());

        // β-domination restarts (Section III-B2): while a netflow between
        // two f-neighbours dominates the end's maxFlow, drop that pair from
        // the neighbourhood and re-examine.
        if config.beta.is_finite() {
            loop {
                let max_flow = neigh
                    .iter()
                    .map(|(_, c)| end_cluster.netflow(c))
                    .max()
                    .unwrap_or(0);
                if max_flow == 0 {
                    break;
                }
                let mut dominated = None;
                'pairs: for (x, &(i, ci)) in neigh.iter().enumerate() {
                    for &(j, cj) in neigh.iter().skip(x + 1) {
                        let fij = ci.netflow(cj);
                        if fij > 0 && fij as f64 / max_flow as f64 >= config.beta {
                            dominated = Some((i, ci, j, cj, fij));
                            break 'pairs;
                        }
                    }
                }
                let Some((i, ci, j, cj, fij)) = dominated else {
                    break;
                };
                if let Some(t) = trace.as_mut() {
                    t.push(MergeEvent::DominationRestart {
                        flow: flow_idx,
                        end,
                        removed: (ci.segment(), cj.segment()),
                        pair_netflow: fij,
                        max_flow,
                    });
                }
                neigh.retain(|&(x, _)| x != i && x != j);
            }
        }

        // Definition 9 denominators over the (possibly reduced)
        // neighbourhood.
        let d_s = end_cluster.density() as f64;
        let sum_d: f64 = neigh.iter().map(|(_, c)| c.density() as f64).sum();
        let sum_v: f64 = neigh.iter().map(|(_, c)| segment_speed(net, c)).sum();
        let card_s = end_cluster.trajectory_cardinality() as f64;

        // Score every candidate and pick the winner in neighbourhood
        // order, with the exact tie-breaks: selectivity, then netflow with
        // the whole flow, then segment id.
        let mut best: Option<(usize, &BaseCluster, f64, usize)> = None; // (slot, cluster, sf, f(F,S))
        for &(i, cand) in &neigh {
            let q = end_cluster.netflow(cand) as f64 / card_s.max(1.0);
            let k = cand.density() as f64 / (d_s + sum_d);
            let v = segment_speed(net, cand) / sum_v.max(f64::MIN_POSITIVE);
            let sf = config.weights.selectivity(q, k, v);
            let f_flow = flow.netflow_with(cand);
            let better = match best {
                None => true,
                Some((_, bc, bsf, bf)) => {
                    sf > bsf + 1e-12
                        || ((sf - bsf).abs() <= 1e-12
                            && (f_flow > bf || (f_flow == bf && cand.segment() < bc.segment())))
                }
            };
            if better {
                best = Some((i, cand, sf, f_flow));
            }
        }
        // An empty f-neighbourhood ends this end's expansion.
        let Some((chosen, _, sf, _)) = best else {
            return Ok(None);
        };
        let cluster = pool[chosen].take().expect("f-neighbour slot is populated"); // lint:allow(L1) reason=neigh borrowed only populated slots and nothing was taken since
        if let Some(t) = trace.as_mut() {
            t.push(MergeEvent::Merge {
                flow: flow_idx,
                end,
                segment: cluster.segment(),
                selectivity: sf,
                netflow: end_cluster.netflow(&cluster),
            });
        }
        match end {
            End::Back => flow.push_back(net, cluster)?,
            End::Front => flow.push_front(net, cluster)?,
        }
    }
}

fn segment_speed(net: &RoadNetwork, cluster: &BaseCluster) -> f64 {
    net.segment(cluster.segment())
        .map(|s| s.speed_limit)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Weights;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, RoadNetworkBuilder};
    use neat_traj::{TFragment, TrajectoryId};

    fn frag(tr: u64, seg: usize) -> TFragment {
        let loc = RoadLocation::new(SegmentId::new(seg), Point::new(0.0, 0.0), 0.0);
        TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: SegmentId::new(seg),
            first: loc,
            last: loc,
            point_count: 2,
        }
    }

    fn base(seg: usize, trs: &[u64]) -> BaseCluster {
        BaseCluster::new(
            SegmentId::new(seg),
            trs.iter().map(|&t| frag(t, seg)).collect(),
        )
        .unwrap()
    }

    fn cfg(min_card: usize) -> NeatConfig {
        NeatConfig {
            min_card,
            weights: Weights::flow_only(),
            ..NeatConfig::default()
        }
    }

    /// Sort clusters by density desc / segment asc like Phase 1 does.
    fn sorted(mut v: Vec<BaseCluster>) -> Vec<BaseCluster> {
        v.sort_by(|a, b| {
            b.density()
                .cmp(&a.density())
                .then_with(|| a.segment().cmp(&b.segment()))
        });
        v
    }

    #[test]
    fn chain_flow_merges_fully() {
        // Chain of 4 segments; trajectories 1..3 traverse all of them.
        let net = chain_network(5, 100.0, 10.0);
        let bases: Vec<BaseCluster> = (0..4).map(|s| base(s, &[1, 2, 3])).collect();
        let out = form_flow_clusters(&net, sorted(bases), &cfg(1)).unwrap();
        assert_eq!(out.flow_clusters.len(), 1);
        assert_eq!(out.discarded, 0);
        let f = &out.flow_clusters[0];
        assert_eq!(f.members().len(), 4);
        assert!(net.is_route(&f.route()));
        assert_eq!(f.trajectory_cardinality(), 3);
    }

    #[test]
    fn zero_netflow_blocks_merging() {
        // Two disjoint trajectory populations on halves of the chain.
        let net = chain_network(5, 100.0, 10.0);
        let bases = vec![
            base(0, &[1, 2]),
            base(1, &[1, 2]),
            base(2, &[8, 9]),
            base(3, &[8, 9]),
        ];
        let out = form_flow_clusters(&net, sorted(bases), &cfg(1)).unwrap();
        assert_eq!(out.flow_clusters.len(), 2);
        for f in &out.flow_clusters {
            assert_eq!(f.members().len(), 2);
        }
    }

    #[test]
    fn min_card_filters_small_flows() {
        let net = chain_network(5, 100.0, 10.0);
        let bases = vec![
            base(0, &[1, 2, 3]),
            base(1, &[1, 2, 3]),
            base(2, &[7]),
            base(3, &[7]),
        ];
        let out = form_flow_clusters(&net, sorted(bases), &cfg(2)).unwrap();
        assert_eq!(out.flow_clusters.len(), 1);
        assert_eq!(out.discarded, 1);
        assert_eq!(out.flow_clusters[0].trajectory_cardinality(), 3);
    }

    /// Star junction: hub node with three spokes, reproducing the paper's
    /// maxFlow example (Figure 1(b) discussion).
    fn star() -> (RoadNetwork, Vec<SegmentId>) {
        let mut b = RoadNetworkBuilder::new();
        let n1 = b.add_node(Point::new(-100.0, 0.0));
        let n2 = b.add_node(Point::new(0.0, 0.0));
        let n3 = b.add_node(Point::new(100.0, 50.0));
        let n4 = b.add_node(Point::new(100.0, 0.0));
        let n5 = b.add_node(Point::new(100.0, -50.0));
        let s12 = b.add_segment(n1, n2, 10.0).unwrap();
        let s23 = b.add_segment(n2, n3, 10.0).unwrap();
        let s24 = b.add_segment(n2, n4, 10.0).unwrap();
        let s25 = b.add_segment(n2, n5, 10.0).unwrap();
        (b.build().unwrap(), vec![s12, s23, s24, s25])
    }

    #[test]
    fn maxflow_neighbor_selected_with_flow_only_weights() {
        let (net, _) = star();
        // S(s12) shares 2 trajectories with S(s23), 1 with S(s24).
        let bases = vec![
            base(0, &[1, 2, 3, 4]), // s12, dense-core
            base(1, &[1, 2]),       // s23: netflow 2
            base(2, &[3]),          // s24: netflow 1
        ];
        let out = form_flow_clusters(&net, sorted(bases), &cfg(1)).unwrap();
        // First flow grows from s12 and merges the maxFlow neighbour s23.
        let first = &out.flow_clusters[0];
        assert!(first.route().contains(&SegmentId::new(1)));
        assert!(first.route().contains(&SegmentId::new(0)));
        assert!(!first.route().contains(&SegmentId::new(2)));
    }

    #[test]
    fn density_only_weights_pick_densest_neighbor() {
        let (net, _) = star();
        let bases = vec![
            base(0, &[1, 2, 3, 4, 5]), // dense-core s12
            base(1, &[1]),             // s23: netflow 1, density 1
            base(2, &[2, 3, 4]),       // s24: netflow 3, density 3
        ];
        let mut c = cfg(1);
        c.weights = Weights::density_only();
        let out = form_flow_clusters(&net, sorted(bases), &c).unwrap();
        let first = &out.flow_clusters[0];
        // Densest f-neighbour s24 is merged even though both have netflow.
        assert!(first.route().contains(&SegmentId::new(2)));
        assert!(!first.route().contains(&SegmentId::new(1)));
    }

    #[test]
    fn beta_domination_diverts_merge() {
        // Paper's example: f(S,S1)=5, f(S,S2)=2, f(S1,S2)=50 — the dominant
        // netflow between the neighbours means S should merge with neither.
        let (net, _) = star();
        let mut bases = Vec::new();
        // S on s12: trajectories 0..=59 (density 60 → dense-core).
        bases.push(base(0, &(0..60).collect::<Vec<_>>()));
        // S1 on s23: shares 5 with S (0..5), plus 50 shared with S2.
        let mut s1_trs: Vec<u64> = (0..5).collect();
        s1_trs.extend(100..150);
        bases.push(base(1, &s1_trs));
        // S2 on s24: shares 2 with S (5..7), plus the same 50.
        let mut s2_trs: Vec<u64> = (5..7).collect();
        s2_trs.extend(100..150);
        bases.push(base(2, &s2_trs));
        let mut c = cfg(1);
        c.beta = 5.0; // 50/5 = 10 ≥ β → dominated
        let out = form_flow_clusters(&net, sorted(bases), &c).unwrap();
        // S's f-neighbourhood at n2 is emptied by the domination rule, so
        // S stays alone; the next round clusters S1 with S2.
        let find = |sid: usize| {
            out.flow_clusters
                .iter()
                .position(|f| f.route().contains(&SegmentId::new(sid)))
                .unwrap()
        };
        assert_eq!(find(1), find(2), "dominant pair should share a flow");
        assert_ne!(find(0), find(1), "S should not join the dominant pair");
    }

    #[test]
    fn without_beta_maxflow_merges_pair_head() {
        // Same topology, β = ∞ → plain maxFlow: S merges with S1.
        let (net, _) = star();
        let bases = vec![
            base(0, &(0..10).collect::<Vec<_>>()),
            base(1, &[0, 1, 2, 3, 4]),
            base(2, &[5, 6]),
        ];
        let out = form_flow_clusters(&net, sorted(bases), &cfg(1)).unwrap();
        let first = &out.flow_clusters[0];
        assert!(first.route().contains(&SegmentId::new(0)));
        assert!(first.route().contains(&SegmentId::new(1)));
    }

    #[test]
    fn deterministic_across_runs() {
        let net = chain_network(6, 100.0, 10.0);
        let mk = || {
            vec![
                base(0, &[1, 2]),
                base(1, &[1, 2, 3]),
                base(2, &[2, 3]),
                base(3, &[3, 4]),
                base(4, &[4]),
            ]
        };
        let a = form_flow_clusters(&net, sorted(mk()), &cfg(1)).unwrap();
        let b = form_flow_clusters(&net, sorted(mk()), &cfg(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_base_cluster_is_consumed() {
        let net = chain_network(6, 100.0, 10.0);
        let bases = vec![
            base(0, &[1]),
            base(1, &[2]),
            base(2, &[3]),
            base(3, &[4]),
            base(4, &[5]),
        ];
        let n_bases = bases.len();
        let out = form_flow_clusters(&net, sorted(bases), &cfg(1)).unwrap();
        let placed: usize = out
            .flow_clusters
            .iter()
            .map(|f| f.members().len())
            .sum::<usize>();
        // No netflow anywhere: every base forms its own flow.
        assert_eq!(placed + out.discarded, n_bases);
        assert_eq!(out.flow_clusters.len(), 5);
    }

    #[test]
    fn trace_records_seeds_merges_and_outcomes() {
        let net = chain_network(5, 100.0, 10.0);
        let bases = sorted(vec![
            base(0, &[1, 2, 3]),
            base(1, &[1, 2, 3]),
            base(2, &[1, 2]),
            base(3, &[9]),
        ]);
        let mut trace = Some(Vec::new());
        let out = form_flow_clusters_traced(&net, bases, &cfg(2), &mut trace).unwrap();
        let events = trace.unwrap();
        // One seed per flow (kept or discarded).
        let seeds = events
            .iter()
            .filter(|e| matches!(e, MergeEvent::Seed { .. }))
            .count();
        assert_eq!(seeds, out.flow_clusters.len() + out.discarded);
        // Flow 0 merges s1 and s2 (trajectories 1..3 shared).
        let merges: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                MergeEvent::Merge {
                    flow: 0, segment, ..
                } => Some(segment.index()),
                _ => None,
            })
            .collect();
        assert_eq!(merges.len(), 2);
        assert!(merges.contains(&1) && merges.contains(&2));
        // Finished events carry the minCard verdict.
        let kept: Vec<bool> = events
            .iter()
            .filter_map(|e| match e {
                MergeEvent::Finished { kept, .. } => Some(*kept),
                _ => None,
            })
            .collect();
        assert_eq!(kept, vec![true, false]); // s3's lone flow discarded
    }

    #[test]
    fn trace_records_domination_restart() {
        let (net, _) = star();
        let mut bases = Vec::new();
        bases.push(base(0, &(0..60).collect::<Vec<_>>()));
        let mut s1_trs: Vec<u64> = (0..5).collect();
        s1_trs.extend(100..150);
        bases.push(base(1, &s1_trs));
        let mut s2_trs: Vec<u64> = (5..7).collect();
        s2_trs.extend(100..150);
        bases.push(base(2, &s2_trs));
        let mut c = cfg(1);
        c.beta = 5.0;
        let mut trace = Some(Vec::new());
        let _ = form_flow_clusters_traced(&net, sorted(bases), &c, &mut trace).unwrap();
        let events = trace.unwrap();
        let restarts: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, MergeEvent::DominationRestart { .. }))
            .collect();
        assert_eq!(restarts.len(), 1);
        if let MergeEvent::DominationRestart {
            pair_netflow,
            max_flow,
            ..
        } = restarts[0]
        {
            assert_eq!(*pair_netflow, 50);
            assert_eq!(*max_flow, 5);
        }
    }

    #[test]
    fn untraced_and_traced_agree() {
        let net = chain_network(6, 100.0, 10.0);
        let mk = || {
            sorted(vec![
                base(0, &[1, 2]),
                base(1, &[1, 2, 3]),
                base(2, &[2, 3]),
                base(3, &[3, 4]),
            ])
        };
        let a = form_flow_clusters(&net, mk(), &cfg(1)).unwrap();
        let mut trace = Some(Vec::new());
        let b = form_flow_clusters_traced(&net, mk(), &cfg(1), &mut trace).unwrap();
        assert_eq!(a, b);
        assert!(!trace.unwrap().is_empty());
    }

    #[test]
    fn empty_input_is_fine() {
        let net = chain_network(3, 100.0, 10.0);
        let out = form_flow_clusters(&net, vec![], &cfg(1)).unwrap();
        assert!(out.flow_clusters.is_empty());
        assert_eq!(out.discarded, 0);
    }

    #[test]
    fn invalid_config_rejected() {
        let net = chain_network(3, 100.0, 10.0);
        let mut c = cfg(1);
        c.beta = 0.0;
        assert!(form_flow_clusters(&net, vec![], &c).is_err());
    }
}
