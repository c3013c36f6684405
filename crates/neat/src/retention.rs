//! Time-windowed retention and cluster-drift lifecycle events.
//!
//! Streaming NEAT (paper §VI) keeps every t-fragment it has ever seen,
//! which is unbounded under live traffic. This module implements the
//! *retention* half of the bounded-forever story:
//!
//! * `expire_flows` (crate-private, reached through
//!   [`IncrementalNeat::expire_before`](crate::IncrementalNeat::expire_before))
//!   deterministically removes t-fragments whose
//!   observation time falls behind a logical-time **watermark**. A flow
//!   cluster whose interior members empty out is split into contiguous
//!   runs (each still a valid route); fully-expired flows are dropped.
//!   Expiry is *per-fragment and order-preserving*, which is what makes
//!   `ingest(A); expire(w); ingest(B)` ≡ `ingest(A); ingest(B); expire(w)`
//!   (see `tests/prop_retention.rs`).
//! * [`diff_drift`] compares two refinement outputs and emits typed
//!   [`DriftEvent`]s — `Born`/`Grew`/`Shrank`/`Merged`/`Died` — in the
//!   spirit of evolving-cluster work on road-network flows (El Mahrsi &
//!   Rossi): cluster lifecycle is first-class output, not a diff the
//!   operator has to reconstruct.
//!
//! Drift has no stable cluster identity to lean on (Phase 3 re-refines
//! from scratch), so clusters are keyed by their *smallest participating
//! trajectory id* and matched by participating-set overlap, with
//! deterministic tie-breaks. Drift events are observability output: they
//! are **not** checkpointed and never feed back into clustering state.

use crate::model::{BaseCluster, FlowCluster, TrajectoryCluster};
use neat_traj::{TFragment, TrajectoryId};

/// A cluster-lifecycle transition between two consecutive refinement
/// outputs. `key` is the cluster's smallest participating trajectory id
/// (the only identity that survives re-refinement); sizes are
/// participating-trajectory cardinalities.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriftEvent {
    /// A cluster with no overlap to any previous cluster appeared (also
    /// emitted for the smaller half of a split).
    Born {
        /// Smallest participating trajectory id of the new cluster.
        key: u64,
        /// Trajectory cardinality of the new cluster.
        size: usize,
    },
    /// A cluster kept its lineage and gained trajectories.
    Grew {
        /// Lineage key (smallest trajectory id of the current cluster).
        key: u64,
        /// Previous trajectory cardinality.
        from: usize,
        /// Current trajectory cardinality.
        to: usize,
    },
    /// A cluster kept its lineage and lost trajectories.
    Shrank {
        /// Lineage key (smallest trajectory id of the current cluster).
        key: u64,
        /// Previous trajectory cardinality.
        from: usize,
        /// Current trajectory cardinality.
        to: usize,
    },
    /// A cluster overlaps two or more previous clusters.
    Merged {
        /// Smallest trajectory id of the merged cluster.
        key: u64,
        /// Keys of the previous clusters that merged, ascending.
        sources: Vec<u64>,
    },
    /// A previous cluster overlaps no current cluster.
    Died {
        /// Smallest trajectory id of the vanished cluster.
        key: u64,
        /// Its trajectory cardinality before vanishing.
        size: usize,
    },
}

/// Running totals of [`DriftEvent`]s, for health probes and status
/// replies. Plain counters: cheap to merge, encode and diff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftCounts {
    /// Clusters born (including split-offs).
    pub born: u64,
    /// Clusters that grew.
    pub grew: u64,
    /// Clusters that shrank.
    pub shrank: u64,
    /// Merge events.
    pub merged: u64,
    /// Clusters that died.
    pub died: u64,
}

impl DriftCounts {
    /// Folds a batch of events into the totals.
    pub fn absorb(&mut self, events: &[DriftEvent]) {
        for ev in events {
            match ev {
                DriftEvent::Born { .. } => self.born += 1,
                DriftEvent::Grew { .. } => self.grew += 1,
                DriftEvent::Shrank { .. } => self.shrank += 1,
                DriftEvent::Merged { .. } => self.merged += 1,
                DriftEvent::Died { .. } => self.died += 1,
            }
        }
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.born + self.grew + self.shrank + self.merged + self.died
    }
}

/// What one [`expire_before`](crate::incremental::IncrementalNeat::expire_before)
/// call did to the retained state.
#[derive(Debug, Clone)]
pub struct ExpiryOutcome {
    /// The watermark in effect after the call (`-inf` when none is).
    pub watermark: f64,
    /// Whether the watermark advanced (false = idempotent no-op).
    pub advanced: bool,
    /// T-fragments removed from the retained flows.
    pub expired_fragments: usize,
    /// Flow clusters dropped entirely (every fragment expired).
    pub expired_flows: usize,
    /// Flow clusters split because an interior member emptied out.
    pub split_flows: usize,
    /// Cluster-lifecycle transitions caused by this expiry.
    pub events: Vec<DriftEvent>,
    /// The trajectory clusters after the call: the re-refinement after
    /// an advance, the session's stored view after a no-op.
    pub clusters: Vec<TrajectoryCluster>,
}

/// Tally of what [`expire_flows`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ExpiryStats {
    pub expired_fragments: usize,
    pub expired_flows: usize,
    pub split_flows: usize,
}

/// Removes every t-fragment observed strictly before `watermark`
/// (`fragment.last.time < watermark`) from `flows`.
///
/// Per flow, surviving members are regrouped into maximal contiguous
/// runs — each run keeps its slice of the original junction chain, so
/// every output flow is still a valid route. Relative flow order is
/// preserved (runs replace their flow in place), which keeps expiry
/// deterministic and independent of how batches were interleaved.
///
/// Only what expiry touches is rebuilt: a flow with no expired fragment
/// is kept as it is, and inside a pruned flow a member with no expired
/// fragment moves into its run unchanged.
pub(crate) fn expire_flows(
    flows: Vec<FlowCluster>,
    watermark: f64,
) -> (Vec<FlowCluster>, ExpiryStats) {
    let expired = |f: &TFragment| f.last.time < watermark;
    let mut kept = Vec::with_capacity(flows.len());
    let mut stats = ExpiryStats::default();
    for flow in flows {
        let touched = flow
            .members()
            .iter()
            .any(|m| m.fragments().iter().any(expired));
        if !touched {
            kept.push(flow);
            continue;
        }
        let (members, nodes) = flow.into_parts();
        let mut pruned: Vec<Option<BaseCluster>> = Vec::with_capacity(members.len());
        for member in members {
            if !member.fragments().iter().any(expired) {
                pruned.push(Some(member));
                continue;
            }
            let (segment, mut fragments) = member.into_parts();
            let before = fragments.len();
            fragments.retain(|f| !expired(f));
            stats.expired_fragments += before - fragments.len();
            // The survivors come from a member that already validated its
            // segment.
            pruned.push(
                (!fragments.is_empty()).then(|| BaseCluster::from_grouped(segment, fragments)),
            );
        }
        let mut runs = 0usize;
        let mut i = 0usize;
        while i < pruned.len() {
            if pruned[i].is_none() {
                i += 1;
                continue;
            }
            let start = i;
            while i < pruned.len() && pruned[i].is_some() {
                i += 1;
            }
            let members: Vec<BaseCluster> =
                pruned[start..i].iter_mut().flat_map(Option::take).collect();
            let run_nodes = nodes[start..=i].to_vec();
            let rebuilt = FlowCluster::from_parts(members, run_nodes)
                .expect("run is non-empty with a members+1 node chain"); // lint:allow(L1) reason=run length and node slice length are constructed to match
            kept.push(rebuilt);
            runs += 1;
        }
        if runs == 0 {
            stats.expired_flows += 1;
        } else if runs > 1 {
            stats.split_flows += runs - 1;
        }
    }
    (kept, stats)
}

/// Lineage key of a participating set: its smallest trajectory id.
fn key_of(s: &[TrajectoryId]) -> u64 {
    s.first().map_or(u64::MAX, |t| t.value())
}

/// Diffs two refinement outputs into [`DriftEvent`]s.
///
/// Matching is by participating-trajectory overlap. For each current
/// cluster: no overlapping predecessor → `Born`; two or more → `Merged`;
/// exactly one → it continues that predecessor's lineage only if it is
/// the predecessor's *largest-overlap* successor (ties broken by smaller
/// key), in which case a cardinality change emits `Grew`/`Shrank`;
/// otherwise it is a split-off and emits `Born`. Predecessors that
/// overlap no current cluster emit `Died`. Events are ordered by key
/// (current clusters first, then deaths), so the output is deterministic
/// for deterministic inputs.
pub fn diff_drift(prev: &[TrajectoryCluster], curr: &[TrajectoryCluster]) -> Vec<DriftEvent> {
    let prev_sets: Vec<Box<[TrajectoryId]>> = prev
        .iter()
        .map(TrajectoryCluster::trajectory_union)
        .collect();
    let curr_sets: Vec<Box<[TrajectoryId]>> = curr
        .iter()
        .map(TrajectoryCluster::trajectory_union)
        .collect();

    // Every overlapping (previous, current) pair, counted once. For every
    // predecessor, the current cluster that inherits its lineage: largest
    // overlap, ties to the smaller current key. For every current
    // cluster, its overlapping predecessors in `prev` order.
    let mut parents_of: Vec<Vec<usize>> = vec![Vec::new(); curr_sets.len()];
    let heir_of: Vec<Option<usize>> = prev_sets
        .iter()
        .enumerate()
        .map(|(pi, ps)| {
            curr_sets
                .iter()
                .enumerate()
                .filter_map(|(ci, cs)| {
                    let overlap = crate::model::intersection_size(ps, cs);
                    (overlap > 0).then(|| {
                        parents_of[ci].push(pi);
                        (ci, overlap)
                    })
                })
                .max_by(|&(ai, oa), &(bi, ob)| {
                    oa.cmp(&ob)
                        .then_with(|| key_of(&curr_sets[bi]).cmp(&key_of(&curr_sets[ai])))
                })
                .map(|(ci, _)| ci)
        })
        .collect();

    let mut order: Vec<usize> = (0..curr_sets.len()).collect();
    order.sort_by_key(|&i| key_of(&curr_sets[i]));

    let mut events = Vec::new();
    let mut survived = vec![false; prev_sets.len()];
    for ci in order {
        let cs = &curr_sets[ci];
        match parents_of[ci].as_slice() {
            [] => events.push(DriftEvent::Born {
                key: key_of(cs),
                size: cs.len(),
            }),
            [pi] => {
                survived[*pi] = true;
                if heir_of[*pi] == Some(ci) {
                    let from = prev_sets[*pi].len();
                    let to = cs.len();
                    if to > from {
                        events.push(DriftEvent::Grew {
                            key: key_of(cs),
                            from,
                            to,
                        });
                    } else if to < from {
                        events.push(DriftEvent::Shrank {
                            key: key_of(cs),
                            from,
                            to,
                        });
                    }
                } else {
                    // Split-off: the lineage went to a larger sibling.
                    events.push(DriftEvent::Born {
                        key: key_of(cs),
                        size: cs.len(),
                    });
                }
            }
            many => {
                let mut sources: Vec<u64> = many.iter().map(|&pi| key_of(&prev_sets[pi])).collect();
                sources.sort_unstable();
                for &pi in many {
                    survived[pi] = true;
                }
                events.push(DriftEvent::Merged {
                    key: key_of(cs),
                    sources,
                });
            }
        }
    }

    let mut deaths: Vec<usize> = (0..prev_sets.len()).filter(|&i| !survived[i]).collect();
    deaths.sort_by_key(|&i| key_of(&prev_sets[i]));
    for pi in deaths {
        events.push(DriftEvent::Died {
            key: key_of(&prev_sets[pi]),
            size: prev_sets[pi].len(),
        });
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
    use neat_traj::TFragment;

    fn frag_at(tr: u64, seg: usize, time: f64) -> TFragment {
        let loc = |t| RoadLocation::new(SegmentId::new(seg), Point::new(0.0, 0.0), t);
        TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: SegmentId::new(seg),
            first: loc(time - 1.0),
            last: loc(time),
            point_count: 2,
        }
    }

    fn chain_flow(net: &neat_rnet::RoadNetwork, specs: &[(usize, &[(u64, f64)])]) -> FlowCluster {
        let mut flow: Option<FlowCluster> = None;
        for &(seg, frags) in specs {
            let members: Vec<TFragment> =
                frags.iter().map(|&(tr, t)| frag_at(tr, seg, t)).collect();
            let base = BaseCluster::new(SegmentId::new(seg), members).unwrap();
            flow = Some(match flow.take() {
                None => FlowCluster::from_base(net, base).unwrap(),
                Some(mut f) => {
                    f.push_back(net, base).unwrap();
                    f
                }
            });
        }
        flow.unwrap()
    }

    #[test]
    fn expiry_drops_old_fragments_and_whole_flows() {
        let net = chain_network(6, 100.0, 10.0);
        let fresh = chain_flow(&net, &[(0, &[(1, 100.0), (2, 120.0)])]);
        let stale = chain_flow(&net, &[(3, &[(9, 5.0)])]);
        let (kept, stats) = expire_flows(vec![fresh.clone(), stale], 50.0);
        assert_eq!(kept, vec![fresh]);
        assert_eq!(stats.expired_fragments, 1);
        assert_eq!(stats.expired_flows, 1);
        assert_eq!(stats.split_flows, 0);
    }

    #[test]
    fn interior_expiry_splits_a_flow_into_valid_runs() {
        let net = chain_network(6, 100.0, 10.0);
        // Three-segment route; the middle member is entirely stale.
        let flow = chain_flow(
            &net,
            &[
                (0, &[(1, 100.0)]),
                (1, &[(1, 5.0)]),
                (2, &[(1, 110.0), (2, 6.0)]),
            ],
        );
        let (kept, stats) = expire_flows(vec![flow], 50.0);
        assert_eq!(kept.len(), 2);
        assert_eq!(stats.split_flows, 1);
        assert_eq!(stats.expired_fragments, 2);
        // Each run is still a valid route with a consistent node chain.
        for f in &kept {
            assert!(net.is_route(&f.route()));
            assert_eq!(f.node_chain().len(), f.members().len() + 1);
        }
        assert_eq!(kept[0].route(), vec![SegmentId::new(0)]);
        assert_eq!(kept[1].route(), vec![SegmentId::new(2)]);
    }

    #[test]
    fn expiry_boundary_is_half_open() {
        let net = chain_network(3, 100.0, 10.0);
        // last.time == watermark survives (expiry is `< watermark`).
        let flow = chain_flow(&net, &[(0, &[(1, 50.0), (2, 49.999)])]);
        let (kept, stats) = expire_flows(vec![flow], 50.0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].density(), 1);
        assert_eq!(stats.expired_fragments, 1);
    }

    /// Expiry that rebuilds every member of every flow from its
    /// surviving fragments, touched or not.
    fn expire_rebuilding_everything(
        flows: Vec<FlowCluster>,
        watermark: f64,
    ) -> (Vec<FlowCluster>, ExpiryStats) {
        let mut kept = Vec::new();
        let mut stats = ExpiryStats::default();
        for flow in flows {
            let nodes = flow.node_chain().to_vec();
            let mut pruned: Vec<Option<BaseCluster>> = Vec::new();
            for member in flow.members() {
                let live: Vec<_> = member
                    .fragments()
                    .iter()
                    .filter(|f| f.last.time >= watermark)
                    .cloned()
                    .collect();
                stats.expired_fragments += member.fragments().len() - live.len();
                pruned.push(
                    (!live.is_empty()).then(|| BaseCluster::new(member.segment(), live).unwrap()),
                );
            }
            let mut runs = 0;
            let mut i = 0;
            while i < pruned.len() {
                if pruned[i].is_none() {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < pruned.len() && pruned[i].is_some() {
                    i += 1;
                }
                let members = pruned[start..i]
                    .iter_mut()
                    .map(|m| m.take().unwrap())
                    .collect();
                kept.push(FlowCluster::from_parts(members, nodes[start..=i].to_vec()).unwrap());
                runs += 1;
            }
            if runs == 0 {
                stats.expired_flows += 1;
            } else if runs > 1 {
                stats.split_flows += runs - 1;
            }
        }
        (kept, stats)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Generated flows (1–6 members of 1–5 fragments, unsorted and
        /// repeating trajectory ids) under watermarks from below every
        /// fragment to above them all: expiry that keeps untouched flows
        /// and members equals expiry that rebuilds everything.
        #[test]
        fn expiry_equals_rebuilding_everything(
            shapes in proptest::collection::vec(
                (0usize..4, proptest::collection::vec(
                    proptest::collection::vec((0u64..12, 0.0f64..100.0), 1..6), 1..7)),
                0..6),
            watermark in -5.0f64..110.0,
        ) {
            let net = chain_network(11, 100.0, 10.0);
            let flows: Vec<FlowCluster> = shapes
                .iter()
                .map(|(start, members)| {
                    let specs: Vec<(usize, &[(u64, f64)])> = members
                        .iter()
                        .enumerate()
                        .map(|(i, frags)| (start + i, frags.as_slice()))
                        .collect();
                    chain_flow(&net, &specs)
                })
                .collect();
            let want = expire_rebuilding_everything(flows.clone(), watermark);
            proptest::prop_assert_eq!(expire_flows(flows, watermark), want);
        }
    }

    fn cluster(ids: &[u64]) -> TrajectoryCluster {
        let net = chain_network(3, 100.0, 10.0);
        let frags: Vec<TFragment> = ids.iter().map(|&tr| frag_at(tr, 0, 10.0)).collect();
        let base = BaseCluster::new(SegmentId::new(0), frags).unwrap();
        TrajectoryCluster::new(vec![FlowCluster::from_base(&net, base).unwrap()])
    }

    #[test]
    fn drift_born_grew_shrank_died() {
        let prev = vec![cluster(&[1, 2, 3]), cluster(&[10, 11])];
        let curr = vec![cluster(&[1, 2]), cluster(&[20])];
        let events = diff_drift(&prev, &curr);
        assert_eq!(
            events,
            vec![
                DriftEvent::Shrank {
                    key: 1,
                    from: 3,
                    to: 2
                },
                DriftEvent::Born { key: 20, size: 1 },
                DriftEvent::Died { key: 10, size: 2 },
            ]
        );
        let grew = diff_drift(&curr, &[cluster(&[1, 2, 4, 5]), cluster(&[20])]);
        assert_eq!(
            grew,
            vec![DriftEvent::Grew {
                key: 1,
                from: 2,
                to: 4
            }]
        );
    }

    #[test]
    fn drift_merge_and_split() {
        let a = cluster(&[1, 2]);
        let b = cluster(&[5, 6]);
        let merged = cluster(&[1, 2, 5, 6]);
        assert_eq!(
            diff_drift(&[a.clone(), b.clone()], std::slice::from_ref(&merged)),
            vec![DriftEvent::Merged {
                key: 1,
                sources: vec![1, 5]
            }]
        );
        // Split: the larger-overlap half keeps the lineage (Shrank), the
        // other half is Born.
        let big = cluster(&[1, 2, 3, 5]);
        let events = diff_drift(&[big], &[cluster(&[1, 2, 3]), cluster(&[5])]);
        assert_eq!(
            events,
            vec![
                DriftEvent::Shrank {
                    key: 1,
                    from: 4,
                    to: 3
                },
                DriftEvent::Born { key: 5, size: 1 },
            ]
        );
    }

    #[test]
    fn drift_no_change_is_silent() {
        let prev = vec![cluster(&[1, 2]), cluster(&[7])];
        assert!(diff_drift(&prev, &prev.clone()).is_empty());
    }

    #[test]
    fn drift_counts_absorb() {
        let mut counts = DriftCounts::default();
        counts.absorb(&[
            DriftEvent::Born { key: 1, size: 1 },
            DriftEvent::Died { key: 2, size: 1 },
            DriftEvent::Merged {
                key: 3,
                sources: vec![3, 4],
            },
        ]);
        assert_eq!(counts.born, 1);
        assert_eq!(counts.died, 1);
        assert_eq!(counts.merged, 1);
        assert_eq!(counts.total(), 3);
    }
}
