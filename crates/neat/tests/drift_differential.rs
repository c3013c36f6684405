//! Differential test of `diff_drift` against a reference copy of its
//! `BTreeSet`-based formulation (participating sets as ordered trees,
//! overlap by membership probes, every pair re-tested per question).
//!
//! Before/after cluster lists are generated from one another by splits
//! (including even splits, which tie on overlap), merges, deaths, births,
//! growth and shrinkage, plus unrelated random lists; clusters of several
//! flows with overlapping trajectory sets exercise the union. The events
//! must be equal, in order.

use neat_core::{diff_drift, BaseCluster, DriftEvent, FlowCluster, TrajectoryCluster};
use neat_rnet::netgen::chain_network;
use neat_rnet::{Point, RoadLocation, RoadNetwork, SegmentId};
use neat_traj::{TFragment, TrajectoryId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

mod reference {
    use super::*;

    fn cluster_set(c: &TrajectoryCluster) -> BTreeSet<TrajectoryId> {
        let mut all = BTreeSet::new();
        for f in c.flows() {
            all.extend(f.participating_trajectories().iter().copied());
        }
        all
    }

    fn key_of(s: &BTreeSet<TrajectoryId>) -> u64 {
        s.iter().next().map(|t| t.value()).unwrap_or(u64::MAX)
    }

    fn intersects(a: &BTreeSet<TrajectoryId>, b: &BTreeSet<TrajectoryId>) -> bool {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        small.iter().any(|t| large.contains(t))
    }

    fn intersection_size(a: &BTreeSet<TrajectoryId>, b: &BTreeSet<TrajectoryId>) -> usize {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        small.iter().filter(|t| large.contains(t)).count()
    }

    /// Whether some predecessor has two overlapping successors of equal
    /// (largest) overlap, so the key tie-break decides its heir.
    pub fn has_overlap_tie(prev: &[TrajectoryCluster], curr: &[TrajectoryCluster]) -> bool {
        let curr_sets: Vec<_> = curr.iter().map(cluster_set).collect();
        prev.iter().map(cluster_set).any(|ps| {
            let mut overlaps: Vec<usize> = curr_sets
                .iter()
                .map(|cs| intersection_size(&ps, cs))
                .filter(|&o| o > 0)
                .collect();
            overlaps.sort_unstable();
            overlaps.len() >= 2 && overlaps[overlaps.len() - 1] == overlaps[overlaps.len() - 2]
        })
    }

    pub fn diff_drift(prev: &[TrajectoryCluster], curr: &[TrajectoryCluster]) -> Vec<DriftEvent> {
        let prev_sets: Vec<BTreeSet<TrajectoryId>> = prev.iter().map(cluster_set).collect();
        let curr_sets: Vec<BTreeSet<TrajectoryId>> = curr.iter().map(cluster_set).collect();

        let heir_of: Vec<Option<usize>> = prev_sets
            .iter()
            .map(|ps| {
                curr_sets
                    .iter()
                    .enumerate()
                    .filter(|(_, cs)| intersects(ps, cs))
                    .max_by(|(ai, a), (bi, b)| {
                        let oa = intersection_size(ps, a);
                        let ob = intersection_size(ps, b);
                        oa.cmp(&ob)
                            .then_with(|| key_of(&curr_sets[*bi]).cmp(&key_of(&curr_sets[*ai])))
                    })
                    .map(|(i, _)| i)
            })
            .collect();

        let mut order: Vec<usize> = (0..curr_sets.len()).collect();
        order.sort_by_key(|&i| key_of(&curr_sets[i]));

        let mut events = Vec::new();
        let mut survived = vec![false; prev_sets.len()];
        for ci in order {
            let cs = &curr_sets[ci];
            let parents: Vec<usize> = prev_sets
                .iter()
                .enumerate()
                .filter(|(_, ps)| intersects(ps, cs))
                .map(|(i, _)| i)
                .collect();
            match parents.as_slice() {
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
                        events.push(DriftEvent::Born {
                            key: key_of(cs),
                            size: cs.len(),
                        });
                    }
                }
                many => {
                    let mut sources: Vec<u64> =
                        many.iter().map(|&pi| key_of(&prev_sets[pi])).collect();
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
}

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

/// A trajectory cluster whose participating set is `ids`, spread over
/// one to three flows whose sets overlap, in shuffled fragment order.
fn cluster(net: &RoadNetwork, ids: &[u64], rng: &mut ChaCha8Rng) -> TrajectoryCluster {
    let flows_n = rng.gen_range(1..=3usize).min(ids.len());
    let mut parts: Vec<Vec<u64>> = vec![Vec::new(); flows_n];
    for (i, &id) in ids.iter().enumerate() {
        parts[i % flows_n].push(id);
        if rng.gen_bool(0.3) {
            parts[rng.gen_range(0..flows_n)].push(id);
        }
    }
    let flows = parts
        .into_iter()
        .enumerate()
        .map(|(seg, mut part)| {
            part.reverse();
            let frags = part.iter().map(|&t| frag(t, seg)).collect();
            let base = BaseCluster::new(SegmentId::new(seg), frags).unwrap();
            FlowCluster::from_base(net, base).unwrap()
        })
        .collect();
    TrajectoryCluster::new(flows)
}

fn random_set(universe: u64, rng: &mut ChaCha8Rng) -> Vec<u64> {
    let n = rng.gen_range(1..=universe.min(12));
    let set: BTreeSet<u64> = (0..n).map(|_| rng.gen_range(0..universe)).collect();
    set.into_iter().collect()
}

/// Derives the "after" sets from the "before" sets by one random
/// lifecycle operation per set, plus occasional births.
fn evolve(prev: &[Vec<u64>], universe: u64, rng: &mut ChaCha8Rng) -> Vec<Vec<u64>> {
    let mut curr: Vec<Vec<u64>> = Vec::new();
    let mut pending: Option<Vec<u64>> = None;
    for set in prev {
        match rng.gen_range(0..7u8) {
            // Unchanged.
            0 => curr.push(set.clone()),
            // Split, evenly or not.
            1 if set.len() >= 2 => {
                let at = if rng.gen_bool(0.5) {
                    set.len() / 2
                } else {
                    rng.gen_range(1..set.len())
                };
                curr.push(set[..at].to_vec());
                curr.push(set[at..].to_vec());
            }
            // Merge with the next set.
            2 => match pending.take() {
                Some(mut other) => {
                    other.extend_from_slice(set);
                    curr.push(other);
                }
                None => pending = Some(set.clone()),
            },
            // Death.
            3 => {}
            // Grow.
            4 => {
                let mut grown = set.clone();
                grown.push(universe + rng.gen_range(0..50));
                curr.push(grown);
            }
            // Shrink.
            5 if set.len() >= 2 => curr.push(set[1..].to_vec()),
            _ => curr.push(random_set(universe, rng)),
        }
    }
    curr.extend(pending);
    if rng.gen_bool(0.3) {
        curr.push(vec![universe + 100 + rng.gen_range(0..5)]);
    }
    curr
}

#[test]
fn diff_drift_equals_the_btreeset_reference() {
    let net = chain_network(5, 100.0, 10.0);
    let mut rng = ChaCha8Rng::seed_from_u64(0x0d71f7);
    let mut kinds = [0usize; 5];
    let mut ties = 0usize;
    for case in 0..600 {
        let universe = rng.gen_range(4..60u64);
        let prev_sets: Vec<Vec<u64>> = (0..rng.gen_range(0..8))
            .map(|_| random_set(universe, &mut rng))
            .collect();
        let curr_sets = if case % 5 == 0 {
            (0..rng.gen_range(0..8))
                .map(|_| random_set(universe, &mut rng))
                .collect()
        } else {
            evolve(&prev_sets, universe, &mut rng)
        };
        let prev: Vec<TrajectoryCluster> = prev_sets
            .iter()
            .map(|s| cluster(&net, s, &mut rng))
            .collect();
        let curr: Vec<TrajectoryCluster> = curr_sets
            .iter()
            .map(|s| cluster(&net, s, &mut rng))
            .collect();
        let want = reference::diff_drift(&prev, &curr);
        assert_eq!(
            diff_drift(&prev, &curr),
            want,
            "case {case}: {prev_sets:?} -> {curr_sets:?}"
        );
        ties += usize::from(reference::has_overlap_tie(&prev, &curr));
        for ev in &want {
            kinds[match ev {
                DriftEvent::Born { .. } => 0,
                DriftEvent::Grew { .. } => 1,
                DriftEvent::Shrank { .. } => 2,
                DriftEvent::Merged { .. } => 3,
                DriftEvent::Died { .. } => 4,
                _ => unreachable!("no other drift event"),
            }] += 1;
        }
    }
    // The generator reaches every event kind and the overlap tie-break.
    assert!(kinds.iter().all(|&k| k > 20), "event kinds {kinds:?}");
    assert!(ties > 20, "only {ties} cases tie on overlap");
}
