//! Property-based coverage of the retention algebra on the public
//! `IncrementalNeat` API.
//!
//! The load-bearing law is *expiry/ingest commutativity*: for a fresh
//! batch `B` (every observation at or after the watermark `w`),
//!
//! ```text
//! ingest(A); expire(w); ingest(B)  ≡  ingest(A); ingest(B); expire(w)
//! ```
//!
//! must hold on the retained state. This is what makes a windowed
//! stream deterministic regardless of *when* the service interleaves
//! watermark ticks with batches — the chaos and soak harnesses lean on
//! it. The second law is idempotence: re-expiring at the same (or an
//! older) watermark must change nothing and report `advanced = false`.
//!
//! The third is the view contract: the clusters a session keeps between
//! operations never diverge from a fresh phase-3 refinement of its
//! retained flows, and drift is always diffed between two full
//! refinements — never against a degraded view.

use neat_core::phase3::refine_flow_clusters;
use neat_core::{
    diff_drift, DegradationStep, ErrorPolicy, IncrementalNeat, NeatConfig, TrajectoryCluster,
};
use neat_rnet::netgen::chain_network;
use neat_rnet::{Point, RoadLocation, RoadNetwork, SegmentId};
use neat_runctl::{CancelToken, Control, OverrunMode, RunBudget};
use neat_traj::{Dataset, Trajectory, TrajectoryId};
use proptest::prelude::*;

/// Deterministic random walks along a chain network, with every
/// timestamp offset by `t0` — the knob that makes a batch "old"
/// (entirely behind a watermark) or "fresh" (entirely at/after it).
fn walk_dataset(net: &RoadNetwork, walks: &[(usize, usize)], t0: f64, id_base: u64) -> Dataset {
    let nsegs = net.segments().count();
    let mut data = Dataset::new("prop");
    for (i, &(start, len)) in walks.iter().enumerate() {
        let s0 = start % nsegs;
        let len = 1 + len % (nsegs - s0);
        let mut points = Vec::new();
        let mut t = t0 + i as f64 * 1000.0;
        for seg in s0..s0 + len {
            for j in 0..3u32 {
                let x = seg as f64 * 100.0 + f64::from(j) * 30.0;
                points.push(RoadLocation::new(
                    SegmentId::new(seg),
                    Point::new(x, 0.0),
                    t,
                ));
                t += 5.0;
            }
        }
        if points.len() >= 2 {
            data.push(
                Trajectory::new(TrajectoryId::new(id_base + i as u64), points).expect("valid walk"),
            );
        }
    }
    data
}

fn config() -> NeatConfig {
    NeatConfig {
        min_card: 2,
        epsilon: 500.0,
        ..NeatConfig::default()
    }
}

/// Retained-state fingerprint: watermark, flows and resilience (the
/// exact state a checkpoint would persist, minus the op counter, which
/// both interleavings advance identically anyway).
fn fingerprint(s: &IncrementalNeat<'_>) -> String {
    format!(
        "{:?}|{:#?}|{:#?}",
        s.watermark(),
        s.flow_clusters(),
        s.resilience()
    )
}

/// A full phase-3 refinement of `s`'s retained flows, from scratch.
fn fresh(net: &RoadNetwork, s: &IncrementalNeat<'_>) -> Vec<TrajectoryCluster> {
    refine_flow_clusters(net, s.flow_clusters().to_vec(), s.config())
        .unwrap()
        .clusters
}

/// Ingests `batch` under the smallest op budget that lets phases 1–2
/// finish, so phase 3 runs out of budget and degrades to ELB-only
/// decisions. Returns the degraded clusters, or `None` (with `s`
/// untouched) when no budget degrades — phase 3 with fewer than two
/// flows has no pair to decide.
fn ingest_elb_only(s: &mut IncrementalNeat<'_>, batch: &Dataset) -> Option<Vec<TrajectoryCluster>> {
    let probe = Control::unlimited();
    s.clone()
        .ingest_controlled(batch, ErrorPolicy::Strict, &probe)
        .unwrap();
    for ops in 0..=probe.ops() {
        let ctl = Control::new(RunBudget::unlimited().with_max_ops(ops), CancelToken::new())
            .with_overrun(OverrunMode::Degrade);
        let mut trial = s.clone();
        let out = trial
            .ingest_controlled(batch, ErrorPolicy::Strict, &ctl)
            .unwrap();
        if out.applied {
            if !out
                .degradation
                .steps
                .contains(&DegradationStep::ElbOnlyPhase3)
            {
                return None;
            }
            *s = trial;
            return Some(out.clusters);
        }
    }
    None
}

/// Advances `s` to `w` and checks the outcome against fresh refinements
/// on both sides of the expiry.
fn checked_advance(
    net: &RoadNetwork,
    s: &mut IncrementalNeat<'_>,
    w: f64,
) -> Result<(), TestCaseError> {
    let before = fresh(net, s);
    let out = s.expire_before(w).unwrap();
    prop_assert!(out.advanced, "{w} must advance past {:?}", s.watermark());
    let after = fresh(net, s);
    prop_assert_eq!(&out.events, &diff_drift(&before, &after));
    prop_assert_eq!(&out.clusters, &after);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated sequences of ingests (plain and ELB-only-degraded),
    /// advancing and no-op expiries and view reads: after every step the
    /// session's view equals a fresh refinement, and every advance
    /// reports clusters and drift of fresh before/after refinements.
    #[test]
    fn the_view_never_diverges_from_a_fresh_refinement(
        ops in proptest::collection::vec(
            (0u8..5, proptest::collection::vec((0usize..6, 0usize..6), 1..6), 0.0f64..1.0),
            1..12,
        ),
    ) {
        let net = chain_network(8, 100.0, 10.0);
        // A tighter ε than `config()`, so ELB-only decisions can merge
        // flows the exact distance keeps apart.
        let mut s = IncrementalNeat::new(&net, NeatConfig { epsilon: 250.0, ..config() });
        let mut t = 0.0;
        for (k, (kind, walks, frac)) in ops.iter().enumerate() {
            let w = s.watermark().unwrap_or(0.0);
            match kind {
                0 | 1 => {
                    // Every walk twice, so each route reaches `min_card`.
                    let walks: Vec<_> = walks.iter().flat_map(|&w| [w, w]).collect();
                    let batch = walk_dataset(&net, &walks, t, 100 * k as u64);
                    t += 1000.0 * (walks.len() as f64 + 1.0);
                    if *kind == 0 {
                        s.ingest(&batch).unwrap();
                    } else if let Some(degraded) = ingest_elb_only(&mut s, &batch) {
                        prop_assert_eq!(degraded.is_empty(), s.flow_clusters().is_empty());
                        prop_assert_eq!(&s.current_clusters().unwrap(), &fresh(&net, &s));
                        // Drift across the next advance must be diffed
                        // against the full refinement, not this view.
                        checked_advance(&net, &mut s, w + 1.0 + frac * (t - w))?;
                    }
                }
                2 => checked_advance(&net, &mut s, w + 1.0 + frac * (t - w).max(0.0))?,
                3 => {
                    let stale = s.watermark().map_or(f64::NAN, |w| w - frac * 1000.0);
                    let (flows, batches) = (s.flow_clusters().to_vec(), s.batches());
                    let out = s.expire_before(stale).unwrap();
                    prop_assert!(!out.advanced);
                    prop_assert!(out.events.is_empty());
                    prop_assert_eq!(&out.clusters, &fresh(&net, &s));
                    prop_assert_eq!(s.flow_clusters(), flows.as_slice());
                    prop_assert_eq!(s.batches(), batches);
                }
                _ => prop_assert_eq!(&s.current_clusters().unwrap(), &fresh(&net, &s)),
            }
            prop_assert_eq!(&s.current_clusters().unwrap(), &fresh(&net, &s));
        }
    }

    /// `A` is old traffic, `B` fresh traffic entirely after `w`
    /// (`w` may fall inside `A`, expiring it partially, or past it,
    /// expiring it wholly — both sides of "entirely inside/outside the
    /// window" are generated).
    #[test]
    fn expiry_commutes_with_fresh_ingest(
        walks_a in proptest::collection::vec((0usize..6, 0usize..6), 1..10),
        walks_b in proptest::collection::vec((0usize..6, 0usize..6), 1..10),
        w in 500.0f64..90_000.0,
    ) {
        let net = chain_network(8, 100.0, 10.0);
        // A's timestamps live in [0, ~10_500); B's start at 100_000,
        // strictly after every generated watermark.
        let a = walk_dataset(&net, &walks_a, 0.0, 0);
        let b = walk_dataset(&net, &walks_b, 100_000.0, 1000);
        prop_assume!(!a.is_empty() && !b.is_empty());

        let mut early = IncrementalNeat::new(&net, config());
        early.ingest(&a).unwrap();
        early.expire_before(w).unwrap();
        early.ingest(&b).unwrap();

        let mut late = IncrementalNeat::new(&net, config());
        late.ingest(&a).unwrap();
        late.ingest(&b).unwrap();
        late.expire_before(w).unwrap();

        prop_assert_eq!(fingerprint(&early), fingerprint(&late));
        prop_assert_eq!(early.batches(), late.batches());
    }

    /// Expiring twice at the same watermark — or again at any older
    /// one — is a no-op that reports `advanced = false`.
    #[test]
    fn expiry_is_idempotent(
        walks in proptest::collection::vec((0usize..6, 0usize..6), 1..10),
        w in 500.0f64..20_000.0,
        back in 0.0f64..5_000.0,
    ) {
        let net = chain_network(8, 100.0, 10.0);
        let data = walk_dataset(&net, &walks, 0.0, 0);
        prop_assume!(!data.is_empty());

        let mut s = IncrementalNeat::new(&net, config());
        s.ingest(&data).unwrap();
        s.expire_before(w).unwrap();
        let once = fingerprint(&s);
        let ops = s.batches();

        let again = s.expire_before(w).unwrap();
        prop_assert!(!again.advanced, "same watermark must not re-advance");
        prop_assert_eq!(again.expired_fragments, 0);
        let older = s.expire_before(w - back).unwrap();
        prop_assert!(!older.advanced, "older watermark must not regress");
        prop_assert_eq!(older.expired_fragments, 0);

        prop_assert_eq!(fingerprint(&s), once);
        prop_assert_eq!(s.batches(), ops, "no-op expiry must not consume sequence numbers");
    }
}

/// Two populations that one ELB-only pair decision merges but the exact
/// distance keeps apart: the degraded view differs from the full one,
/// and an expiry of the older population must report it dying (the
/// full view), not shrinking out of the merged cluster (the degraded
/// view).
#[test]
fn drift_after_a_degraded_ingest_is_diffed_against_the_full_refinement() {
    let net = chain_network(8, 100.0, 10.0);
    let cfg = NeatConfig {
        min_card: 2,
        epsilon: 250.0,
        ..NeatConfig::default()
    };
    let mut s = IncrementalNeat::new(&net, cfg);
    // Walks 0–1 cover segments 0–1 at t < 1100; walks 2–3 cover
    // segments 4–5 at t >= 2000.
    let batch = walk_dataset(&net, &[(0, 1), (0, 1), (4, 1), (4, 1)], 0.0, 0);
    let degraded = ingest_elb_only(&mut s, &batch).expect("phase 3 degrades");
    let full = fresh(&net, &s);
    assert_eq!((degraded.len(), full.len()), (1, 2));

    let out = s.expire_before(1500.0).unwrap();
    assert!(out.advanced);
    let after = fresh(&net, &s);
    assert_eq!(out.events, diff_drift(&full, &after));
    assert_ne!(out.events, diff_drift(&degraded, &after));
    assert_eq!(s.current_clusters().unwrap(), after);
}
