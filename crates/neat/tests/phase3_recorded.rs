//! Phase 3 reproduces the recorded refinements of the scan it replaced.
//!
//! The digests below were recorded from the earlier phase-3 body, which
//! had four neighbourhood-scan paths (an ELB-only continuation, a
//! table-mode bound filter fanned out over the executor, a sequential
//! exact scan and an uncontrolled parallel exact scan). Each digest folds,
//! run by run, the output clusters, `PhaseStatus`, the `elb_only` flag,
//! `Phase3Stats` and the final `ctl.ops()`/`ctl.settled()` of a sweep:
//!
//! * an op budget at every op count up to the free run's total, so every
//!   pair boundary and every settlement is a stop point, under both
//!   `OverrunMode::Degrade` and `OverrunMode::Partial`;
//! * a settled-node budget at every settlement, which fires inside ALT
//!   landmark preprocessing and inside the endpoint-table expansions;
//! * a fused cancellation at every poll, both from the start and after a
//!   budget has already degraded the scan to ELB-only.
//!
//! The configurations cover endpoint tables with and without the bound
//! filter, full routes and the Dijkstra ablation. (A fifth, pairwise
//! bounded searches on endpoints, went with the option that selected
//! it: the default configuration always answers endpoints from tables.)
//!
//! Every sweep runs twice: each refinement with a cold landmark memo,
//! and each with one memo warmed by an earlier free run. A warm memo
//! charges what a build would, so both passes match the same digests.

use neat_core::phase3::{clusters_of, refine_flow_clusters, refine_flow_clusters_ctl, Landmarks};
use neat_core::{BaseCluster, FlowCluster, NeatConfig, RouteDistance, SpStrategy};
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::{NodeId, Point, RoadLocation, RoadNetwork, SegmentId};
use neat_runctl::{CancelToken, Control, OpClock, OverrunMode, RunBudget, DEADLINE_STRIDE};
use neat_traj::{TFragment, TrajectoryId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn net() -> RoadNetwork {
    generate_grid_network(&GridNetworkConfig::small_test(6, 6), 11)
}

/// A one-fragment base cluster of trajectory `tr` on `seg`.
fn base(seg: SegmentId, tr: u64) -> BaseCluster {
    let loc = RoadLocation::new(seg, Point::new(0.0, 0.0), 0.0);
    let frag = TFragment {
        trajectory: TrajectoryId::new(tr),
        segment: seg,
        first: loc,
        last: loc,
        point_count: 2,
    };
    BaseCluster::new(seg, vec![frag]).unwrap()
}

/// `n` seeded random walks of 1–4 segments, one trajectory per flow.
fn flows(net: &RoadNetwork, n: u64) -> Vec<FlowCluster> {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let segs = net.segment_count();
    (0..n)
        .map(|tr| {
            let mut seg = SegmentId::new(rng.gen_range(0..segs));
            let mut f = FlowCluster::from_base(net, base(seg, tr)).unwrap();
            for _ in 0..rng.gen_range(0..4usize) {
                let end: NodeId = f.back_endpoint();
                let next: Vec<SegmentId> = net
                    .incident_segments(end)
                    .iter()
                    .copied()
                    .filter(|&s| s != seg)
                    .collect();
                if next.is_empty() {
                    break;
                }
                seg = next[rng.gen_range(0..next.len())];
                f.push_back(net, base(seg, tr)).unwrap();
            }
            f
        })
        .collect()
}

/// The recorded configurations and how many of the walks each refines.
/// The unbounded Dijkstra ablation settles the whole network per search,
/// so it gets fewer flows to keep the every-op sweeps short.
fn configs() -> [(&'static str, u64, NeatConfig); 4] {
    let tables = NeatConfig {
        epsilon: 260.0,
        ..NeatConfig::default()
    };
    [
        ("endpoint-tables", 14, tables),
        (
            "endpoint-tables-no-elb",
            14,
            NeatConfig {
                use_elb: false,
                ..tables
            },
        ),
        (
            "full-route",
            14,
            NeatConfig {
                route_distance: RouteDistance::FullRoute,
                ..tables
            },
        ),
        (
            "dijkstra",
            8,
            NeatConfig {
                sp_strategy: SpStrategy::Dijkstra,
                use_elb: false,
                ..tables
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

/// One controlled refinement, rendered: clusters, status, `elb_only`,
/// stats and the final control counters. Every run, stopped or not,
/// must partition the flows: each index in exactly one group. `warm`
/// is the landmark memo to use; `None` runs with a cold one.
fn run(
    net: &RoadNetwork,
    n: u64,
    cfg: &NeatConfig,
    warm: Option<&Landmarks>,
    ctl: &Control,
) -> String {
    let flows = flows(net, n);
    let cold = Landmarks::new(net);
    let landmarks = warm.unwrap_or(&cold);
    let out = refine_flow_clusters_ctl(net, &flows, cfg, landmarks, Some(ctl)).unwrap();
    let mut covered: Vec<usize> = out.groups.concat();
    covered.sort_unstable();
    assert_eq!(
        covered,
        (0..flows.len()).collect::<Vec<_>>(),
        "{:?}",
        out.groups
    );
    format!(
        "{:?}\n{:?}\n{}\n{:?}\n{}/{}\n",
        clusters_of(&out.groups, &flows),
        out.status,
        out.elb_only,
        out.stats,
        ctl.ops(),
        ctl.settled()
    )
}

/// Folds the runs of one sweep into a digest.
fn sweep(
    net: &RoadNetwork,
    (n, cfg, warm): (u64, &NeatConfig, Option<&Landmarks>),
    limits: std::ops::RangeInclusive<u64>,
    make: impl Fn(u64) -> Control,
) -> u64 {
    limits.fold(FNV_BASIS, |digest, limit| {
        fnv(digest, run(net, n, cfg, warm, &make(limit)).as_bytes())
    })
}

/// A memo warmed by a free refinement of the `n` walks.
fn warmed<'n>(net: &'n RoadNetwork, n: u64, cfg: &NeatConfig) -> Landmarks<'n> {
    let warm = Landmarks::new(net);
    refine_flow_clusters_ctl(net, &flows(net, n), cfg, &warm, None).unwrap();
    assert_eq!(warm.settled().is_some(), cfg.use_elb);
    warm
}

fn budget(b: RunBudget, mode: OverrunMode) -> Control {
    Control::new(b, CancelToken::new()).with_overrun(mode)
}

/// Per configuration: (free-run digest, free ops, free settled, and the
/// sweep digests: ops×Degrade, ops×Partial, settled×Degrade,
/// settled×Partial, cancel, cancel-after-degrade).
type Recorded = (&'static str, u64, u64, u64, [u64; 6]);

const RECORDED: [Recorded; 4] = [
    (
        "endpoint-tables",
        0x4d49_5901_8b53_d66c,
        373,
        295,
        [
            0xccf6_dafc_2e78_b6bd,
            0x54b2_ae41_b96b_0fd6,
            0x6073_08bc_c826_f7d5,
            0xf87a_94ce_b461_561a,
            0x7d0d_e358_dff5_c678,
            0x8d30_834f_9be8_27be,
        ],
    ),
    (
        "endpoint-tables-no-elb",
        0x93a8_ea6f_ff26_7f76,
        267,
        189,
        [
            0x2684_5819_cfa1_a509,
            0x65be_5062_3046_04a1,
            0xde86_9984_aec1_fc90,
            0x75c6_d826_150b_9e4a,
            0xac11_31f0_3970_1077,
            0xdd02_f698_9202_88a9,
        ],
    ),
    (
        "full-route",
        0xced0_50b8_82ae_a743,
        1044,
        964,
        [
            0x80e8_118c_23ee_ed98,
            0x3f68_3cae_d77d_f3af,
            0x98fb_ec66_4edd_de36,
            0x6a5a_6a8f_e46d_c185,
            0x1057_0f2e_42d5_9e47,
            0xf299_37ad_81dd_0651,
        ],
    ),
    (
        "dijkstra",
        0x90f3_98db_12c3_688a,
        1099,
        1074,
        [
            0x4553_c1ad_ae46_bab9,
            0xc52c_2ae5_fe82_36ac,
            0x06f5_1d79_7835_5ad2,
            0xcdfd_4ea1_5409_d63f,
            0xea98_45e1_f56e_bb82,
            0x6bb0_4167_d7a2_4cb3,
        ],
    ),
];

/// Every recorded sweep of every configuration, each refinement with a
/// cold memo or, when `warm`, with one memo warmed by a free run.
fn recorded_sweeps(net: &RoadNetwork, warm: bool) -> Vec<String> {
    let mut got: Vec<Recorded> = Vec::new();
    for ((name, n, cfg), recorded) in configs().into_iter().zip(RECORDED) {
        assert_eq!(name, recorded.0);
        let memo = warm.then(|| warmed(net, n, &cfg));
        let case = (n, &cfg, memo.as_ref());
        // Free runs: uncontrolled and under an unlimited control.
        let free = refine_flow_clusters(net, flows(net, n), &cfg).unwrap();
        // The fixture merges some flows and keeps others apart, and the
        // bound filter skips pairs by both bounds where it runs.
        let k = free.clusters.len() as u64;
        assert!(1 < k && k < n, "{name}: {k} clusters of {n}");
        if cfg.use_elb {
            assert!(
                free.stats.elb_skips > 0 && free.stats.alt_skips > 0,
                "{name}"
            );
        }
        let ctl = Control::unlimited();
        let unlimited = run(net, n, &cfg, memo.as_ref(), &ctl);
        let (ops, settled) = (ctl.ops(), ctl.settled());
        let free_fp = fnv(
            fnv(FNV_BASIS, format!("{free:?}\n").as_bytes()),
            unlimited.as_bytes(),
        );

        let mut digests = [0u64; 6];
        for (slot, mode) in [OverrunMode::Degrade, OverrunMode::Partial]
            .into_iter()
            .enumerate()
        {
            digests[slot] = sweep(net, case, 0..=ops + 1, |n| {
                budget(RunBudget::unlimited().with_max_ops(n), mode)
            });
            digests[2 + slot] = sweep(net, case, 0..=settled + 1, |n| {
                budget(RunBudget::unlimited().with_max_settled_nodes(n), mode)
            });
        }
        digests[4] = sweep(net, case, 0..=ops + 1, |n| {
            Control::new(RunBudget::unlimited(), CancelToken::armed_after(n))
        });
        // A budget that degrades a third of the way in, then a fuse at
        // every later poll: cancellation of the ELB-only continuation.
        let third = ops / 3;
        digests[5] = sweep(net, case, third..=ops + 1, |n| {
            Control::new(
                RunBudget::unlimited().with_max_ops(third),
                CancelToken::armed_after(n),
            )
            .with_overrun(OverrunMode::Degrade)
        });
        got.push((name, free_fp, ops, settled, digests));
    }
    got.iter().map(|r| format!("{r:#x?}")).collect()
}

#[test]
fn phase3_matches_the_recorded_scan() {
    let net = net();
    let want: Vec<String> = RECORDED.iter().map(|r| format!("{r:#x?}")).collect();
    assert_eq!(recorded_sweeps(&net, false), want, "cold landmark memos");
    assert_eq!(recorded_sweeps(&net, true), want, "warm landmark memo");
}

/// A deadline one [`OpClock`] tick away, after `pre` checks spent before
/// the refinement: the deadline fires at the refinement's
/// `DEADLINE_STRIDE - pre`-th op, the first clock consultation.
fn deadline_after(pre: u64, mode: OverrunMode) -> (Control, Arc<OpClock>) {
    let clock = Arc::new(OpClock::new(1));
    let ctl = budget(RunBudget::unlimited().with_deadline_ms(1), mode).with_clock(clock.clone());
    for _ in 0..pre {
        ctl.check().unwrap();
    }
    (ctl, clock)
}

#[test]
fn warm_and_cold_memos_meet_every_deadline_alike() {
    let net = net();
    for (name, n, cfg) in configs() {
        let warm = warmed(&net, n, &cfg);
        for mode in [OverrunMode::Degrade, OverrunMode::Partial] {
            for pre in 0..DEADLINE_STRIDE {
                let (cold_ctl, cold_clock) = deadline_after(pre, mode);
                let cold = run(&net, n, &cfg, None, &cold_ctl);
                let (warm_ctl, warm_clock) = deadline_after(pre, mode);
                let hot = run(&net, n, &cfg, Some(&warm), &warm_ctl);
                assert_eq!(cold, hot, "{name} {mode:?}: deadline after {pre} ops");
                assert_eq!(cold_clock.observations(), warm_clock.observations());
                assert!(cold_ctl.is_interrupted(), "{name}: {cold}");
            }
        }
    }
}
