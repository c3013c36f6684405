//! Phase-1 bit-identity across thread counts: the flat SoA front end
//! claims the exact same FP operation order per sample at every thread
//! count, so base clusters — fragment endpoints included, bit for bit —
//! the deterministic work counters and, under a budget, the interrupt
//! cut point must not depend on `threads`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use neat_repro::mobisim::{generate_dataset, SimConfig};
use neat_repro::neat::phase1::{form_base_clusters_ctl, form_base_clusters_parallel_with_policy};
use neat_repro::neat::{ErrorPolicy, PhaseStatus, ResilienceCounters};
use neat_repro::rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_repro::rnet::{Point, RoadLocation, RoadNetwork, SegmentId};
use neat_repro::runctl::{CancelToken, Control, Interrupt, RunBudget};
use neat_repro::traj::{Dataset, Trajectory, TrajectoryId};
use std::sync::OnceLock;

/// The chaos fixture shared with `parallel_determinism`: 4×4 grid,
/// 18 objects, seed 7.
fn chaos_fixture() -> &'static (RoadNetwork, Dataset) {
    static FIXTURE: OnceLock<(RoadNetwork, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = generate_grid_network(&GridNetworkConfig::small_test(4, 4), 7);
        let config = SimConfig {
            num_objects: 18,
            num_hotspots: 2,
            num_destinations: 2,
            sample_period_s: 4.0,
            ..SimConfig::default()
        };
        let data = generate_dataset(&net, &config, 7, "chaos");
        (net, data)
    })
}

/// Phase 1 on the chaos fixture is byte-identical across thread counts
/// {1, 2, 8}, for both junction modes and every error policy, and the
/// `samples_scanned` counter equals the dataset's total sample count.
#[test]
fn phase1_is_bit_identical_across_threads_on_the_chaos_fixture() {
    let (net, data) = chaos_fixture();
    let total_samples: usize = data.trajectories().iter().map(Trajectory::len).sum();
    for insert_junctions in [false, true] {
        for policy in [ErrorPolicy::Strict, ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let (reference, ref_counters) =
                form_base_clusters_parallel_with_policy(net, data, insert_junctions, 1, policy)
                    .expect("sequential phase 1");
            assert_eq!(reference.samples_scanned, total_samples);
            let want = format!("{reference:#?}\n{ref_counters:#?}");
            for threads in [1usize, 2, 8] {
                let (got, counters) = form_base_clusters_parallel_with_policy(
                    net,
                    data,
                    insert_junctions,
                    threads,
                    policy,
                )
                .expect("parallel phase 1");
                assert_eq!(
                    format!("{got:#?}\n{counters:#?}"),
                    want,
                    "phase 1 diverged: junctions={insert_junctions} {policy:?} threads={threads}"
                );
            }
        }
    }
}

/// The chaos fixture thinned to every third sample (plus the last), so
/// consecutive samples can skip segments and gap repair has to route.
fn thinned(data: &Dataset) -> Dataset {
    let mut thin = Dataset::new("thin");
    for tr in data.trajectories() {
        let pts = tr.points();
        let mut kept: Vec<RoadLocation> = pts.iter().step_by(3).copied().collect();
        if (pts.len() - 1) % 3 != 0 {
            kept.push(pts[pts.len() - 1]);
        }
        thin.push(Trajectory::new(tr.id(), kept).unwrap());
    }
    thin
}

/// `copies` copies of `data` under distinct ids: enough trajectories to
/// span many phase-1 chunks, so threads 2 and 8 take the parallel path.
fn replicated(data: &Dataset, copies: u64) -> Dataset {
    let mut out = Dataset::new("replicated");
    for copy in 0..copies {
        for tr in data.trajectories() {
            let id = TrajectoryId::new(tr.id().value() + copy * 1000);
            out.push(Trajectory::new(id, tr.points().to_vec()).unwrap());
        }
    }
    out
}

/// The first `k` trajectories of `data`.
fn prefix(data: &Dataset, k: usize) -> Dataset {
    let mut out = Dataset::new("prefix");
    out.extend(data.trajectories()[..k].iter().cloned());
    out
}

/// What one controlled phase-1 run delivered.
#[derive(Debug, PartialEq)]
struct Run {
    status: PhaseStatus,
    ops: u64,
    settled: u64,
    counters: ResilienceCounters,
    /// `Debug` rendering of the output.
    output: String,
}

/// Runs controlled phase 1 at threads {1, 2, 8}, each under a fresh
/// control from `control`, asserts the three runs are byte-identical
/// (output, counters, status and the control's op/settled totals) and
/// returns the shared result.
fn run_at_every_thread_count(
    net: &RoadNetwork,
    data: &Dataset,
    insert_junctions: bool,
    policy: ErrorPolicy,
    control: impl Fn() -> Control,
) -> Run {
    let runs: Vec<Run> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let ctl = control();
            let (out, counters, status) =
                form_base_clusters_ctl(net, data, insert_junctions, threads, policy, &ctl)
                    .expect("controlled phase 1");
            Run {
                status,
                ops: ctl.ops(),
                settled: ctl.settled(),
                counters,
                output: format!("{out:#?}"),
            }
        })
        .collect();
    assert_eq!(runs[1], runs[0], "threads=2 diverged from threads=1");
    assert_eq!(runs[2], runs[0], "threads=8 diverged from threads=1");
    runs.into_iter().next().unwrap()
}

fn op_budget(max_ops: u64) -> impl Fn() -> Control {
    move || {
        Control::new(
            RunBudget::unlimited().with_max_ops(max_ops),
            CancelToken::new(),
        )
    }
}

fn settled_budget(max: u64) -> impl Fn() -> Control {
    move || {
        Control::new(
            RunBudget::unlimited().with_max_settled_nodes(max),
            CancelToken::new(),
        )
    }
}

/// Arms an op budget at trajectory boundaries and checks each cut: the
/// run stops exactly before trajectory `k`, at every thread count, and
/// delivers what an unbudgeted run over the first `k` trajectories does.
fn assert_cuts_at_boundaries(
    net: &RoadNetwork,
    data: &Dataset,
    insert_junctions: bool,
    boundaries: impl Iterator<Item = usize>,
) {
    let policy = ErrorPolicy::Skip;
    // Ops charged by each trajectory on its own: its check point plus
    // the settled nodes of its gap repairs.
    let cost: Vec<u64> = data
        .trajectories()
        .iter()
        .map(|tr| {
            let ctl = Control::unlimited();
            let mut single = Dataset::new("single");
            single.push(tr.clone());
            form_base_clusters_ctl(net, &single, insert_junctions, 1, policy, &ctl).unwrap();
            ctl.ops()
        })
        .collect();
    let total = data.len();
    for k in boundaries {
        let max_ops: u64 = cost[..k].iter().sum();
        let run =
            run_at_every_thread_count(net, data, insert_junctions, policy, op_budget(max_ops));
        let want = if k < total {
            PhaseStatus::Partial {
                done: k,
                total,
                why: Interrupt::OpBudgetExhausted,
            }
        } else {
            PhaseStatus::Complete
        };
        assert_eq!(run.status, want, "junctions={insert_junctions} k={k}");
        let (out, counters) = form_base_clusters_parallel_with_policy(
            net,
            &prefix(data, k),
            insert_junctions,
            1,
            policy,
        )
        .unwrap();
        assert_eq!(
            (&run.output, &run.counters),
            (&format!("{out:#?}"), &counters),
            "junctions={insert_junctions} k={k}: the cut must deliver the k-prefix"
        );
    }
}

/// An op budget armed at every trajectory boundary of the chaos fixture
/// cuts phase 1 before that trajectory, byte-identically at threads
/// {1, 2, 8}. The pinned cut points were recorded from the extractor
/// this code replaced.
#[test]
fn op_budget_cuts_phase1_at_every_trajectory_boundary() {
    let (net, data) = chaos_fixture();
    for insert_junctions in [true, false] {
        assert_cuts_at_boundaries(net, data, insert_junctions, 0..=data.len());
        for (max_ops, done) in [(0, 0), (1, 1), (5, 5), (17, 17)] {
            let run = run_at_every_thread_count(
                net,
                data,
                insert_junctions,
                ErrorPolicy::Skip,
                op_budget(max_ops),
            );
            assert_eq!(
                run.status,
                PhaseStatus::Partial {
                    done,
                    total: 18,
                    why: Interrupt::OpBudgetExhausted
                }
            );
        }
        let run = run_at_every_thread_count(
            net,
            data,
            insert_junctions,
            ErrorPolicy::Skip,
            op_budget(40),
        );
        assert_eq!((run.status, run.ops), (PhaseStatus::Complete, 18));
    }
}

/// The same boundary matrix over 30 copies of the thinned chaos fixture:
/// 540 trajectories in 17 chunks, with gap repairs, so threads 2 and 8
/// run chunks speculatively and replay the one a budget fires in.
#[test]
fn op_budget_cuts_are_thread_invariant_across_chunks() {
    let (net, data) = chaos_fixture();
    let many = replicated(&thinned(data), 30);
    let boundaries = (0..=many.len()).filter(|k| k % 7 == 0 || matches!(k % 32, 0 | 1 | 31));
    assert_cuts_at_boundaries(net, &many, true, boundaries);
}

/// A settled-node budget fires inside the gap repair of the thinned
/// fixture's only routing trajectory (#17, 12 settled nodes): the cut
/// drops that trajectory whole. Values recorded from the extractor this
/// code replaced.
#[test]
fn settled_node_budget_fires_inside_a_gap_repair() {
    let (net, data) = chaos_fixture();
    let thin = thinned(data);
    let free = run_at_every_thread_count(net, &thin, true, ErrorPolicy::Skip, Control::unlimited);
    assert_eq!(
        (free.status, free.ops, free.settled),
        (PhaseStatus::Complete, 30, 12)
    );
    for (max, ops, settled) in [(1, 20, 2), (4, 23, 5), (6, 25, 7), (11, 30, 12)] {
        let run =
            run_at_every_thread_count(net, &thin, true, ErrorPolicy::Skip, settled_budget(max));
        let want = PhaseStatus::Partial {
            done: 17,
            total: 18,
            why: Interrupt::SettledNodeBudgetExhausted,
        };
        assert_eq!(
            (run.status, run.ops, run.settled),
            (want, ops, settled),
            "max={max}"
        );
    }
    // Across chunks: every seventh settled node of 30 copies.
    let many = replicated(&thin, 30);
    for max in (0..30 * 12).step_by(7) {
        let run =
            run_at_every_thread_count(net, &many, true, ErrorPolicy::Skip, settled_budget(max));
        assert!(
            matches!(run.status, PhaseStatus::Partial { .. }),
            "max={max}"
        );
        assert_eq!(
            run.settled,
            max + 1,
            "max={max}: fires on the next settlement"
        );
    }
}

/// A trajectory whose last sample sits on a segment the network lacks,
/// after transitions that need gap repair. The segment pre-scan rejects
/// it before any routing, so under `Skip` it charges one op and no
/// settled nodes, and under `Repair` only the retry routes. (The
/// per-trajectory extractor this code replaced routed the good
/// transitions first: 31 ops / 12 settled under `Skip`, 43 / 24 under
/// `Repair`, so a budget of 19 ops cut it after 7 trajectories.)
#[test]
fn prescan_rejected_trajectory_charges_no_routing() {
    let (net, data) = chaos_fixture();
    let thin = thinned(data);
    let routed = &thin.trajectories()[17];
    let mut pts = routed.points().to_vec();
    let last = pts[pts.len() - 1];
    pts.push(RoadLocation::new(
        SegmentId::new(net.segment_count() + 5),
        Point::new(last.position.x, last.position.y),
        last.time + 1.0,
    ));
    let mut mixed = Dataset::new("mixed");
    mixed.push(Trajectory::new(TrajectoryId::new(999), pts).unwrap());
    mixed.extend(data.trajectories().iter().cloned());

    let skip = run_at_every_thread_count(net, &mixed, true, ErrorPolicy::Skip, Control::unlimited);
    assert_eq!(
        (skip.status, skip.ops, skip.settled),
        (PhaseStatus::Complete, 19, 0)
    );
    assert_eq!(skip.counters.skipped_ids, vec![TrajectoryId::new(999)]);
    let budgeted = run_at_every_thread_count(net, &mixed, true, ErrorPolicy::Skip, op_budget(19));
    assert_eq!(budgeted, skip, "19 ops cover the whole skip run");

    let repair =
        run_at_every_thread_count(net, &mixed, true, ErrorPolicy::Repair, Control::unlimited);
    assert_eq!(
        (repair.status, repair.ops, repair.settled),
        (PhaseStatus::Complete, 31, 12)
    );
    assert_eq!((repair.counters.repaired, repair.counters.skipped), (1, 0));
}
