//! Gap-repair ablation: Phase 1 with and without junction insertion under
//! GPS dropout.
//!
//! Section III-A1 of the paper inserts junction nodes between
//! non-contiguous samples via shortest-path recovery, so segments
//! traversed *between* surviving samples still contribute t-fragments.
//! This experiment drops a fraction of samples and measures how much
//! segment coverage the repair preserves relative to naive splitting:
//! a run covers a reference segment when it forms a base cluster there.

use neat_bench::report::{secs, Report};
use neat_bench::setup::network;
use neat_bench::{parse_args, scaled, time};
use neat_core::phase1::{form_base_clusters_parallel_with_policy, Phase1Output};
use neat_core::ErrorPolicy;
use neat_mobisim::generate_dataset;
use neat_rnet::netgen::MapPreset;
use neat_rnet::{RoadNetwork, SegmentId};
use neat_traj::Dataset;
use std::collections::BTreeSet;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, seed) = parse_args(&args);
    let mut report = Report::new("gap_repair");
    report.line("Phase-1 gap repair ablation under GPS dropout (ATL)");
    report.line(format!("scale = {scale}, seed = {seed}"));

    let net = network(MapPreset::Atlanta, seed);
    let n = scaled(200, scale);
    let preset = neat_mobisim::presets::DatasetPreset::new(MapPreset::Atlanta, n);

    // Ground-truth coverage from the dropout-free dataset.
    let full = generate_dataset(&net, &preset.sim_config(), seed + 1, "full");
    let truth = segments(&phase1(&net, &full, true));
    report.line(format!(
        "dropout-free reference: {} trajectories covering {} segments",
        full.len(),
        truth.len()
    ));
    // Reference segments a run still covers, with their share.
    let covered = |out: &Phase1Output| {
        let hits = segments(out).intersection(&truth).count();
        format!("{hits} ({:.1}%)", 100.0 * hits as f64 / truth.len() as f64)
    };

    let mut rows = Vec::new();
    for dropout in [0.0, 0.3, 0.6, 0.8, 0.9] {
        let mut cfg = preset.sim_config();
        cfg.sample_dropout = dropout;
        let data = generate_dataset(&net, &cfg, seed + 1, "drop");
        let (with_repair, t_repair) = time(|| phase1(&net, &data, true));
        let (without, t_naive) = time(|| phase1(&net, &data, false));
        rows.push(vec![
            format!("{:.0}%", dropout * 100.0),
            data.total_points().to_string(),
            covered(&with_repair),
            covered(&without),
            with_repair.fragment_count.to_string(),
            without.fragment_count.to_string(),
            secs(t_repair),
            secs(t_naive),
        ]);
    }
    report.table(
        &[
            "dropout",
            "points",
            "covered segs (repair)",
            "covered segs (naive)",
            "fragments (repair)",
            "fragments (naive)",
            "repair s",
            "naive s",
        ],
        &rows,
    );
    report.line("expectation: repair holds coverage near 100% of the reference while naive splitting loses the segments traversed between surviving samples");
    let path = report.save().expect("write results");
    neat_bench::log::saved(&path);
}

/// The segments a Phase-1 run formed base clusters on.
fn segments(out: &Phase1Output) -> BTreeSet<SegmentId> {
    out.base_clusters.iter().map(|b| b.segment()).collect()
}

/// Phase 1 on one thread under the strict policy.
fn phase1(net: &RoadNetwork, data: &Dataset, insert_junctions: bool) -> Phase1Output {
    form_base_clusters_parallel_with_policy(net, data, insert_junctions, 1, ErrorPolicy::Strict)
        .expect("phase1")
        .0
}
