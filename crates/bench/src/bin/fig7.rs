//! Figure 7 — effectiveness of the Euclidean lower bound: opt-NEAT with
//! the ELB filter (plus bounded A*) vs opt-NEAT computing all shortest
//! paths with plain Dijkstra network expansion, on the ATL (7a) and SJ
//! (7b) dataset series. The Dijkstra curve's cost tracks the number of
//! flows produced by Phase 2, not the data size (cf. Table III).
//!
//! The ELB run answers its endpoint distances from bounded one-to-many
//! tables, so its search count is `one_to_many_scans`; the Dijkstra run
//! counts point-to-point `sp_computations`.

use neat_bench::report::{secs, Report};
use neat_bench::setup::{dataset, experiment_config, network};
use neat_bench::{parse_args, scaled, time};
use neat_core::{Mode, Neat, NeatConfig, SpStrategy};
use neat_mobisim::presets::OBJECT_COUNTS;
use neat_rnet::netgen::MapPreset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, seed) = parse_args(&args);
    let mut report = Report::new("fig7");
    report.line("Figure 7: opt-NEAT-ELB vs opt-NEAT-Dijkstra (Phase-3 ablation)");
    report.line(format!("scale = {scale}, seed = {seed}"));

    for (panel, map) in [
        ("7(a) ATL", MapPreset::Atlanta),
        ("7(b) SJ", MapPreset::SanJose),
    ] {
        report.line("");
        report.line(format!("Figure {panel} datasets"));
        let net = network(map, seed);
        let elb_cfg = experiment_config();
        let dij_cfg = NeatConfig {
            use_elb: false,
            sp_strategy: SpStrategy::Dijkstra,
            ..experiment_config()
        };
        let mut rows = Vec::new();
        for (i, &objects) in OBJECT_COUNTS.iter().enumerate() {
            let n = scaled(objects, scale);
            let data = dataset(map, &net, n, seed.wrapping_add(i as u64));
            // A fresh pipeline per dataset, so every ELB phase-3 time
            // includes its one-off ALT landmark build.
            let elb = Neat::new(&net, elb_cfg);
            let dij = Neat::new(&net, dij_cfg);
            let (r_elb, t_elb) = time(|| elb.run(&data, Mode::Opt).expect("elb run"));
            let (r_dij, t_dij) = time(|| dij.run(&data, Mode::Opt).expect("dijkstra run"));
            rows.push(vec![
                format!("{}{objects}", map.code()),
                r_elb.flow_clusters.len().to_string(),
                secs(t_elb),
                secs(t_dij),
                format!("{:.3}", r_elb.timings.phase3.as_secs_f64()),
                format!("{:.3}", r_dij.timings.phase3.as_secs_f64()),
                r_elb.phase3_stats.elb_skips.to_string(),
                r_elb.phase3_stats.one_to_many_scans.to_string(),
                r_dij.phase3_stats.sp_computations.to_string(),
            ]);
        }
        report.table(
            &[
                "dataset",
                "#flows",
                "ELB total s",
                "Dij total s",
                "ELB p3 s",
                "Dij p3 s",
                "ELB skips",
                "ELB 1:N scans",
                "Dij SPs",
            ],
            &rows,
        );
    }
    report.line("shape checks (paper): Dijkstra phase-3 cost tracks #flows, ELB curve far below");
    let path = report.save().expect("write results");
    neat_bench::log::saved(&path);
}
