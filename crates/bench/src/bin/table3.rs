//! Table III — number of flow clusters produced by opt-NEAT on the SJ
//! datasets (the quantity that drives Phase-3 cost in Figure 7b).

use neat_bench::report::Report;
use neat_bench::setup::{dataset, experiment_config, network};
use neat_bench::{parse_args, scaled, time};
use neat_core::{Mode, Neat};
use neat_mobisim::presets::OBJECT_COUNTS;
use neat_rnet::netgen::MapPreset;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, seed) = parse_args(&args);
    let mut report = Report::new("table3");
    report.line("Table III: number of flow clusters produced by opt-NEAT (SJ datasets)");
    report.line("paper row: SJ500=73, SJ1000=156, SJ2000=55, SJ3000=52, SJ5000=180");
    report.line(format!("scale = {scale}, seed = {seed}"));

    let net = network(MapPreset::SanJose, seed);
    let paper = [73usize, 156, 55, 52, 180];
    let mut rows = Vec::new();
    for (i, &objects) in OBJECT_COUNTS.iter().enumerate() {
        let n = scaled(objects, scale);
        // Vary the dataset seed per size as the paper's independent runs do.
        let data = dataset(MapPreset::SanJose, &net, n, seed.wrapping_add(i as u64));
        // A fresh pipeline per dataset, so every time includes the
        // one-off ALT landmark build.
        let neat = Neat::new(&net, experiment_config());
        let (result, elapsed) = time(|| neat.run(&data, Mode::Opt).expect("neat run"));
        rows.push(vec![
            format!("SJ{objects}"),
            n.to_string(),
            paper[i].to_string(),
            result.flow_clusters.len().to_string(),
            result.clusters.len().to_string(),
            format!("{:.2}s", elapsed.as_secs_f64()),
        ]);
    }
    report.table(
        &[
            "dataset",
            "objects",
            "paper #flows",
            "measured #flows",
            "#final clusters",
            "opt-NEAT time",
        ],
        &rows,
    );
    let path = report.save().expect("write results");
    neat_bench::log::saved(&path);
}
