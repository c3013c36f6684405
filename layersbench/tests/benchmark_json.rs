//! `BENCHMARK.json` at the repository root describes this benchmark to
//! the outside; it must repeat the binary's own workload and metric
//! tables exactly.

use neat_layers_bench::report::{END_TO_END, PER_LAYER};
use neat_layers_bench::{RUN_SECONDS, WORKLOADS};
use serde_json::Value;

fn doc() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        _ => panic!("BENCHMARK.json has no `{key}` array"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_default()
}

#[test]
fn workloads_and_run_length_match() {
    let d = doc();
    let names: Vec<&str> = array(&d, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in array(&d, "workloads") {
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    assert_eq!(
        d.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );
}

#[test]
fn metric_tables_match() {
    let d = doc();
    let e2e = array(&d, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.name());
        assert_eq!(
            j.get("bound").and_then(Value::as_f64),
            m.bound,
            "{}",
            m.name
        );
    }
    let layers = array(&d, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (j, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.name());
        assert!(j.get("bound").is_none(), "{} has a bound", m.name);
    }
}
