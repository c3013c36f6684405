//! Every workload at smoke size on the 4×4-grid fixture, end-to-end and
//! traced: every output check must hold, the traced stream replica must
//! reach the service's state, and the deterministic per-layer counters
//! must equal `baselines/layers_smoke.json`.
//!
//! After an intended change to those counters, regenerate the baseline
//! with `LAYERS_BLESS=1 cargo test --test layers_smoke`.

use neat_layers_bench::inputs::Scale;
use neat_layers_bench::report::{compact, RunResult, PER_LAYER};
use neat_layers_bench::{run_workload, Opts, WORKLOADS};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/layers_smoke.json");

fn opts(dir: &Path, trace: bool) -> Opts {
    let work = dir.join(if trace { "work-trace" } else { "work" });
    std::fs::create_dir_all(&work).unwrap();
    Opts {
        seed: 42,
        seconds: 1.0,
        trace,
        scale: Scale::Smoke,
        work,
        out: dir.to_path_buf(),
    }
}

/// Per-layer values that are counts of work done, in table order: a pure
/// function of the fixture, so they repeat exactly.
fn counters(r: &RunResult) -> Value {
    Value::Object(
        PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "count" | "bytes"))
            .filter_map(|m| Some((m.name.to_string(), json!(r.get(m.name)?))))
            .collect(),
    )
}

#[test]
fn every_workload_passes_its_checks_and_counters_match_the_baseline() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("layers-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut got = Vec::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let r = run_workload(w, &opts(&dir, trace)).unwrap();
            assert!(
                r.correct(),
                "{w} (trace {trace}) failed:\n{}missing {:?}",
                r.human_lines(),
                r.missing()
            );
            if trace {
                got.push((w.to_string(), counters(&r)));
            }
            if trace && w.starts_with("stream") {
                let replica = r
                    .checks
                    .iter()
                    .find(|c| c.name == "traced replica state equals the service's")
                    .expect("stream trace compares the replica");
                assert!(replica.ok, "{w}: {}", replica.detail);
            }
        }
    }
    let got = Value::Object(got);

    if std::env::var_os("LAYERS_BLESS").is_some() {
        let text = serde_json::to_string_pretty(&got).unwrap() + "\n";
        std::fs::write(BASELINE, text).unwrap();
        return;
    }
    let want = serde_json::from_str(&std::fs::read_to_string(BASELINE).unwrap()).unwrap();
    for w in WORKLOADS {
        assert_eq!(
            got.get(w),
            want.get(w),
            "{w}: per-layer counters drifted from {BASELINE}\n got: {}\nwant: {}",
            got.get(w).map(compact).unwrap_or_default(),
            want.get(w).map(compact).unwrap_or_default(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
