//! `layers` — run, trace, repeat and compare the benchmark's workloads.
//!
//! ```text
//! layers [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]
//! layers series [--workload NAME|all] [--runs N] [--seed-base N] [--seconds S] [--set FILE] [--smoke]
//! layers compare A.json B.json
//! ```
//!
//! A run prints every metric by name with its unit, then every output
//! check, and ends with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`); it exits 1 when a check fails. `all` runs each workload
//! in a child process of its own, so peak memory is per workload.

use neat_layers_bench::compare;
use neat_layers_bench::inputs::Scale;
use neat_layers_bench::report::{self, compact};
use neat_layers_bench::{run_workload, Opts, RUN_SECONDS, WORKLOADS};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  layers [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR] [--smoke]
  layers series [--workload NAME|all] [--runs N] [--seed-base N] [--seconds S] [--set FILE] [--smoke]
  layers compare A.json B.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
    runs: usize,
    set: Option<PathBuf>,
}

/// Where records go unless `--out` says otherwise: `bench/` under the
/// cargo target directory, never the source tree.
fn default_out() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench")
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".to_string(),
        seed: 42,
        seconds: RUN_SECONDS,
        trace: false,
        out: default_out(),
        smoke: false,
        runs: 10,
        set: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> Result<&String, String> {
            i += 1;
            argv.get(i).ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => a.workload = value()?.clone(),
            "--seed" | "--seed-base" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| format!("{flag} needs an integer"))?
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--runs" => a.runs = value()?.parse().map_err(|_| "--runs needs an integer")?,
            "--out" => a.out = PathBuf::from(value()?),
            "--set" => a.set = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            // `--trace 0`, `--trace 1`, or a bare `--trace`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    a.trace = v == "1";
                    i += 1;
                }
                _ => a.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (one of: {}, all)",
            a.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Runs one workload in this process and prints its report.
fn run_one(a: &Args) -> ExitCode {
    let work = a.out.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("layers: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let opts = Opts {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        scale: if a.smoke { Scale::Smoke } else { Scale::Full },
        work: work.clone(),
        out: a.out.clone(),
    };
    let res = run_workload(&a.workload, &opts).expect("workload name validated by parse");
    let machine = report::machine(&work);
    let _ = std::fs::remove_dir_all(&work);
    let mut record = res.record(machine);
    if let Value::Object(fields) = &mut record {
        fields.push(("seconds".to_string(), json!(a.seconds)));
        fields.push(("smoke".to_string(), json!(a.smoke)));
    }
    let suffix = if a.trace { ".layers.json" } else { ".json" };
    let path = a.out.join(format!("{}{suffix}", res.workload));
    let text = serde_json::to_string_pretty(&record).unwrap_or_else(|e| format!("\"{e}\""));
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("layers: cannot write {}: {e}", path.display());
    }
    print!("{}", res.human_lines());
    println!("{}: record {}", res.workload, path.display());
    println!("{}", res.summary_line());
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "layers: {}: output check failed or metric missing {:?}",
            res.workload,
            res.missing()
        );
        ExitCode::FAILURE
    }
}

/// Re-runs this binary for one workload and returns its summary line,
/// which says whether the run was correct.
fn child(a: &Args, workload: &str, seed: u64, echo: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&a.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last)
        .map_err(|e| format!("{workload} seed {seed}: {}, no summary ({e})", out.status))
}

fn correct(summary: &Value) -> bool {
    summary.get("correct").and_then(Value::as_bool) == Some(true)
}

fn targets(a: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| a.workload == "all" || a.workload == *w)
        .collect()
}

fn run_all(a: &Args) -> ExitCode {
    let mut ok = true;
    for w in targets(a) {
        match child(a, w, a.seed, true) {
            Ok(summary) => ok &= correct(&summary),
            Err(e) => {
                eprintln!("layers: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--runs` runs of each workload, seeds `seed .. seed + runs`, collected
/// into one series file for `compare`.
fn series(a: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let mut ok = true;
    for w in targets(a) {
        for i in 0..a.runs as u64 {
            let seed = a.seed + i;
            match child(a, w, seed, false) {
                Ok(summary) => {
                    let metrics = match summary.get("metrics") {
                        Some(Value::Object(ms)) => ms
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.clone())))
                            .collect(),
                        _ => Vec::new(),
                    };
                    eprintln!(
                        "layers: {w} seed {seed}: {}",
                        compact(&Value::Object(metrics.clone()))
                    );
                    ok &= correct(&summary);
                    runs.push(json!({
                        "workload": w,
                        "seed": seed,
                        "correct": correct(&summary),
                        "attempted": summary.get("attempted").cloned().unwrap_or(json!(0)),
                        "failed": summary.get("failed").cloned().unwrap_or(json!(0)),
                        "metrics": Value::Object(metrics),
                    }));
                }
                Err(e) => {
                    eprintln!("layers: {e}");
                    ok = false;
                }
            }
        }
    }
    let doc = json!({
        "seconds": a.seconds,
        "smoke": a.smoke,
        "machine": report::machine(&a.out),
        "runs": Value::Array(runs),
    });
    let path = a.set.clone().unwrap_or_else(|| a.out.join("series.json"));
    let text = serde_json::to_string_pretty(&doc).unwrap_or_default();
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("layers: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("series written to {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let (sa, sb) = match (compare::load_series(a), compare::load_series(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("layers compare: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = compare::compare(&sa, &sb);
    print!("{}", compare::render(&rows));
    let worse = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Worse)
        .count();
    let failed = |s: &[compare::SeriesRun]| s.iter().filter(|r| !r.correct).count();
    let (fa, fb) = (failed(&sa), failed(&sb));
    println!(
        "{} rows, {worse} worse; runs failing their checks: A {fa}, B {fb} (A = {a}, B = {b})",
        rows.len()
    );
    if worse == 0 && fa == 0 && fb == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let (is_series, rest) = match argv.first().map(String::as_str) {
        Some("series") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let a = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layers: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("layers: cannot create {}: {e}", a.out.display());
        return ExitCode::from(2);
    }
    if is_series {
        series(&a)
    } else if a.workload == "all" {
        run_all(&a)
    } else {
        run_one(&a)
    }
}
