//! The committed `results/` artifacts of the deterministic experiments
//! match what their binaries print today.
//!
//! Each binary runs at its defaults (scale 1, seed 42) in a fresh working
//! directory, because reports land in a relative `results/`. Every cell
//! is compared except the seconds columns, so a change that moves one of
//! these outputs must regenerate its artifact.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `text` split into whitespace-separated cells per line, with the last
/// `timed` cells of each table row dropped. The rows are the `rows` lines
/// after the table's dashed rule.
fn deterministic(text: &str, rows: usize, timed: usize) -> Vec<String> {
    let rule = text
        .lines()
        .position(|l| l.starts_with("---"))
        .expect("report has a table rule");
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let cells: Vec<&str> = line.split_whitespace().collect();
            let keep = if i > rule && i <= rule + rows {
                cells.len() - timed
            } else {
                cells.len()
            };
            cells[..keep].join(" ")
        })
        .collect()
}

/// Runs `bin` in a fresh directory and returns its `results/<name>.txt`.
fn regenerate(bin: &str, name: &str) -> String {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "neat-bench-artifacts-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin).current_dir(&dir).output().unwrap();
    assert!(out.status.success(), "{name}: {out:?}");
    let text = std::fs::read_to_string(dir.join("results").join(format!("{name}.txt"))).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    text
}

/// The committed artifact `results/<name>.txt` at the repository root.
fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn check(bin: &str, name: &str, rows: usize, timed: usize) {
    let fresh = regenerate(bin, name);
    assert_eq!(
        deterministic(&fresh, rows, timed),
        deterministic(&committed(name), rows, timed),
        "results/{name}.txt is stale; regenerate it:\n{fresh}"
    );
}

#[test]
fn table3_matches_its_artifact() {
    // Five SJ datasets; the last column is the opt-NEAT time.
    check(env!("CARGO_BIN_EXE_table3"), "table3", 5, 1);
}

#[test]
fn gap_repair_matches_its_artifact() {
    // Five dropout rates; the last two columns are the phase-1 times.
    check(env!("CARGO_BIN_EXE_gap_repair"), "gap_repair", 5, 2);
}
