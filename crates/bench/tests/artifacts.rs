//! The committed `results/` artifacts of the deterministic experiments
//! match what their binaries print today.
//!
//! Each binary runs at its defaults (scale 1, seed 42) in a fresh working
//! directory, because reports land in a relative `results/`. Every cell
//! is compared except the seconds columns, so a change that moves one of
//! these outputs must regenerate its artifact.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `text` split into whitespace-separated cells per line, with the
/// seconds cells of each table row dropped: `timed` lists their
/// positions in a row. A table's rows are the `rows` lines after its
/// dashed rule.
fn deterministic(text: &str, rows: usize, timed: &[usize]) -> Vec<String> {
    // Table rows still to come after the last rule.
    let mut left = 0;
    text.lines()
        .map(|line| {
            let in_table = if line.starts_with("---") {
                left = rows;
                false
            } else if left > 0 {
                left -= 1;
                true
            } else {
                false
            };
            let cells: Vec<&str> = line
                .split_whitespace()
                .enumerate()
                .filter(|(i, _)| !(in_table && timed.contains(i)))
                .map(|(_, c)| c)
                .collect();
            cells.join(" ")
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

fn check(bin: &str, name: &str, rows: usize, timed: &[usize]) {
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
    check(env!("CARGO_BIN_EXE_table3"), "table3", 5, &[5]);
}

#[test]
fn gap_repair_matches_its_artifact() {
    // Five dropout rates; the last two cells are the phase-1 times (each
    // coverage column splits into a count and a percentage cell).
    check(env!("CARGO_BIN_EXE_gap_repair"), "gap_repair", 5, &[8, 9]);
}

#[test]
fn fig7_matches_its_artifact() {
    // An ATL and an SJ table of five datasets each. Between #flows and
    // the work counters (ELB skips, ELB 1:N scans, Dij SPs) sit four
    // seconds columns: total and phase-3 time of each variant.
    check(env!("CARGO_BIN_EXE_fig7"), "fig7", 5, &[2, 3, 4, 5]);
}
