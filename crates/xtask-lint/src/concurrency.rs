//! Concurrency rules L6–L9.
//!
//! These rules mechanize the conventions the parallel/streaming stack
//! (PRs 3–6) relies on but `rustc` cannot see:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `L6` | lock discipline: acquisitions follow the `lint-locks.toml` rank order; no nested/double acquisition; no guard held across `Fs`/journal/spool I/O; raw `.lock()` only inside the sanctioned poison-policy helper |
//! | `L7` | atomics discipline: no bare `Ordering::Relaxed` outside designated counter modules |
//! | `L8` | unwind safety: every `catch_unwind`/`AssertUnwindSafe` site names its invariant-restoration path via `lint:allow(L8) reason=…` |
//! | `L9` | parallel-fold purity: closures passed to `Executor::try_map_ctl` mutate only their per-worker scratch and charge work only through the worker's recorder `Control` |
//!
//! All four run only on library-crate files (`rules::is_library_code`),
//! over the `#[cfg(test)]`-stripped token stream, using the structural
//! layer ([`crate::structure`]) for function bodies and guard regions.
//!
//! ## Guard regions
//!
//! L6 approximates a guard's lifetime from the acquisition expression's
//! shape: a *chained* acquisition (`m.enter().push(x)`,
//! `for r in slot.enter().drain(..) { … }`) produces a temporary guard
//! that lives to the end of its statement — which, via
//! [`crate::structure::statement_end`], includes a loop body when the
//! guard sits in the loop header. An acquisition whose guard is bound
//! (`let g = m.enter();`, `match m.lock() { … }`) is held to the end of
//! the enclosing block. Guards returned across function boundaries
//! (e.g. a private `fn shard(&self) -> MutexGuard<…>`) are *not*
//! tracked — the manifest's `leaf` flag plus the helper-returning
//! function's own body checks are the guard rails there.

use crate::lexer::{TokKind, Token};
use crate::locks::LockManifest;
use crate::rules::Violation;
use crate::structure::{
    enclosing_block_end, fn_bodies, in_use_statement, matching_paren, statement_end, FnBody,
};

/// The one sanctioned raw-`.lock()` site: the poison-policy helper that
/// every other library acquisition goes through (`Lock::enter`).
pub const LOCK_HELPER_SITES: [&str; 1] = ["crates/runctl/src/sync.rs"];

/// Modules whose atomics are plain statistics counters — values that
/// feed no control decision and tolerate relaxed ordering. Only here
/// may `Ordering::Relaxed` appear un-annotated.
pub const L7_COUNTER_MODULES: [&str; 2] =
    ["crates/durability/src/retry.rs", "crates/bench/src/log.rs"];

/// Call names that perform storage I/O (the `Fs` trait surface plus the
/// journal/spool/checkpoint layers). Holding a lock guard across any of
/// these couples lock hold time to disk latency and, worse, lets an I/O
/// error path unwind with the guard held.
const IO_CALLS: [&str; 7] = [
    "write_atomic",
    "write_atomic_std",
    "sync_all",
    "fsync",
    "log_batch",
    "save_checkpoint",
    "replay",
];

/// Receiver names that denote storage handles: any method call on one
/// of these inside a guard region is treated as I/O.
const IO_RECEIVERS: [&str; 4] = ["fs", "store", "journal", "spool"];

/// Mutating/escaping operations banned inside parallel-fold closures.
/// Method position only, so a local `fn store(…)` never matches.
const L9_BANNED_METHODS: [&str; 10] = [
    "lock",
    "enter",
    "borrow_mut",
    "fetch_add",
    "fetch_sub",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "store",
    "swap",
];

/// A `Mutex`/`RwLock` declaration found in a library file. The runner
/// checks each against the manifest (workspace-level coverage).
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Binding/field/type-alias name the lock is declared under.
    pub name: String,
    /// 1-based line of the `Mutex`/`RwLock` token.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// `true` when a `lint:allow(L6)` annotation covers the declaration
    /// (set by the caller after annotation matching).
    pub waived: bool,
}

/// Per-file concurrency site index, fed to the runner's workspace-level
/// manifest coverage / staleness checks.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencySummary {
    /// Lock declarations in this file.
    pub declared_locks: Vec<LockDecl>,
    /// Receiver names of lock acquisitions in this file (manifest
    /// entries matching one of these are not stale).
    pub receivers: Vec<String>,
}

fn stdio_receiver(name: &str) -> bool {
    matches!(name, "stdout" | "stderr" | "stdin")
}

/// What a `.lock()`/`.enter()` call is invoked on.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Receiver {
    /// A plain binding or field name (`slots[w].enter()` → `slots`).
    Named(String),
    /// A call result (`stdout().lock()` → `stdout`).
    Call(String),
    /// Anything else (unresolvable expression).
    Opaque,
}

impl Receiver {
    fn display(&self) -> String {
        match self {
            Receiver::Named(n) => n.clone(),
            Receiver::Call(n) => format!("{n}()"),
            Receiver::Opaque => "<expr>".into(),
        }
    }
}

/// Walks back from the `.` before a method name to the receiver.
fn receiver_of(tokens: &[Token], dot_idx: usize) -> Receiver {
    if dot_idx == 0 {
        return Receiver::Opaque;
    }
    let mut j = dot_idx - 1;
    // Skip a trailing index expression: `slots[w]` → `slots`.
    while tokens[j].is_punct(']') {
        let mut depth = 0i64;
        loop {
            if tokens[j].is_punct(']') {
                depth += 1;
            } else if tokens[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return Receiver::Opaque;
            }
            j -= 1;
        }
        if j == 0 {
            return Receiver::Opaque;
        }
        j -= 1;
    }
    if tokens[j].is_punct(')') {
        // Call result: find the callee name before the matching `(`.
        let mut depth = 0i64;
        loop {
            if tokens[j].is_punct(')') {
                depth += 1;
            } else if tokens[j].is_punct('(') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return Receiver::Opaque;
            }
            j -= 1;
        }
        if j == 0 {
            return Receiver::Opaque;
        }
        return match &tokens[j - 1] {
            t if t.kind == TokKind::Ident => Receiver::Call(t.text.clone()),
            _ => Receiver::Opaque,
        };
    }
    if tokens[j].kind == TokKind::Ident {
        return Receiver::Named(tokens[j].text.clone());
    }
    Receiver::Opaque
}

/// One lock acquisition site inside a function body.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Token index of the method name (`lock`/`enter`/`read`/`write`).
    idx: usize,
    /// Token index of the call's closing `)`.
    close: usize,
    receiver: Receiver,
    /// `"lock"`, `"enter"`, `"read"` or `"write"`.
    via: &'static str,
}

/// Scans `range` for zero-argument `.lock()`/`.enter()`/`.read()`/
/// `.write()` calls. `read`/`write` count only when the receiver
/// resolves in the manifest (plain `file.read()` is not a lock).
fn collect_acquisitions(
    tokens: &[Token],
    lo: usize,
    hi: usize,
    krate: &str,
    manifest: &LockManifest,
) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in lo..hi.min(tokens.len()) {
        let t = &tokens[i];
        let via = match t.text.as_str() {
            "lock" => "lock",
            "enter" => "enter",
            "read" => "read",
            "write" => "write",
            _ => continue,
        };
        if t.kind != TokKind::Ident
            || i == 0
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let Some(close) = matching_paren(tokens, i + 1) else {
            continue;
        };
        if close != i + 2 {
            continue; // has arguments: fs.write(path, bytes) etc.
        }
        let receiver = receiver_of(tokens, i - 1);
        if let Receiver::Call(name) = &receiver {
            if stdio_receiver(name) {
                continue; // OS stdio locks are not our locks
            }
        }
        if matches!(via, "read" | "write") {
            let resolves = matches!(&receiver, Receiver::Named(n)
                if manifest.resolve(krate, n).is_some());
            if !resolves {
                continue;
            }
        }
        out.push(Acquisition {
            idx: i,
            close,
            receiver,
            via,
        });
    }
    out
}

/// Index (into `bodies`) of the innermost body containing token `idx`.
fn innermost_body(bodies: &[FnBody], idx: usize) -> Option<usize> {
    bodies
        .iter()
        .enumerate()
        .filter(|(_, b)| b.open < idx && idx < b.close)
        .min_by_key(|(_, b)| b.close - b.open)
        .map(|(i, _)| i)
}

/// End of the guard region for acquisition `a` inside `body`.
fn guard_region_end(tokens: &[Token], body: &FnBody, a: &Acquisition) -> usize {
    let chained = tokens
        .get(a.close + 1)
        .is_some_and(|n| n.is_punct('.') || n.is_punct('?'));
    if chained {
        statement_end(tokens, a.close + 1, body.close)
    } else {
        enclosing_block_end(tokens, body.open, body.close, a.idx)
    }
}

fn violation(path: &str, t: &Token, message: String, help: &str) -> Violation {
    Violation {
        rule: "L6",
        file: path.to_string(),
        line: t.line,
        col: t.col,
        message,
        help: help.to_string(),
    }
}

// ---------------------------------------------------------------------------
// L6 — lock discipline
// ---------------------------------------------------------------------------

/// Runs L6 over one file and returns its site index for the runner.
pub fn rule_l6(
    path: &str,
    krate: &str,
    tokens: &[Token],
    manifest: &LockManifest,
    out: &mut Vec<Violation>,
) -> ConcurrencySummary {
    let mut summary = ConcurrencySummary::default();
    collect_lock_decls(tokens, &mut summary);

    let helper_site = LOCK_HELPER_SITES.contains(&path);
    let bodies = fn_bodies(tokens);
    let acquisitions = collect_acquisitions(tokens, 0, tokens.len(), krate, manifest);
    for a in &acquisitions {
        summary.receivers.push(a.receiver.display());
        // Raw `.lock()` bypasses the poison policy everywhere except in
        // the helper that *implements* the policy.
        if a.via == "lock" && !helper_site {
            out.push(violation(
                path,
                &tokens[a.idx],
                format!(
                    "raw `.lock()` on `{}` bypasses the `Lock::enter` poison policy",
                    a.receiver.display()
                ),
                "acquire through `runctl::sync::Lock::enter`, or annotate the local poison \
                 policy with `// lint:allow(L6) reason=<policy>`",
            ));
        }
        // Every acquisition must resolve in the manifest (once one
        // exists) so the rank order below is total.
        if !helper_site && !manifest.is_empty() && resolve(manifest, krate, &a.receiver).is_none() {
            out.push(violation(
                path,
                &tokens[a.idx],
                format!(
                    "lock `{}` is not declared in lint-locks.toml",
                    a.receiver.display()
                ),
                "add a [[lock]] entry with a rank (and aliases for local binding names)",
            ));
        }
    }

    // Region analysis, per innermost function body.
    for (bi, body) in bodies.iter().enumerate() {
        let own: Vec<&Acquisition> = acquisitions
            .iter()
            .filter(|a| innermost_body(&bodies, a.idx) == Some(bi))
            .collect();
        for (ai, a) in own.iter().enumerate() {
            let end = guard_region_end(tokens, body, a);
            let a_entry = resolve(manifest, krate, &a.receiver);
            for b in own.iter().skip(ai + 1).filter(|b| b.idx <= end) {
                let b_entry = resolve(manifest, krate, &b.receiver);
                let bt = &tokens[b.idx];
                let same_named =
                    matches!(&a.receiver, Receiver::Named(_)) && a.receiver == b.receiver;
                if same_named || (a_entry.is_some() && ptr_eq(a_entry, b_entry)) {
                    out.push(violation(
                        path,
                        bt,
                        format!(
                            "`{}` acquired again while its own guard may still be held",
                            b.receiver.display()
                        ),
                        "reuse the existing guard; a second acquisition self-deadlocks",
                    ));
                } else if a_entry.is_some_and(|e| e.leaf) {
                    out.push(violation(
                        path,
                        bt,
                        format!(
                            "`{}` acquired while leaf lock `{}` is held",
                            b.receiver.display(),
                            a.receiver.display()
                        ),
                        "leaf locks admit no nesting — drop the guard first",
                    ));
                } else if let (Some(ae), Some(be)) = (a_entry, b_entry) {
                    if be.rank <= ae.rank {
                        out.push(violation(
                            path,
                            bt,
                            format!(
                                "lock order violation: `{}` (rank {}) acquired while `{}` \
                                 (rank {}) is held",
                                b.receiver.display(),
                                be.rank,
                                a.receiver.display(),
                                ae.rank
                            ),
                            "acquire in strictly increasing rank order (see lint-locks.toml)",
                        ));
                    }
                } else if manifest.is_empty() {
                    out.push(violation(
                        path,
                        bt,
                        format!(
                            "nested lock acquisition: `{}` under `{}`",
                            b.receiver.display(),
                            a.receiver.display()
                        ),
                        "declare both locks in lint-locks.toml so their order can be ranked",
                    ));
                }
            }
            // Storage I/O inside the guard region.
            for j in a.close + 1..=end.min(tokens.len() - 1) {
                let t = &tokens[j];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let io_call = IO_CALLS.contains(&t.text.as_str())
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct('('));
                let io_recv = IO_RECEIVERS.contains(&t.text.as_str())
                    && tokens.get(j + 1).is_some_and(|n| n.is_punct('.'))
                    && tokens.get(j + 2).is_some_and(|m| m.kind == TokKind::Ident)
                    && tokens.get(j + 3).is_some_and(|n| n.is_punct('('));
                if io_call || io_recv {
                    out.push(violation(
                        path,
                        t,
                        format!(
                            "guard of `{}` held across storage I/O (`{}`)",
                            a.receiver.display(),
                            t.text
                        ),
                        "copy what the I/O needs out of the guarded region, drop the guard, \
                         then write",
                    ));
                }
            }
        }
    }
    summary
}

fn resolve<'m>(
    manifest: &'m LockManifest,
    krate: &str,
    receiver: &Receiver,
) -> Option<&'m crate::locks::LockEntry> {
    match receiver {
        Receiver::Named(n) => manifest.resolve(krate, n),
        _ => None,
    }
}

fn ptr_eq(a: Option<&crate::locks::LockEntry>, b: Option<&crate::locks::LockEntry>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if std::ptr::eq(x, y))
}

/// Finds `Mutex`/`RwLock` declarations: `name: [Arc<][Vec<]Mutex<…>`,
/// `type Name<…> = Mutex<…>`, and `let name = Mutex::new(…)`. Borrowed
/// parameter positions (`m: &Mutex<T>`) and bare mentions (imports,
/// generic impls) are not declarations.
fn collect_lock_decls(tokens: &[Token], summary: &mut ConcurrencySummary) {
    for (m, t) in tokens.iter().enumerate() {
        if !(t.is_ident("Mutex") || t.is_ident("RwLock")) {
            continue;
        }
        let type_pos = tokens.get(m + 1).is_some_and(|n| n.is_punct('<'));
        let ctor_pos = tokens.get(m + 1).is_some_and(|n| n.is_punct(':'))
            && tokens.get(m + 2).is_some_and(|n| n.is_punct(':'))
            && tokens.get(m + 3).is_some_and(|n| n.is_ident("new"));
        if !type_pos && !ctor_pos {
            continue;
        }
        // A reference to a lock is not a declaration, and neither is an
        // impl target (`impl Lock<T> for Mutex<T>`).
        if m >= 1 && (tokens[m - 1].is_punct('&') || tokens[m - 1].is_ident("for")) {
            continue;
        }
        // Walk back (bounded) looking for `name :` (single colon) or a
        // `type Name` / `let name` binder before an `=`.
        let mut name: Option<(String, bool)> = None; // (name, via_colon)
        let lo = m.saturating_sub(16);
        let mut j = m;
        while j > lo {
            j -= 1;
            let p = &tokens[j];
            if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') || p.is_punct(',') {
                break;
            }
            let single_colon = p.is_punct(':')
                && !tokens.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && j >= 1
                && !tokens[j - 1].is_punct(':');
            if single_colon && tokens[j - 1].kind == TokKind::Ident {
                name = Some((tokens[j - 1].text.clone(), true));
                break;
            }
            if (p.is_ident("type") || p.is_ident("let") || p.is_ident("static"))
                && tokens.get(j + 1).is_some_and(|n| n.kind == TokKind::Ident)
            {
                name = Some((tokens[j + 1].text.clone(), false));
                break;
            }
        }
        if let Some((n, _)) = name {
            summary.declared_locks.push(LockDecl {
                name: n,
                line: t.line,
                col: t.col,
                waived: false,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L7 — atomics discipline
// ---------------------------------------------------------------------------

pub fn rule_l7(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    if L7_COUNTER_MODULES.contains(&path) {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        // `Ordering :: Relaxed` — the `std::cmp::Ordering` variants
        // (Less/Equal/Greater) never match, so comparator code is safe.
        if t.is_ident("Relaxed")
            && i >= 2
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
        {
            out.push(Violation {
                rule: "L7",
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: "`Ordering::Relaxed` outside a designated counter module".into(),
                help: "use SeqCst/Acquire/Release (AcqRel), move the counter into a counter \
                       module, or justify with `// lint:allow(L7) reason=<why relaxed is safe>`"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L8 — unwind safety
// ---------------------------------------------------------------------------

pub fn rule_l8(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        let (message, help): (String, &str) = if t.is_ident("catch_unwind") {
            (
                "`catch_unwind` must name its invariant-restoration path".into(),
                "annotate with `// lint:allow(L8) reason=<which recovery routine restores \
                 state invariants after the unwind>`",
            )
        } else if t.is_ident("AssertUnwindSafe") {
            (
                "`AssertUnwindSafe` asserts shared state stays coherent across an unwind".into(),
                "annotate with `// lint:allow(L8) reason=<why state reachable across the \
                 boundary cannot be observed torn>`",
            )
        } else {
            continue;
        };
        if in_use_statement(tokens, i) {
            continue;
        }
        out.push(Violation {
            rule: "L8",
            file: path.to_string(),
            line: t.line,
            col: t.col,
            message,
            help: help.to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// L9 — parallel-fold purity
// ---------------------------------------------------------------------------

pub fn rule_l9(path: &str, tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("try_map_ctl")
            || i == 0
            || !tokens[i - 1].is_punct('.')
            || !tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            continue;
        }
        let Some(close) = matching_paren(tokens, i + 1) else {
            continue;
        };
        for j in i + 2..close {
            let b = &tokens[j];
            if b.kind != TokKind::Ident {
                continue;
            }
            if b.is_ident("unsafe") {
                out.push(l9_violation(path, b, "an `unsafe` block"));
                continue;
            }
            let banned_method = L9_BANNED_METHODS.contains(&b.text.as_str())
                && j >= 1
                && tokens[j - 1].is_punct('.')
                && tokens.get(j + 1).is_some_and(|n| n.is_punct('('));
            if banned_method {
                out.push(l9_violation(path, b, &format!("`.{}()`", b.text)));
            }
        }
    }
}

fn l9_violation(path: &str, t: &Token, what: &str) -> Violation {
    Violation {
        rule: "L9",
        file: path.to_string(),
        line: t.line,
        col: t.col,
        message: format!(
            "parallel-fold closure touches shared mutable state via {what}; the fold must \
             stay pure for bit-identical replay"
        ),
        help: "keep per-worker state in the fold's scratch value and charge work through \
               the worker's recorder Control (its check points), or hoist the mutation out \
               of the fold"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    const LIB: &str = "crates/neat/src/model.rs";

    fn manifest(text: &str) -> LockManifest {
        LockManifest::parse(text).unwrap()
    }

    fn l6(src: &str, m: &LockManifest) -> Vec<String> {
        let (tokens, _) = lex(src);
        let mut out = Vec::new();
        rule_l6(LIB, "neat", &tokens, m, &mut out);
        out.into_iter().map(|v| v.message).collect()
    }

    const TWO_LOCKS: &str = r#"
[[lock]]
crate = "neat"
name = "low"
rank = 10
[[lock]]
crate = "neat"
name = "high"
rank = 20
[[lock]]
crate = "neat"
name = "tip"
rank = 30
leaf = true
"#;

    #[test]
    fn raw_lock_flagged_enter_not() {
        let m = manifest(TWO_LOCKS);
        let msgs = l6("fn f() { low.lock().push(1); }", &m);
        assert!(msgs.iter().any(|m| m.contains("raw `.lock()`")), "{msgs:?}");
        let msgs = l6("fn f() { low.enter().push(1); }", &m);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn stdio_locks_ignored() {
        let m = manifest(TWO_LOCKS);
        let msgs = l6("fn f() { let o = std::io::stdout().lock(); }", &m);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn undeclared_lock_flagged() {
        let m = manifest(TWO_LOCKS);
        let msgs = l6("fn f() { rogue.enter().push(1); }", &m);
        assert!(msgs.iter().any(|m| m.contains("not declared")), "{msgs:?}");
    }

    #[test]
    fn rank_order_enforced() {
        let m = manifest(TWO_LOCKS);
        // Ascending is fine…
        let ok = l6("fn f() { let a = low.enter(); let b = high.enter(); }", &m);
        assert!(ok.is_empty(), "{ok:?}");
        // …descending is not.
        let bad = l6("fn f() { let a = high.enter(); let b = low.enter(); }", &m);
        assert!(bad.iter().any(|m| m.contains("lock order")), "{bad:?}");
    }

    #[test]
    fn double_acquisition_and_leaf_nesting() {
        let m = manifest(TWO_LOCKS);
        let dbl = l6("fn f() { let a = low.enter(); let b = low.enter(); }", &m);
        assert!(dbl.iter().any(|m| m.contains("acquired again")), "{dbl:?}");
        let leaf = l6("fn f() { let a = tip.enter(); let b = high.enter(); }", &m);
        assert!(leaf.iter().any(|m| m.contains("leaf")), "{leaf:?}");
    }

    #[test]
    fn chained_guard_is_statement_scoped() {
        let m = manifest(TWO_LOCKS);
        // The temporary guard from the chained call dies at the `;`, so
        // the second acquisition does not nest.
        let msgs = l6("fn f() { high.enter().push(1); low.enter().push(2); }", &m);
        assert!(msgs.is_empty(), "{msgs:?}");
    }

    #[test]
    fn guard_across_io_flagged() {
        let m = manifest(TWO_LOCKS);
        let msgs = l6("fn f() { let g = low.enter(); fs.write(p, b); }", &m);
        assert!(
            msgs.iter().any(|m| m.contains("held across storage I/O")),
            "{msgs:?}"
        );
        // Dropping the guard first is fine.
        let ok = l6("fn f() { { let g = low.enter(); } fs.write(p, b); }", &m);
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn decls_collected_with_names() {
        let src = "struct S { files: Arc<Mutex<B>>, n: u32 }\n\
                   type Bin<T> = Mutex<Vec<T>>;\n\
                   fn f(m: &Mutex<u8>) { let g = Mutex::new(0); }";
        let (tokens, _) = lex(src);
        let mut out = Vec::new();
        let s = rule_l6(LIB, "neat", &tokens, &LockManifest::default(), &mut out);
        let names: Vec<_> = s.declared_locks.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["files", "Bin", "g"], "no decl for &Mutex param");
    }

    #[test]
    fn l7_relaxed_outside_counter_modules() {
        let (tokens, _) = lex("fn f() { c.fetch_add(1, Ordering::Relaxed); }");
        let mut out = Vec::new();
        rule_l7(LIB, &tokens, &mut out);
        assert_eq!(out.len(), 1);
        // cmp::Ordering variants and strong atomic orderings never match.
        let (tokens, _) = lex("fn f() { if o == Ordering::Less { } x.load(Ordering::SeqCst); }");
        let mut out = Vec::new();
        rule_l7(LIB, &tokens, &mut out);
        assert!(out.is_empty());
        // Counter modules are exempt.
        let (tokens, _) = lex("fn f() { c.load(Ordering::Relaxed); }");
        let mut out = Vec::new();
        rule_l7("crates/bench/src/log.rs", &tokens, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn l8_flags_call_sites_not_imports() {
        let src = "use std::panic::{catch_unwind, AssertUnwindSafe};\n\
                   fn f() { let r = catch_unwind(AssertUnwindSafe(|| g())); }";
        let (tokens, _) = lex(src);
        let mut out = Vec::new();
        rule_l8(LIB, &tokens, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.line == 2));
    }

    #[test]
    fn l9_bans_shared_mutation_in_folds() {
        let bad = "fn f() { exec.try_map_ctl(n, c, || (), |i, s, cc| { total.fetch_add(1, o); Ok(i) }); }";
        let (tokens, _) = lex(bad);
        let mut out = Vec::new();
        rule_l9(LIB, &tokens, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");

        // Plain iterator `.map` is not a parallel fold.
        let ok = "fn f() { let v: Vec<u32> = xs.iter().map(|i| c.fetch_add(1, o)).collect(); }";
        let (tokens, _) = lex(ok);
        let mut out = Vec::new();
        rule_l9(LIB, &tokens, &mut out);
        assert!(out.is_empty(), "{out:?}");

        // Per-worker scratch and the recorder control's check points
        // don't trip the detector.
        let ok = "fn f() { exec.try_map_ctl(n, c, Vec::new, |i, s, cc| { cc.check()?; \
                  s.push(i); Ok(s.len()) }); }";
        let (tokens, _) = lex(ok);
        let mut out = Vec::new();
        rule_l9(LIB, &tokens, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
