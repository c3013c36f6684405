//! Deterministic parallel execution for the NEAT pipeline.
//!
//! The crate has one fan-out, [`Executor::try_map_ctl`], and one user:
//! phase 1, whose fixed chunks of trajectories are independent work
//! items punctuated by cooperative [`Control`] check points. Phases 2
//! and 3 run on the calling thread — in the default configuration their
//! work units (a junction's handful of f-neighbours, a few geometry
//! operations per flow pair) are too small for a fan-out to pay; the
//! phase-3 ablations without endpoint tables give up their speedup.
//! Naive parallelism breaks two
//! guarantees the repo holds sacred: the *result* must be bit-identical
//! to the sequential run for any thread count, and a budget or fused
//! cancellation must interrupt at exactly the op index it would have
//! interrupted the sequential run at.
//!
//! [`Executor`] restores both with **speculative rounds + index-ordered
//! replay**:
//!
//! 1. Workers claim items of the current round from a shared counter
//!    and run each against a fresh [recorder control](Control::recorder)
//!    — unlimited budget, an observer cancel token (manual-cancel flag
//!    only, no fuse) — recording the item's result and its exact
//!    `(ops, settled)` check-point activity.
//! 2. After the round, a single fold thread walks the records **in item
//!    order** and bulk-applies each item's activity to the real control
//!    with [`Control::try_charge`]. A charge that would cross any limit
//!    (op/settled budget, fuse, a deadline-stride clock consultation)
//!    mutates nothing; the fold re-runs that item *live* against the
//!    real control, so the interrupt latches at exactly the sequential
//!    op index, and every later item is discarded.
//!
//! Because items are pure functions of their index (workers share no
//! mutable state through `f` beyond their private context), the folded
//! prefix equals the sequential prefix item by item — at worst one
//! round of speculative work is thrown away. With `threads == 1` (the
//! default everywhere) the executor *is* the sequential loop: it runs
//! items live against the real control with zero overhead, which keeps
//! the reference semantics executable and testable.
//!
//! The thread count is always injected (config or CLI); per neat-lint
//! L5 this crate never consults `available_parallelism()` — resolving
//! `0 = auto` is the binary's job.

use neat_runctl::{Charge, Control, Interrupt, Lock};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Result of a controlled map: the completed prefix plus the interrupt
/// that stopped it, if any.
///
/// `halted == Some(why)` means items `0..items.len()` completed and the
/// item at index `items.len()` observed `why`; `partial` is whatever
/// that item kept of its own work before it stopped. The remainder
/// never ran (or ran speculatively and was discarded).
#[derive(Debug)]
pub struct TryMap<T> {
    /// Results of the completed prefix, in item order.
    pub items: Vec<T>,
    /// The interrupt that stopped the map early, if any.
    pub halted: Option<Interrupt>,
    /// The completed part of the halting item, if it kept one.
    pub partial: Option<T>,
}

/// How an item reports an interrupt: the interrupt plus, for items that
/// are themselves a run of smaller steps, the part that completed
/// before it fired. `?` on a bare [`Interrupt`] keeps nothing.
#[derive(Debug)]
pub struct Halt<T> {
    /// The completed part of the item, if it is worth keeping.
    pub partial: Option<T>,
    /// The interrupt the item observed.
    pub why: Interrupt,
}

impl<T> From<Interrupt> for Halt<T> {
    fn from(why: Interrupt) -> Self {
        Halt { partial: None, why }
    }
}

/// One speculative record: the item's outcome plus the check-point
/// activity its recorder control observed.
struct Rec<T> {
    out: Result<T, Halt<T>>,
    ops: u64,
    settled: u64,
}

/// A deterministic parallel mapper with an injected thread count.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    threads: usize,
    chunk: usize,
}

/// Default number of items each worker claims per speculative round.
/// A larger chunk amortises round synchronisation; a smaller one bounds
/// the work discarded when a budget fires mid-round.
const DEFAULT_CHUNK: usize = 32;

impl Executor {
    /// An executor running `threads` workers (0 and 1 both mean the
    /// sequential reference path).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Overrides the per-worker round chunk (clamped to at least 1).
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The injected worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when `n` items would actually fan out across workers.
    fn is_parallel_for(&self, n: usize) -> bool {
        self.threads > 1 && n >= 2 * self.threads
    }

    /// Maps `f` over `0..n` under `ctl`, stopping at the first item
    /// that observes an interrupt — bit-identical to the sequential
    /// loop for any thread count, including the interrupt's op index
    /// and the halting item's [`Halt::partial`].
    ///
    /// `make_ctx` builds one private mutable context per worker (plus
    /// one for live replays on the fold thread): scratch state such as a
    /// shortest-path engine. `f` must be a pure function of
    /// `(index, context scratch)` — it may read shared caches whose
    /// *values* are deterministic, but all check-point traffic must go
    /// through the passed control.
    pub fn try_map_ctl<C, T, F>(
        &self,
        n: usize,
        ctl: &Control,
        mut make_ctx: impl FnMut() -> C,
        f: F,
    ) -> TryMap<T>
    where
        C: Send,
        T: Send,
        F: Fn(usize, &mut C, &Control) -> Result<T, Halt<T>> + Sync,
    {
        if !self.is_parallel_for(n) {
            let mut ctx = make_ctx();
            return run_sequential(n, ctl, &mut ctx, &f);
        }
        let threads = self.threads;
        let round_len = threads * self.chunk;
        let worker_ctxs: Vec<C> = (0..threads).map(|_| make_ctx()).collect();
        let mut replay_ctx = make_ctx();

        let counter = AtomicUsize::new(0);
        let round_end = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(threads + 1);
        // One result bin per worker, merged in item order after each round.
        type Bin<T> = Mutex<Vec<(usize, Rec<T>)>>;
        let slots: Vec<Bin<T>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();

        let mut items = Vec::with_capacity(n);
        let mut halted = None;
        let mut partial = None;

        let scope_result = crossbeam::thread::scope(|s| {
            for (w, mut ctx) in worker_ctxs.into_iter().enumerate() {
                let (counter, round_end, done, barrier) = (&counter, &round_end, &done, &barrier);
                let (slots, f, ctl) = (&slots, &f, ctl);
                s.spawn(move |_| loop {
                    barrier.wait();
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    let end = round_end.load(Ordering::SeqCst);
                    loop {
                        let i = counter.fetch_add(1, Ordering::SeqCst);
                        if i >= end {
                            break;
                        }
                        let rec_ctl = ctl.recorder();
                        let out = f(i, &mut ctx, &rec_ctl);
                        let stop = out.is_err();
                        slots[w].enter().push((
                            i,
                            Rec {
                                out,
                                ops: rec_ctl.ops(),
                                settled: rec_ctl.settled(),
                            },
                        ));
                        if stop {
                            // A recorder only fails on a manual cancel;
                            // the run is over, stop claiming work.
                            break;
                        }
                    }
                    barrier.wait();
                });
            }

            let mut start = 0;
            while start < n && halted.is_none() {
                let end = (start + round_len).min(n);
                counter.store(start, Ordering::SeqCst);
                round_end.store(end, Ordering::SeqCst);
                barrier.wait(); // release workers into the round
                barrier.wait(); // all records are in

                let mut round: Vec<Option<Rec<T>>> = (start..end).map(|_| None).collect();
                for slot in &slots {
                    for (i, rec) in slot.enter().drain(..) {
                        round[i - start] = Some(rec);
                    }
                }
                for (off, slot) in round.into_iter().enumerate() {
                    let i = start + off;
                    let committed = match slot {
                        Some(Rec {
                            out: Ok(v),
                            ops,
                            settled,
                        }) => match ctl.try_charge(ops, settled) {
                            Charge::Committed => {
                                items.push(v);
                                true
                            }
                            Charge::Replay => false,
                        },
                        // Locally interrupted or never ran: decide live.
                        _ => false,
                    };
                    if !committed {
                        match f(i, &mut replay_ctx, ctl) {
                            Ok(v) => items.push(v),
                            Err(halt) => {
                                halted = Some(halt.why);
                                partial = halt.partial;
                                break;
                            }
                        }
                    }
                }
                start = end;
            }
            done.store(true, Ordering::SeqCst);
            barrier.wait(); // release workers to exit
        });
        // lint:allow(L1) reason=scope only fails when a worker panicked, which the panic-free library contract already forbids
        scope_result.expect("executor worker panicked");
        TryMap {
            items,
            halted,
            partial,
        }
    }
}

/// The sequential reference loop the parallel path must reproduce.
fn run_sequential<C, T>(
    n: usize,
    ctl: &Control,
    ctx: &mut C,
    f: &(impl Fn(usize, &mut C, &Control) -> Result<T, Halt<T>> + ?Sized),
) -> TryMap<T> {
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        match f(i, ctx, ctl) {
            Ok(v) => items.push(v),
            Err(halt) => {
                return TryMap {
                    items,
                    halted: Some(halt.why),
                    partial: halt.partial,
                };
            }
        }
    }
    TryMap {
        items,
        halted: None,
        partial: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_runctl::{CancelToken, RunBudget};

    /// Runs the same item function under every thread count and asserts
    /// identical prefixes, halt causes, kept partials and final control
    /// counters.
    fn assert_matches_sequential<T: PartialEq + std::fmt::Debug + Send>(
        n: usize,
        budget: impl Fn() -> (RunBudget, CancelToken),
        f: impl Fn(usize, &mut u64, &Control) -> Result<T, Halt<T>> + Sync,
    ) {
        let (b, t) = budget();
        let seq_ctl = Control::new(b, t);
        let mut scratch = 0u64;
        let seq = run_sequential(n, &seq_ctl, &mut scratch, &f);
        for threads in [2usize, 3, 8] {
            for chunk in [1usize, 2, 7, 32] {
                let (b, t) = budget();
                let ctl = Control::new(b, t);
                let par =
                    Executor::new(threads)
                        .with_chunk(chunk)
                        .try_map_ctl(n, &ctl, || 0u64, &f);
                assert_eq!(par.items, seq.items, "threads={threads} chunk={chunk}");
                assert_eq!(par.halted, seq.halted, "threads={threads} chunk={chunk}");
                assert_eq!(par.partial, seq.partial, "threads={threads} chunk={chunk}");
                assert_eq!(ctl.ops(), seq_ctl.ops(), "threads={threads} chunk={chunk}");
                assert_eq!(
                    ctl.settled(),
                    seq_ctl.settled(),
                    "threads={threads} chunk={chunk}"
                );
                assert_eq!(
                    ctl.interrupt(),
                    seq_ctl.interrupt(),
                    "threads={threads} chunk={chunk}"
                );
            }
        }
    }

    /// One check per item plus `i % 3` settlements: variable cost.
    fn item(i: usize, _ctx: &mut u64, c: &Control) -> Result<u64, Halt<u64>> {
        c.check()?;
        for _ in 0..i % 3 {
            c.check_settled()?;
        }
        Ok((i as u64) * 10)
    }

    /// An item made of `1 + i % 4` steps, one check each, that keeps the
    /// steps it finished when a check fires mid-item.
    fn stepped(i: usize, _ctx: &mut u64, c: &Control) -> Result<usize, Halt<usize>> {
        for step in 0..=i % 4 {
            if let Err(why) = c.check() {
                return Err(Halt {
                    partial: Some(step),
                    why,
                });
            }
        }
        Ok(1 + i % 4)
    }

    #[test]
    fn unlimited_matches_sequential() {
        assert_matches_sequential(100, || (RunBudget::unlimited(), CancelToken::new()), item);
    }

    #[test]
    fn op_budget_halts_at_identical_prefix() {
        for max_ops in [0u64, 1, 7, 50, 120, 1_000] {
            assert_matches_sequential(
                100,
                || {
                    (
                        RunBudget::unlimited().with_max_ops(max_ops),
                        CancelToken::new(),
                    )
                },
                item,
            );
        }
    }

    #[test]
    fn settled_budget_halts_at_identical_prefix() {
        for max in [0u64, 1, 5, 33, 66] {
            assert_matches_sequential(
                100,
                || {
                    (
                        RunBudget::unlimited().with_max_settled_nodes(max),
                        CancelToken::new(),
                    )
                },
                item,
            );
        }
    }

    #[test]
    fn halting_item_keeps_its_completed_part() {
        for max_ops in [0u64, 1, 3, 4, 9, 40, 151] {
            assert_matches_sequential(
                100,
                || {
                    (
                        RunBudget::unlimited().with_max_ops(max_ops),
                        CancelToken::new(),
                    )
                },
                stepped,
            );
        }
        // Items 0..=2 take 1 + 2 + 3 checks; the fourth item's first two
        // steps fit the remaining budget of 8 - 6 ops.
        let ctl = Control::new(RunBudget::unlimited().with_max_ops(8), CancelToken::new());
        let r = Executor::new(1).try_map_ctl(10, &ctl, || 0u64, stepped);
        assert_eq!(r.items, vec![1, 2, 3]);
        assert_eq!(r.halted, Some(Interrupt::OpBudgetExhausted));
        assert_eq!(r.partial, Some(2));
    }

    #[test]
    fn fused_cancellation_trips_at_identical_poll() {
        for polls in [0u64, 1, 2, 17, 64, 150] {
            assert_matches_sequential(
                100,
                || (RunBudget::unlimited(), CancelToken::armed_after(polls)),
                item,
            );
        }
    }

    #[test]
    fn every_arming_of_a_dense_matrix_matches() {
        // Exhaustive cancel/budget matrix over a small item set.
        for limit in 0..60u64 {
            assert_matches_sequential(
                12,
                || {
                    (
                        RunBudget::unlimited().with_max_ops(limit),
                        CancelToken::new(),
                    )
                },
                item,
            );
            assert_matches_sequential(
                12,
                || (RunBudget::unlimited(), CancelToken::armed_after(limit)),
                item,
            );
        }
    }

    #[test]
    fn zero_items_and_tiny_inputs_take_the_sequential_path() {
        let ctl = Control::unlimited();
        let r = Executor::new(8).try_map_ctl(0, &ctl, || (), |_, (), _| Ok::<u8, Halt<u8>>(1));
        assert!(r.items.is_empty() && r.halted.is_none());
        let r = Executor::new(8).try_map_ctl(
            3,
            &ctl,
            || (),
            |i, (), c| {
                c.check()?;
                Ok(i)
            },
        );
        assert_eq!(r.items, vec![0, 1, 2]);
    }

    #[test]
    fn manual_cancel_halts_with_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let ctl = Control::new(RunBudget::unlimited(), token);
        let r = Executor::new(4).try_map_ctl(100, &ctl, || 0u64, item);
        assert!(r.items.is_empty());
        assert_eq!(r.halted, Some(Interrupt::Cancelled));
    }

    #[test]
    fn replayed_prefix_matches_under_cluster_cap_interplay() {
        // Items that succeed but whose charges land exactly on budget
        // boundaries (regression guard for off-by-one in try_charge).
        for max_ops in 95..=105u64 {
            assert_matches_sequential(
                100,
                || {
                    (
                        RunBudget::unlimited().with_max_ops(max_ops),
                        CancelToken::new(),
                    )
                },
                |i, _ctx, c| {
                    c.check()?;
                    Ok(i)
                },
            );
        }
    }
}
