//! Retry decorator over [`Fs`] for transient I/O errors.
//!
//! Network filesystems and overloaded disks surface transient failures
//! (`EINTR`, `EAGAIN`, timeouts) that succeed on a simple retry. Rather
//! than teach every call site a retry loop, [`RetryFs`] wraps any [`Fs`]
//! and replays *idempotent* operations a bounded number of times with an
//! injectable backoff.
//!
//! `append` is deliberately **not** retried: a failed append may have
//! landed partially, and replaying it could duplicate journal records.
//! The journal layer already tolerates a torn tail, so the safe recovery
//! for a failed append is the caller's (re-ingest after resume), not a
//! blind replay.

use crate::fs::Fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// How to pause between retry attempts.
///
/// Injected so tests (and deterministic replay harnesses) never sleep:
/// the durability layer is not an algorithm crate, but keeping wall-time
/// behind a seam mirrors the `Clock` discipline used by `neat-runctl`.
pub trait Backoff: Send + Sync {
    /// Pauses before retry number `attempt` (1-based).
    fn pause(&self, attempt: u32);
}

/// No pause at all — for tests and for callers that retry in a loop that
/// already paces itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBackoff;

impl Backoff for NoBackoff {
    fn pause(&self, _attempt: u32) {}
}

/// How a [`JitterBackoff`] actually spends its computed delay.
///
/// Injected so deterministic harnesses never sleep: the schedule (which
/// is the part that matters for contention) is reproducible from the
/// seed alone, while wall-time only enters through this seam.
pub trait Sleep: Send + Sync {
    /// Spends `delay` (or records it, in tests).
    fn sleep(&self, delay: Duration);
}

/// Really sleeps the thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadSleep;

impl Sleep for ThreadSleep {
    fn sleep(&self, delay: Duration) {
        std::thread::sleep(delay);
    }
}

/// Discards the delay — for tests and self-pacing callers.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSleep;

impl Sleep for NoSleep {
    fn sleep(&self, _delay: Duration) {}
}

/// `splitmix64` step — a tiny, dependency-free deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shared mutable core of a [`JitterBackoff`]: the generator plus the
/// cumulative delay it has handed out (for the max-elapsed cap).
#[derive(Debug)]
struct BackoffState {
    seed: u64,
    scheduled: Duration,
}

/// Deterministic full-jitter exponential backoff.
///
/// Attempt `n` draws uniformly from `[0, min(max, base * 2^(n-1))]`
/// using a seeded `splitmix64` stream — the classic full-jitter schedule
/// that decorrelates retry storms, but reproducible: the same seed
/// yields the same delay sequence, so chaos harnesses can assert on it.
/// Clones share the generator state (and therefore the stream), mirroring
/// how [`RetryFs`] clones share their counters.
///
/// Growth is optionally bounded with [`JitterBackoff::with_caps`]: a
/// maximum attempt count and/or a maximum cumulative scheduled delay.
/// [`JitterBackoff::next_delay_checked`] enforces both and returns
/// `None` once the budget is spent — the shared give-up signal for
/// `neat push` retries and the server's `Defer{retry_after_ms}` hints,
/// which are drawn from this same schedule.
///
/// The sleeper is injectable; use [`NoSleep`] in tests to keep the
/// schedule observable without wall-time.
#[derive(Debug)]
pub struct JitterBackoff<S: Sleep = ThreadSleep> {
    base: Duration,
    max: Duration,
    max_attempts: Option<u32>,
    max_elapsed: Option<Duration>,
    state: Arc<Mutex<BackoffState>>,
    sleeper: S,
}

impl JitterBackoff<ThreadSleep> {
    /// Seeded full-jitter schedule that really sleeps; 10 ms base,
    /// 500 ms cap unless overridden with [`JitterBackoff::with_sleeper`].
    pub fn seeded(seed: u64) -> Self {
        JitterBackoff::with_sleeper(
            seed,
            Duration::from_millis(10),
            Duration::from_millis(500),
            ThreadSleep,
        )
    }
}

impl<S: Sleep> JitterBackoff<S> {
    /// Full control: seed, exponential envelope, and sleeper.
    pub fn with_sleeper(seed: u64, base: Duration, max: Duration, sleeper: S) -> Self {
        JitterBackoff {
            base,
            max,
            max_attempts: None,
            max_elapsed: None,
            state: Arc::new(Mutex::new(BackoffState {
                seed,
                scheduled: Duration::ZERO,
            })),
            sleeper,
        }
    }

    /// Bounds the schedule: at most `max_attempts` retries and/or at
    /// most `max_elapsed` of cumulative scheduled delay. `None` leaves
    /// the respective dimension unbounded (the pre-cap behavior).
    pub fn with_caps(mut self, max_attempts: Option<u32>, max_elapsed: Option<Duration>) -> Self {
        self.max_attempts = max_attempts;
        self.max_elapsed = max_elapsed;
        self
    }

    /// The envelope-capped draw for `attempt`, advancing the stream.
    /// Runs under the state lock held by the caller.
    fn draw(&self, state: &mut BackoffState, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        let cap = self.base.saturating_mul(factor).min(self.max);
        let cap_nanos = cap.as_nanos().min(u128::from(u64::MAX)) as u64;
        let draw = splitmix64(&mut state.seed);
        Duration::from_nanos(match cap_nanos {
            0 => 0,
            n => draw % (n + 1),
        })
    }

    /// Draws the next delay for retry `attempt` (1-based) and advances
    /// the deterministic stream. Ignores the caps — see
    /// [`JitterBackoff::next_delay_checked`] for the bounded draw.
    pub fn next_delay(&self, attempt: u32) -> Duration {
        // lint:allow(L6) reason=neat-durability sits below neat-runctl in the crate graph, so it inlines the same ride-through policy Lock::enter provides
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let d = self.draw(&mut state, attempt);
        state.scheduled = state.scheduled.saturating_add(d);
        d
    }

    /// The bounded draw: `None` once `attempt` exceeds the attempt cap
    /// or the cumulative scheduled delay has reached the elapsed cap;
    /// otherwise the next delay, clamped so the cumulative total never
    /// overshoots the elapsed cap.
    pub fn next_delay_checked(&self, attempt: u32) -> Option<Duration> {
        if self.max_attempts.is_some_and(|n| attempt > n) {
            return None;
        }
        // lint:allow(L6) reason=neat-durability sits below neat-runctl in the crate graph, so it inlines the same ride-through policy Lock::enter provides
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let remaining = match self.max_elapsed {
            Some(cap) => {
                if state.scheduled >= cap {
                    return None;
                }
                Some(cap - state.scheduled)
            }
            None => None,
        };
        let mut d = self.draw(&mut state, attempt);
        if let Some(r) = remaining {
            d = d.min(r);
        }
        state.scheduled = state.scheduled.saturating_add(d);
        Some(d)
    }

    /// Cumulative delay the schedule has handed out so far.
    pub fn scheduled(&self) -> Duration {
        // lint:allow(L6) reason=neat-durability sits below neat-runctl in the crate graph, so it inlines the same ride-through policy Lock::enter provides
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.scheduled
    }
}

impl<S: Sleep + Clone> Clone for JitterBackoff<S> {
    fn clone(&self) -> Self {
        JitterBackoff {
            base: self.base,
            max: self.max,
            max_attempts: self.max_attempts,
            max_elapsed: self.max_elapsed,
            state: Arc::clone(&self.state),
            sleeper: self.sleeper.clone(),
        }
    }
}

impl<S: Sleep> Backoff for JitterBackoff<S> {
    fn pause(&self, attempt: u32) {
        self.sleeper.sleep(self.next_delay(attempt));
    }
}

/// `true` for error kinds that plausibly succeed on retry.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// An [`Fs`] decorator that retries transient failures of idempotent
/// operations.
///
/// Retried: `read`, `write`, `rename`, `remove_file`, `create_dir_all`,
/// `list`, `sync_dir`. Not retried: `append` (see module docs) and any
/// error whose kind is not transient (`Interrupted` / `WouldBlock` /
/// `TimedOut`).
///
/// ```
/// use neat_durability::fs::{Fs, MemFs};
/// use neat_durability::retry::{NoBackoff, RetryFs};
/// use std::path::Path;
///
/// let fs = RetryFs::new(MemFs::new(), 3, NoBackoff);
/// fs.write(Path::new("/d/a"), b"payload").unwrap();
/// assert_eq!(fs.read(Path::new("/d/a")).unwrap(), b"payload");
/// assert_eq!(fs.retries(), 0); // MemFs never fails transiently
/// ```
#[derive(Debug)]
pub struct RetryFs<F, B> {
    inner: F,
    max_retries: u32,
    backoff: B,
    retries: Arc<AtomicU64>,
    exhausted: Arc<AtomicU64>,
}

/// Snapshot of a [`RetryFs`]'s observability counters, surfaced through
/// service health reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient failures that were retried.
    pub retries: u64,
    /// Operations that kept failing transiently until the retry budget
    /// ran out — the error reached the caller.
    pub exhausted: u64,
}

impl<F: Clone, B: Clone> Clone for RetryFs<F, B> {
    /// Clones share the counters (and, for seeded backoffs, the jitter
    /// stream), so a service holding one handle and a store holding
    /// another report one combined tally.
    fn clone(&self) -> Self {
        RetryFs {
            inner: self.inner.clone(),
            max_retries: self.max_retries,
            backoff: self.backoff.clone(),
            retries: Arc::clone(&self.retries),
            exhausted: Arc::clone(&self.exhausted),
        }
    }
}

impl<F: Fs, B: Backoff> RetryFs<F, B> {
    /// Wraps `inner`, retrying each idempotent operation up to
    /// `max_retries` extra times with `backoff` pauses in between.
    pub fn new(inner: F, max_retries: u32, backoff: B) -> Self {
        RetryFs {
            inner,
            max_retries,
            backoff,
            retries: Arc::new(AtomicU64::new(0)),
            exhausted: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Total retry attempts performed (across all operations) — an
    /// observability counter for flaky-storage diagnostics.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Operations whose transient failure survived every allowed retry
    /// and surfaced to the caller.
    pub fn retries_exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Both counters as one snapshot for health reporting.
    pub fn stats(&self) -> RetryStats {
        RetryStats {
            retries: self.retries(),
            exhausted: self.retries_exhausted(),
        }
    }

    /// The wrapped filesystem.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient(&e) && attempt < self.max_retries => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.backoff.pause(attempt);
                }
                Err(e) => {
                    if is_transient(&e) {
                        // Still transient after every allowed retry: the
                        // caller sees the failure, and the health report
                        // sees that retrying stopped helping.
                        self.exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
    }
}

impl<F: Fs, B: Backoff> Fs for RetryFs<F, B> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.run(|| self.inner.read(path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.run(|| self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        // Never retried: a partial landing would duplicate records.
        self.inner.append(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.run(|| self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.run(|| self.inner.remove_file(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.run(|| self.inner.create_dir_all(path))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.run(|| self.inner.list(dir))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.run(|| self.inner.sync_dir(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    /// Fails each operation's first `fail_first` calls with `kind`.
    #[derive(Debug, Clone)]
    struct Flaky {
        inner: MemFs,
        fail_first: u32,
        kind: io::ErrorKind,
        calls: Arc<AtomicU32>,
    }

    impl Flaky {
        fn new(fail_first: u32, kind: io::ErrorKind) -> Self {
            Flaky {
                inner: MemFs::new(),
                fail_first,
                kind,
                calls: Arc::new(AtomicU32::new(0)),
            }
        }

        fn gate(&self) -> io::Result<()> {
            if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
                Err(io::Error::new(self.kind, "injected transient fault"))
            } else {
                Ok(())
            }
        }
    }

    impl Fs for Flaky {
        fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
            self.gate()?;
            self.inner.read(p)
        }
        fn write(&self, p: &Path, b: &[u8]) -> io::Result<()> {
            self.gate()?;
            self.inner.write(p, b)
        }
        fn append(&self, p: &Path, b: &[u8]) -> io::Result<()> {
            self.gate()?;
            self.inner.append(p, b)
        }
        fn rename(&self, f: &Path, t: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.rename(f, t)
        }
        fn remove_file(&self, p: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.remove_file(p)
        }
        fn create_dir_all(&self, p: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.create_dir_all(p)
        }
        fn list(&self, d: &Path) -> io::Result<Vec<PathBuf>> {
            self.gate()?;
            self.inner.list(d)
        }
        fn sync_dir(&self, d: &Path) -> io::Result<()> {
            self.gate()?;
            self.inner.sync_dir(d)
        }
        fn exists(&self, p: &Path) -> bool {
            self.inner.exists(p)
        }
    }

    #[test]
    fn transient_write_errors_are_retried() {
        let fs = RetryFs::new(Flaky::new(2, io::ErrorKind::Interrupted), 3, NoBackoff);
        fs.write(Path::new("/d/a"), b"ok").unwrap();
        assert_eq!(fs.retries(), 2);
        assert_eq!(fs.inner().inner.read(Path::new("/d/a")).unwrap(), b"ok");
    }

    #[test]
    fn retries_are_bounded() {
        let fs = RetryFs::new(Flaky::new(10, io::ErrorKind::TimedOut), 3, NoBackoff);
        let err = fs.write(Path::new("/d/a"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(fs.retries(), 3, "exactly max_retries attempts");
    }

    #[test]
    fn non_transient_errors_fail_immediately() {
        let fs = RetryFs::new(Flaky::new(5, io::ErrorKind::PermissionDenied), 3, NoBackoff);
        let err = fs.write(Path::new("/d/a"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(fs.retries(), 0);
    }

    #[test]
    fn append_is_never_retried() {
        let fs = RetryFs::new(Flaky::new(1, io::ErrorKind::Interrupted), 3, NoBackoff);
        let err = fs.append(Path::new("/d/log"), b"rec").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(fs.retries(), 0);
        // The next append succeeds (fault consumed) and nothing doubled.
        fs.append(Path::new("/d/log"), b"rec").unwrap();
        assert_eq!(fs.inner().inner.read(Path::new("/d/log")).unwrap(), b"rec");
    }

    #[test]
    fn backoff_sees_increasing_attempt_numbers() {
        #[derive(Default)]
        struct Recording(Mutex<Vec<u32>>);
        impl Backoff for Recording {
            fn pause(&self, attempt: u32) {
                self.0
                    .lock()
                    .expect("test mutex") // lint:allow(L1) reason=test-only recorder; poisoning implies a prior panic
                    .push(attempt);
            }
        }
        let fs = RetryFs::new(
            Flaky::new(3, io::ErrorKind::WouldBlock),
            5,
            Recording::default(),
        );
        fs.read(Path::new("/missing")).unwrap_err(); // NotFound after retries
                                                     // Three transient faults, then the real NotFound surfaces.
        assert_eq!(*fs.backoff.0.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn exhausted_counter_tracks_giving_up() {
        let fs = RetryFs::new(Flaky::new(10, io::ErrorKind::TimedOut), 2, NoBackoff);
        fs.write(Path::new("/d/a"), b"x").unwrap_err();
        assert_eq!(
            fs.stats(),
            RetryStats {
                retries: 2,
                exhausted: 1
            }
        );
        // Non-transient failures never count as exhausted.
        let fs = RetryFs::new(Flaky::new(5, io::ErrorKind::PermissionDenied), 2, NoBackoff);
        fs.write(Path::new("/d/a"), b"x").unwrap_err();
        assert_eq!(fs.retries_exhausted(), 0);
    }

    #[test]
    fn clones_share_counters() {
        let fs = RetryFs::new(Flaky::new(2, io::ErrorKind::Interrupted), 3, NoBackoff);
        let other = fs.clone();
        fs.write(Path::new("/d/a"), b"ok").unwrap();
        assert_eq!(other.retries(), 2, "clone must see the same tally");
    }

    #[test]
    fn jitter_schedule_is_deterministic_and_enveloped() {
        #[derive(Default, Clone)]
        struct Recording(Arc<Mutex<Vec<Duration>>>);
        impl Sleep for Recording {
            fn sleep(&self, d: Duration) {
                self.0
                    .lock()
                    .expect("test mutex") // lint:allow(L1) reason=test-only recorder; poisoning implies a prior panic
                    .push(d);
            }
        }
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(80);
        let schedule = |seed: u64| -> Vec<Duration> {
            let rec = Recording::default();
            let b = JitterBackoff::with_sleeper(seed, base, max, rec.clone());
            for attempt in 1..=6 {
                b.pause(attempt);
            }
            let delays = rec.0.lock().unwrap().clone();
            delays
        };
        let a = schedule(42);
        assert_eq!(a, schedule(42), "same seed, same schedule");
        assert_ne!(a, schedule(43), "different seed decorrelates");
        for (i, d) in a.iter().enumerate() {
            let cap = base.saturating_mul(1 << i).min(max);
            assert!(*d <= cap, "attempt {} delay {d:?} over cap {cap:?}", i + 1);
        }
    }

    #[test]
    fn jitter_clones_share_the_stream() {
        let a = JitterBackoff::with_sleeper(
            7,
            Duration::from_millis(10),
            Duration::from_secs(1),
            NoSleep,
        );
        let b = a.clone();
        let first = a.next_delay(1);
        let second = b.next_delay(1);
        // The clone continued the stream rather than replaying it.
        assert_ne!(first, second);
    }

    #[test]
    fn attempt_cap_ends_the_checked_schedule() {
        let b = JitterBackoff::with_sleeper(
            9,
            Duration::from_millis(10),
            Duration::from_millis(100),
            NoSleep,
        )
        .with_caps(Some(3), None);
        assert!(b.next_delay_checked(1).is_some());
        assert!(b.next_delay_checked(2).is_some());
        assert!(b.next_delay_checked(3).is_some());
        assert!(b.next_delay_checked(4).is_none(), "attempt cap exhausted");
    }

    #[test]
    fn elapsed_cap_clamps_then_ends_the_schedule() {
        let cap = Duration::from_millis(25);
        let b = JitterBackoff::with_sleeper(
            11,
            Duration::from_millis(20),
            Duration::from_secs(1),
            NoSleep,
        )
        .with_caps(None, Some(cap));
        let mut total = Duration::ZERO;
        let mut attempts = 0u32;
        while let Some(d) = b.next_delay_checked(attempts + 1) {
            attempts += 1;
            total += d;
            assert!(total <= cap, "cumulative {total:?} overshot cap {cap:?}");
            assert!(attempts < 10_000, "schedule must terminate");
        }
        assert_eq!(b.scheduled(), total);
        assert!(total <= cap);
    }

    #[test]
    fn uncapped_draws_match_the_legacy_schedule() {
        // next_delay (uncapped) and next_delay_checked with no caps must
        // produce the same stream for the same seed: one schedule shared
        // by server Defer hints and client retries.
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(500);
        let a = JitterBackoff::with_sleeper(77, base, max, NoSleep);
        let b = JitterBackoff::with_sleeper(77, base, max, NoSleep).with_caps(None, None);
        for attempt in 1..=8 {
            assert_eq!(Some(a.next_delay(attempt)), b.next_delay_checked(attempt));
        }
    }

    #[test]
    fn retryfs_composes_with_write_atomic() {
        let fs = RetryFs::new(Flaky::new(2, io::ErrorKind::Interrupted), 4, NoBackoff);
        crate::fs::write_atomic(&fs, Path::new("/d/snap"), b"payload").unwrap();
        assert_eq!(
            fs.inner().inner.read(Path::new("/d/snap")).unwrap(),
            b"payload"
        );
    }
}
