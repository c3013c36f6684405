//! A counting, timing [`Fs`] decorator: every call passes through to the
//! wrapped filesystem unchanged, and the operation counts, bytes and time
//! spent are accumulated in shared [`FsStats`].

use neat_durability::Fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Totals over every call made through a [`TracedFs`] and its clones.
/// The counters publish no other data, so they use relaxed atomics.
#[derive(Debug, Default)]
pub struct FsStats {
    busy_ns: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    appends: AtomicU64,
    renames: AtomicU64,
    removes: AtomicU64,
    dir_syncs: AtomicU64,
    lists: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

/// A plain copy of [`FsStats`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    /// Nanoseconds spent inside the wrapped filesystem.
    pub busy_ns: u64,
    /// `read` calls.
    pub reads: u64,
    /// `write` calls (each one durable: data plus fsync).
    pub writes: u64,
    /// `append` calls (each one durable: data plus fsync).
    pub appends: u64,
    /// `rename` calls.
    pub renames: u64,
    /// `remove_file` calls.
    pub removes: u64,
    /// `sync_dir` calls.
    pub dir_syncs: u64,
    /// `list` calls.
    pub lists: u64,
    /// Bytes handed to `write` and `append`.
    pub bytes_written: u64,
    /// Bytes returned by successful `read` calls.
    pub bytes_read: u64,
}

impl FsStats {
    /// The current totals.
    pub fn counts(&self) -> FsCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FsCounts {
            busy_ns: get(&self.busy_ns),
            reads: get(&self.reads),
            writes: get(&self.writes),
            appends: get(&self.appends),
            renames: get(&self.renames),
            removes: get(&self.removes),
            dir_syncs: get(&self.dir_syncs),
            lists: get(&self.lists),
            bytes_written: get(&self.bytes_written),
            bytes_read: get(&self.bytes_read),
        }
    }
}

/// Wraps an [`Fs`]; clones share one [`FsStats`].
#[derive(Debug, Clone)]
pub struct TracedFs<F: Fs> {
    inner: F,
    stats: Arc<FsStats>,
}

impl<F: Fs> TracedFs<F> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: F) -> Self {
        TracedFs {
            inner,
            stats: Arc::new(FsStats::default()),
        }
    }

    /// The shared counters.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    fn timed<T>(&self, counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.stats
            .busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        counter.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<F: Fs> Fs for TracedFs<F> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let out = self.timed(&self.stats.reads, || self.inner.read(path));
        if let Ok(bytes) = &out {
            self.stats
                .bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(&self.stats.writes, || self.inner.write(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(&self.stats.appends, || self.inner.append(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(&self.stats.renames, || self.inner.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(&self.stats.removes, || self.inner.remove_file(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.timed(&self.stats.lists, || self.inner.list(dir))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed(&self.stats.dir_syncs, || self.inner.sync_dir(dir))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_durability::fs::write_atomic;
    use neat_durability::MemFs;

    /// The same operation script, run against any `Fs`.
    fn script<F: Fs>(fs: &F) {
        let d = Path::new("/d");
        fs.create_dir_all(d).unwrap();
        fs.write(&d.join("a"), b"hello").unwrap();
        fs.append(&d.join("a"), b" world").unwrap();
        fs.append(&d.join("log"), b"12").unwrap();
        write_atomic(fs, &d.join("snap"), b"snapshot").unwrap();
        assert_eq!(fs.read(&d.join("a")).unwrap(), b"hello world");
        assert!(fs.read(&d.join("missing")).is_err());
        fs.rename(&d.join("log"), &d.join("log2")).unwrap();
        fs.remove_file(&d.join("log2")).unwrap();
        assert_eq!(fs.list(d).unwrap().len(), 2);
        fs.sync_dir(d).unwrap();
    }

    #[test]
    fn wrapper_leaves_contents_byte_identical_and_counts_every_call() {
        let plain = MemFs::new();
        script(&plain);
        let under = MemFs::new();
        let traced = TracedFs::new(under.clone());
        script(&traced);
        assert_eq!(plain.dump(), under.dump());

        let c = traced.stats().counts();
        // write_atomic = write + rename + sync_dir.
        assert_eq!(c.writes, 2);
        assert_eq!(c.appends, 2);
        assert_eq!(c.renames, 2);
        assert_eq!(c.removes, 1);
        assert_eq!(c.dir_syncs, 2);
        assert_eq!(c.lists, 1);
        assert_eq!(c.reads, 2);
        assert_eq!(c.bytes_written, 5 + 6 + 2 + 8);
        assert_eq!(c.bytes_read, 11, "failed reads return no bytes");
    }

    #[test]
    fn clones_share_counters() {
        let traced = TracedFs::new(MemFs::new());
        let other = traced.clone();
        other.write(Path::new("/x"), b"abc").unwrap();
        assert_eq!(traced.stats().counts().writes, 1);
        assert_eq!(traced.stats().counts().bytes_written, 3);
    }
}
