//! Deterministic fault injection for the durability paths.
//!
//! Every write/fsync boundary in the WAL ([`crate::wal`]) and the
//! compaction pipeline ([`crate::mutable`]) consults an [`Injector`]
//! before touching the file system. A production corpus runs with
//! [`Injector::none`] (one relaxed atomic load per boundary); the
//! crash-matrix tests instead enumerate every boundary with
//! [`Injector::recording`], then re-run the same operation once per
//! `(boundary, fault kind)` pair with [`Injector::arm`] and assert
//! recovery lands on the pre-op or post-op corpus — never a third
//! state.
//!
//! Three fault kinds cover the failure modes a disk can hand back:
//!
//! * [`FaultKind::Error`] — the boundary fails once with an I/O error
//!   and the process *continues* (a transient `EIO`). Later boundaries
//!   succeed; the caller must leave the corpus consistent.
//! * [`FaultKind::ShortWrite`] — a write persists only a prefix of its
//!   buffer, then the process dies (a torn write: the classic
//!   power-loss-mid-sector). Only write boundaries tear; on other
//!   boundaries this degrades to [`FaultKind::Crash`].
//! * [`FaultKind::Crash`] — the boundary and **every boundary after
//!   it** fail (the process is dead). Recovery happens at the next
//!   open.
//!
//! One honest limitation: faults fire on the write path, but bytes
//! already handed to the OS stay in the page cache — an in-process
//! harness cannot un-write them. The matrix therefore validates
//! recovery from every *post-write* on-disk state; losing un-fsynced
//! data needs a block-device simulator and is out of scope (the fsync
//! ordering that makes such loss safe is documented and tested
//! structurally in `docs/DURABILITY.md`).

use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::pool::lock_unpoisoned;

/// What an armed [`Injector`] does when its target boundary is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail this one boundary with an I/O error; later boundaries
    /// succeed (a transient error the caller must survive).
    Error,
    /// Persist only a prefix of the write, then die (torn write).
    ShortWrite,
    /// Fail this boundary and every boundary after it (process death).
    Crash,
}

#[derive(Debug, Default)]
struct InjectorState {
    /// `Some((boundary index, kind))` when armed.
    armed: Option<(u64, FaultKind)>,
    /// Boundaries seen so far (the next boundary gets this index).
    next_op: u64,
    /// Set once a `Crash`/`ShortWrite` fault fires: every later
    /// boundary fails.
    dead: bool,
    /// Whether the armed fault has fired at least once.
    fired: bool,
    /// Boundary labels, recorded when `record` is set.
    labels: Vec<String>,
    record: bool,
}

/// A shared, thread-safe fault plan consulted at every durability
/// boundary. Cloning shares the plan (and the boundary counter).
#[derive(Debug, Clone)]
pub struct Injector {
    state: Arc<Mutex<InjectorState>>,
    /// Fast path: `false` means every boundary is a no-op check.
    active: Arc<AtomicBool>,
}

/// What a write boundary should do, as decided by the injector.
enum WriteDirective {
    /// Perform the full write.
    Full,
    /// Persist only this many bytes, then report the injected error.
    Short(usize),
}

impl Default for Injector {
    fn default() -> Self {
        Injector::none()
    }
}

impl Injector {
    fn with_state(state: InjectorState, active: bool) -> Self {
        Injector {
            state: Arc::new(Mutex::new(state)),
            active: Arc::new(AtomicBool::new(active)),
        }
    }

    /// An injector that never fires — the production configuration.
    #[must_use]
    pub fn none() -> Self {
        Injector::with_state(InjectorState::default(), false)
    }

    /// An injector that fires nothing but records every boundary label
    /// it sees — the matrix-enumeration pass.
    #[must_use]
    pub fn recording() -> Self {
        Injector::with_state(
            InjectorState {
                record: true,
                ..InjectorState::default()
            },
            true,
        )
    }

    /// An injector armed to inject `kind` at the `n`-th boundary
    /// (0-based, in the order [`Injector::recording`] reported).
    #[must_use]
    pub fn arm(n: u64, kind: FaultKind) -> Self {
        Injector::with_state(
            InjectorState {
                armed: Some((n, kind)),
                ..InjectorState::default()
            },
            true,
        )
    }

    /// Number of boundaries consulted so far.
    #[must_use]
    pub fn ops(&self) -> u64 {
        lock_unpoisoned(&self.state).next_op
    }

    /// True once the armed fault has fired.
    #[must_use]
    pub fn fired(&self) -> bool {
        lock_unpoisoned(&self.state).fired
    }

    /// The boundary labels recorded by a [`Injector::recording`] pass,
    /// in hit order.
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        lock_unpoisoned(&self.state).labels.clone()
    }

    /// Consults the plan at a non-write boundary (fsync, rename,
    /// directory sync). `ShortWrite` degrades to `Crash` here — there
    /// is no buffer to tear.
    pub fn check(&self, label: &str) -> io::Result<()> {
        match self.enter(label, 0)? {
            WriteDirective::Full | WriteDirective::Short(_) => Ok(()),
        }
    }

    /// Consults the plan at a write boundary carrying `len` bytes.
    fn enter(&self, label: &str, len: usize) -> io::Result<WriteDirective> {
        if !self.active.load(Ordering::Relaxed) {
            return Ok(WriteDirective::Full);
        }
        let mut state = lock_unpoisoned(&self.state);
        let op = state.next_op;
        state.next_op += 1;
        if state.record {
            state.labels.push(label.to_owned());
        }
        if state.dead {
            return Err(injected(format!("process dead at {label} (op {op})")));
        }
        match state.armed {
            Some((n, kind)) if n == op => {
                state.fired = true;
                match kind {
                    FaultKind::Error => Err(injected(format!("I/O error at {label} (op {op})"))),
                    FaultKind::ShortWrite if len > 0 => {
                        state.dead = true;
                        Ok(WriteDirective::Short(len / 2))
                    }
                    FaultKind::ShortWrite | FaultKind::Crash => {
                        state.dead = true;
                        Err(injected(format!("crash at {label} (op {op})")))
                    }
                }
            }
            _ => Ok(WriteDirective::Full),
        }
    }
}

fn injected(msg: String) -> io::Error {
    io::Error::other(format!("injected fault: {msg}"))
}

/// A file handle whose writes and syncs pass through an [`Injector`].
///
/// Only the durability-critical operations are wrapped; reads go
/// through ordinary handles (fault recovery is about surviving failed
/// *writes*).
#[derive(Debug)]
pub struct FaultFile {
    file: File,
    injector: Injector,
    label: String,
}

impl FaultFile {
    /// Creates (truncating) a file at `path`.
    pub fn create(path: &Path, injector: Injector, label: &str) -> io::Result<Self> {
        Ok(FaultFile {
            file: File::create(path)?,
            injector,
            label: label.to_owned(),
        })
    }

    /// Opens an existing file read-write (append position is the
    /// caller's business via [`FaultFile::set_len`] and sequential
    /// writes).
    pub fn open_rw(path: &Path, injector: Injector, label: &str) -> io::Result<Self> {
        Ok(FaultFile {
            file: File::options().read(true).write(true).open(path)?,
            injector,
            label: label.to_owned(),
        })
    }

    /// Writes the whole buffer, or injects: a short write persists a
    /// prefix and then fails (leaving a genuinely torn tail on disk).
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self
            .injector
            .enter(&format!("{}.write", self.label), buf.len())?
        {
            WriteDirective::Full => self.file.write_all(buf),
            WriteDirective::Short(n) => {
                self.file.write_all(&buf[..n])?;
                let _ = self.file.sync_data(); // make the torn prefix durable
                Err(injected(format!(
                    "short write at {}.write ({n} of {} bytes)",
                    self.label,
                    buf.len()
                )))
            }
        }
    }

    /// `fdatasync` through the injector.
    pub fn sync_data(&self) -> io::Result<()> {
        self.injector.check(&format!("{}.fsync", self.label))?;
        self.file.sync_data()
    }

    /// Truncates (or extends) the file — the torn-tail repair path.
    /// Deliberately *not* injected: it runs while handling a failure,
    /// and the caller treats its error as poisoning.
    pub fn set_len(&self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    /// Seeks the underlying handle to `pos` from the start.
    pub fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        use std::io::Seek as _;
        self.file.seek(io::SeekFrom::Start(pos)).map(|_| ())
    }
}

/// Renames `from` over `to` through the injector (the atomic-swap
/// boundary of manifest and WAL replacement).
pub fn fault_rename(injector: &Injector, label: &str, from: &Path, to: &Path) -> io::Result<()> {
    injector.check(label)?;
    std::fs::rename(from, to)
}

/// Fsyncs the directory containing `path` through the injector, making
/// a just-renamed entry durable. A file system that cannot open
/// directories for sync (some non-Unix targets) degrades to a no-op.
pub fn fault_sync_dir(injector: &Injector, label: &str, path: &Path) -> io::Result<()> {
    injector.check(label)?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        if let Ok(handle) = File::open(dir) {
            handle.sync_all()?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    #[test]
    fn none_never_fires() {
        let inj = Injector::none();
        for _ in 0..100 {
            inj.check("x").unwrap();
        }
        assert!(!inj.fired());
        assert_eq!(inj.ops(), 0, "inactive injector skips the counter");
    }

    #[test]
    fn recording_captures_labels_in_order() {
        let inj = Injector::recording();
        inj.check("a").unwrap();
        inj.check("b").unwrap();
        assert_eq!(inj.labels(), ["a", "b"]);
        assert_eq!(inj.ops(), 2);
    }

    #[test]
    fn error_fires_once_then_recovers() {
        let inj = Injector::arm(1, FaultKind::Error);
        inj.check("a").unwrap();
        assert!(inj.check("b").is_err());
        inj.check("c").unwrap();
        assert!(inj.fired());
    }

    #[test]
    fn crash_kills_every_later_boundary() {
        let inj = Injector::arm(0, FaultKind::Crash);
        assert!(inj.check("a").is_err());
        assert!(inj.check("b").is_err());
        assert!(inj.check("c").is_err());
    }

    #[test]
    fn short_write_tears_the_file_then_dies() {
        let dir = TempDir::new("fault-test");
        let path = dir.join("torn.bin");
        let inj = Injector::arm(0, FaultKind::ShortWrite);
        let mut file = FaultFile::create(&path, inj.clone(), "wal").unwrap();
        let err = file.write_all(&[7u8; 10]).unwrap_err();
        assert!(err.to_string().contains("short write"));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 5);
        assert!(file.write_all(&[7u8; 10]).is_err(), "dead after tearing");
        std::fs::remove_file(&path).unwrap();
    }
}
