//! Per-test scratch directories, free of any workspace dependency so
//! every test crate can include it (`crates/*/tests` via `#[path]`).
//!
//! Each directory is unique per process, test name and call, so tests
//! running in parallel — or two checkouts testing on one host — never
//! share a path. Dropping the guard removes the directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory `$TMPDIR/xks-<test>-<pid>-<n>`, removed on drop.
/// Derefs to its [`Path`].
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the directory for `test` (any previous one of the same
    /// name is cleared first).
    pub fn new(test: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("xks-{test}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test temp dir");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
