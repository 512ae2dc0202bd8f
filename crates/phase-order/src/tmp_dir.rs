//! A scratch directory for tests that write stores, sockets or metrics
//! files, removed when dropped.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A directory under the system temp dir, removed with everything in it
/// when dropped, on success and failure alike. Declare it before anything
/// that writes into it (a daemon, say): locals drop in reverse order.
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Creates (or reuses) the directory `name` under the temp dir. Put
    /// the process id in `name` so concurrent test binaries do not share
    /// one.
    pub fn new(name: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }
}

impl Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
