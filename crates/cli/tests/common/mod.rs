//! Helpers shared by the daemon test binaries.

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::Child;

/// A spawned `vpoc serve`, killed and reaped when dropped, so a failing
/// assertion does not leave the daemon running with its socket and
/// stores. Dropping a daemon the test already waited for does nothing.
pub struct Daemon(pub Child);

impl Deref for Daemon {
    type Target = Child;

    fn deref(&self) -> &Child {
        &self.0
    }
}

impl DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Both calls are no-ops on a child that was already reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A scratch directory under the system temp dir, removed with its
/// stores and sockets when dropped, on success and failure alike.
/// Declare it before any [`Daemon`] that uses it: locals drop in reverse
/// order, so the daemon is reaped before its directory goes.
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Creates (or reuses) the directory `name` under the temp dir.
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
