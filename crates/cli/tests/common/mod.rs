//! Helpers shared by the daemon test binaries.

use std::ops::{Deref, DerefMut};
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
