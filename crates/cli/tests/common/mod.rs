//! Helpers shared by the daemon test binaries.

use std::ops::{Deref, DerefMut};
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

/// A spawned `vpoc serve`, killed and reaped when dropped, so a failing
/// assertion does not leave the daemon running with its socket and
/// stores. Dropping a daemon the test already waited for does nothing.
pub struct Daemon(pub Child);

impl Daemon {
    /// Sends the daemon SIGTERM.
    pub fn terminate(&self) {
        let kill = Command::new("kill").args(["-TERM", &self.id().to_string()]).status().unwrap();
        assert!(kill.success(), "kill -TERM failed");
    }

    /// The daemon's exit status, if it exits within `limit`.
    pub fn exit_within(&mut self, limit: Duration) -> Option<ExitStatus> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(status) = self.0.try_wait().unwrap() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

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
