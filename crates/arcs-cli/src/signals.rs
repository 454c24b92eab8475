//! Process signals for `arcs daemon`: SIGTERM and SIGINT ask for the
//! graceful drain, SIGHUP asks a standby to promote itself. The handler
//! only records which signal arrived — an atomic store is
//! async-signal-safe — and the daemon's wait loop polls the record and
//! acts on it.

use std::sync::atomic::{AtomicBool, Ordering};

static HANGUP: AtomicBool = AtomicBool::new(false);
static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{Ordering, HANGUP, TERMINATE};

    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn record(signum: i32) {
        if signum == SIGHUP {
            HANGUP.store(true, Ordering::SeqCst);
        } else {
            TERMINATE.store(true, Ordering::SeqCst);
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGHUP, SIGINT and SIGTERM to the recorder for the rest of
    /// the process.
    pub fn install() {
        for signum in [SIGHUP, SIGINT, SIGTERM] {
            // SAFETY: `signal` is the C library's, which std already links
            // on unix; the signal numbers are the POSIX ones, and `record`
            // is a plain `extern "C" fn` that lives for the whole program
            // and only stores to atomics, which is async-signal-safe.
            unsafe {
                signal(signum, record);
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    /// No signals to route off unix.
    pub fn install() {}
}

pub use imp::install;

/// Whether SIGHUP arrived since the last call (the record is cleared).
pub fn take_hangup() -> bool {
    HANGUP.swap(false, Ordering::SeqCst)
}

/// Whether SIGTERM or SIGINT has arrived.
pub fn terminate_requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}
