//! SIGINT/SIGTERM as a stop request for `f2pm serve`.
//!
//! Without `--seconds` the serve loop runs until it is told to stop. The
//! handler installed here only sets a flag the loop polls, so an
//! operator's Ctrl-C or a service manager's `kill -TERM` ends in the same
//! orderly shutdown as a timed run: the shards drain, the recorder writes
//! their last batch, and the retrain worker is joined. The workspace has
//! no `libc`, so the one call is declared against the C library `std`
//! already links, as the serve crate's poller does.

use std::os::raw::c_int;
use std::sync::atomic::{AtomicBool, Ordering};

static STOP: AtomicBool = AtomicBool::new(false);

mod sys {
    use std::os::raw::c_int;

    pub const SIGINT: c_int = 2;
    pub const SIGTERM: c_int = 15;

    extern "C" {
        pub fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }
}

extern "C" fn request_stop(_signum: c_int) {
    // An atomic store is async-signal-safe.
    STOP.store(true, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to [`stop_requested`] instead of the default
/// termination.
pub fn install_stop_handler() {
    for signum in [sys::SIGINT, sys::SIGTERM] {
        // SAFETY: `signal` is called with a valid signal number and an
        // `extern "C" fn(c_int)`, the C handler type; the handler only
        // stores to an atomic, which is async-signal-safe.
        unsafe {
            sys::signal(signum, request_stop);
        }
    }
}

/// Whether SIGINT or SIGTERM arrived since [`install_stop_handler`].
pub fn stop_requested() -> bool {
    STOP.load(Ordering::SeqCst)
}
