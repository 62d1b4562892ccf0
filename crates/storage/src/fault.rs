//! The fault seam: the one place an installed [`FaultHook`] is asked
//! about a labeled site.
//!
//! [`Database`](crate::Database) owns the seam and lends its WAL a handle;
//! every other site reaches it through
//! [`Database::fault`](crate::Database::fault). With no hook installed a
//! site costs one relaxed load and takes no lock.
//!
//! [`FaultHook`]: pstm_types::FaultHook

use parking_lot::RwLock;
use pstm_types::{FaultDecision, FaultSite, SharedFaultHook};
use std::sync::atomic::{AtomicBool, Ordering};

/// The installed hook, if any, behind a flag the dark path reads alone.
#[derive(Default)]
pub(crate) struct FaultSeam {
    /// Whether `hook` holds a hook.
    armed: AtomicBool,
    hook: RwLock<Option<SharedFaultHook>>,
}

impl FaultSeam {
    /// Installs `hook`, or with `None` removes it.
    pub(crate) fn set(&self, hook: Option<SharedFaultHook>) {
        let mut slot = self.hook.write();
        self.armed.store(hook.is_some(), Ordering::SeqCst);
        *slot = hook;
    }

    /// The hook's decision at `site`: `Proceed` when none is installed.
    pub(crate) fn ask(&self, site: FaultSite) -> FaultDecision {
        // relaxed: the flag only spares the lock; the hook itself is read
        // under it. A load racing an install misses that one arrival, as
        // it would had it come a moment earlier.
        if !self.armed.load(Ordering::Relaxed) {
            return FaultDecision::Proceed;
        }
        // Asked after the guard is gone: a hook may block or take locks.
        let hook = self.hook.read().clone();
        hook.map_or(FaultDecision::Proceed, |hook| hook.decide(site))
    }
}
