//! Offline stand-in for `parking_lot`.
//!
//! Wraps the std synchronization primitives behind parking_lot's
//! non-poisoning API: a panicking holder does not poison the lock for
//! everyone else, which is the behaviour the storage engine relies on.
//!
//! Like the real crate, the locks are **adaptive**: an uncontended
//! acquisition is one `try_*` compare-and-swap; a contended one spins for
//! a bounded budget (at most `SPIN_LIMIT` rounds) and only then parks
//! by falling through to the std lock. Nearly every critical section in
//! this workspace is a few microseconds long, while a futex park/unpark
//! round trip costs tens of microseconds on a virtualized guest —
//! sleeping to get past a 3 µs section is what made two clients commit a
//! third of what one commits. The exception is a lock held across a
//! sleep (the front's flush fence across a modeled device trip), where
//! spinning only burns CPU other threads need; each lock therefore
//! learns its own budget from how its spins end (`SpinBudget`).

use std::hint::spin_loop;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{self, RwLockReadGuard, RwLockWriteGuard, TryLockError};

// parking_lot names its guard types publicly; callers holding a guard
// across scopes need the name.
pub use std::sync::MutexGuard;

/// The most `try_*` + [`spin_loop`] rounds a contended acquisition makes
/// before it parks.
///
/// Sized by the break-even rule — spin about as long as the park/unpark
/// it avoids. One round is a failed compare-and-swap plus a `pause`,
/// 21–25 ns on the 2-vCPU reference guest, so the budget is 85–100 µs:
/// the order of one futex sleep-and-wake there, and more than twenty
/// times the longest short critical section in the workspace (the
/// engine's 1–3.5 µs exclusive section). Measured on `rmw_pair`
/// (2 clients, 2 cores): 40 rounds 29.7 k tps (no better than parking
/// at once, 28.9 k), 400 rounds 66.3 k, 4 000 rounds 84.6 k. A holder
/// that is descheduled or asleep costs a waiter at most this budget of
/// CPU before the waiter sleeps too.
const SPIN_LIMIT: u32 = 4_000;

/// How far a lock's spin budget can shrink: `SPIN_LIMIT >> MAX_BACKOFF`
/// rounds (about 1.5 µs) are always tried, so a lock whose holders went
/// back to short sections is noticed and earns its budget back.
const MAX_BACKOFF: u32 = 6;

/// One lock's spin budget, learned from how its spins end: the budget is
/// `SPIN_LIMIT >> backoff`; a spin that had to park halves it, a spin
/// that acquired doubles it. A lock held across something long stops
/// costing its waiters CPU after a few parks, while a lock with
/// microsecond sections keeps the full budget. With the constant alone,
/// 64 sessions committing through a modeled 150 µs device trip (2 cores,
/// no think time) fell from 33.1 k to 11.6 k tps — every waiter on the
/// flush fence burned its whole budget and parked anyway; with the
/// learned budget they commit 34.8 k. `pstm_ab count --workload
/// contended` runs that shape as its dark point and prints its tps and
/// CPU per transaction, but asserts neither: a constant budget there
/// reads ≈ 15 k tps and ≈ 115 µs of CPU per transaction against ≈ 39 k
/// and ≈ 23 µs learned (reference box), and nothing fails.
#[derive(Debug, Default)]
struct SpinBudget {
    backoff: AtomicU32,
}

impl SpinBudget {
    const fn new() -> Self {
        SpinBudget { backoff: AtomicU32::new(0) }
    }

    /// Acquires through `try_acquire` within the current budget, or gives
    /// up with `None` (the caller then parks on the std lock). Kept out
    /// of line so the uncontended path stays a single inlined CAS.
    #[cold]
    fn spin<G>(&self, mut try_acquire: impl FnMut() -> Option<G>) -> Option<G> {
        // Relaxed: a tuning hint that publishes nothing; a lost update
        // costs one mis-sized spin.
        let backoff = self.backoff.load(Ordering::Relaxed);
        for _ in 0..SPIN_LIMIT >> backoff {
            spin_loop();
            if let Some(guard) = try_acquire() {
                if backoff > 0 {
                    self.backoff.store(backoff - 1, Ordering::Relaxed);
                }
                return Some(guard);
            }
        }
        if backoff < MAX_BACKOFF {
            self.backoff.store(backoff + 1, Ordering::Relaxed);
        }
        None
    }
}

/// A `try_*` result with poisoning ignored: `None` only when the lock is
/// held.
fn held_or<G>(result: Result<G, TryLockError<G>>) -> Option<G> {
    match result {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// A reader-writer lock whose guards never poison.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    lock: sync::RwLock<T>,
    spin: SpinBudget,
}

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> Self {
        RwLock { lock: sync::RwLock::new(value), spin: SpinBudget::new() }
    }

    /// Acquires shared access, ignoring poisoning. Spins briefly behind a
    /// writer before parking.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let try_read = || held_or(self.lock.try_read());
        try_read()
            .or_else(|| self.spin.spin(try_read))
            .unwrap_or_else(|| self.lock.read().unwrap_or_else(sync::PoisonError::into_inner))
    }

    /// Acquires exclusive access, ignoring poisoning. Spins briefly
    /// behind the current holders before parking.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let try_write = || held_or(self.lock.try_write());
        try_write()
            .or_else(|| self.spin.spin(try_write))
            .unwrap_or_else(|| self.lock.write().unwrap_or_else(sync::PoisonError::into_inner))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.lock.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.lock.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// A mutex whose guard never poisons.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    lock: sync::Mutex<T>,
    spin: SpinBudget,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex { lock: sync::Mutex::new(value), spin: SpinBudget::new() }
    }

    /// Acquires the mutex, ignoring poisoning. Spins briefly behind the
    /// current holder before parking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.try_lock()
            .or_else(|| self.spin.spin(|| self.try_lock()))
            .unwrap_or_else(|| self.lock.lock().unwrap_or_else(sync::PoisonError::into_inner))
    }

    /// Attempts to acquire the mutex without blocking; `None` if held.
    /// Ignores poisoning, like [`Mutex::lock`].
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        held_or(self.lock.try_lock())
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.lock.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Mutable access without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.lock.get_mut().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    const THREADS: u64 = 4;
    const INCREMENTS: u64 = 100_000;

    #[test]
    fn four_threads_lose_no_increment_through_the_mutex() {
        let counter = Mutex::new(0u64);
        thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| (0..INCREMENTS).for_each(|_| *counter.lock() += 1));
            }
        });
        assert_eq!(counter.into_inner(), THREADS * INCREMENTS);
    }

    #[test]
    fn four_threads_lose_no_increment_through_the_write_lock() {
        let counter = RwLock::new(0u64);
        thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| (0..INCREMENTS).for_each(|_| *counter.write() += 1));
            }
        });
        assert_eq!(*counter.read(), THREADS * INCREMENTS);
    }

    #[test]
    fn readers_overlap_while_no_writer_holds() {
        let lock = RwLock::new(7);
        let first = lock.read();
        // The second reader reports from inside its guard while the first
        // guard is still alive here: the two shared holds overlap.
        let seen = thread::scope(|s| s.spawn(|| *lock.read()).join());
        assert_eq!(seen.ok(), Some(*first));
    }

    #[test]
    fn try_lock_is_none_while_held() {
        let m = Mutex::new(());
        let held = m.lock();
        assert!(m.try_lock().is_none());
        drop(held);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = Mutex::new(1);
        let rw = RwLock::new(1);
        let died = thread::scope(|s| {
            s.spawn(|| {
                let (_m, _rw) = (m.lock(), rw.write());
                panic!("holder dies with both locks held");
            })
            .join()
        });
        assert!(died.is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn a_lock_whose_spins_keep_parking_spins_less_until_one_acquires() {
        let budget = SpinBudget::new();
        let rounds_of_a_failed_spin = || {
            let mut rounds = 0;
            assert!(budget
                .spin(|| -> Option<()> {
                    rounds += 1;
                    None
                })
                .is_none());
            rounds
        };
        assert_eq!(rounds_of_a_failed_spin(), SPIN_LIMIT);
        assert_eq!(rounds_of_a_failed_spin(), SPIN_LIMIT / 2);
        let floor = (0..10).map(|_| rounds_of_a_failed_spin()).last();
        assert_eq!(floor, Some(SPIN_LIMIT >> MAX_BACKOFF), "the budget never reaches zero");
        // Every spin that acquires wins back half of what was lost.
        for regained in (0..MAX_BACKOFF).rev() {
            assert_eq!(budget.spin(|| Some(())), Some(()));
            assert_eq!(budget.backoff.load(Ordering::Relaxed), regained);
        }
        assert_eq!(rounds_of_a_failed_spin(), SPIN_LIMIT);
    }

    /// Nanoseconds this thread has spent on a CPU so far.
    #[cfg(target_os = "linux")]
    fn thread_cpu_ns() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
        stat.split_whitespace().next().and_then(|ns| ns.parse().ok()).expect("on-cpu field")
    }

    /// CPU the calling thread burns inside `acquire` while another thread
    /// takes `hold`'s guard and sleeps [`HOLD`] on it.
    #[cfg(target_os = "linux")]
    fn burned_behind<G>(hold: impl FnOnce() -> G + Send, acquire: impl FnOnce()) -> Duration {
        let (held_tx, held_rx) = mpsc::channel();
        thread::scope(|s| {
            s.spawn(move || {
                let guard = hold();
                held_tx.send(()).expect("the waiter listens");
                thread::sleep(HOLD);
                drop(guard);
            });
            held_rx.recv().expect("the holder signals once it holds the lock");
            let before = thread_cpu_ns();
            acquire();
            Duration::from_nanos(thread_cpu_ns() - before)
        })
    }

    #[cfg(target_os = "linux")]
    const HOLD: Duration = Duration::from_millis(200);

    /// The spin is bounded: behind a holder that sleeps, a waiter burns
    /// its budget and then sleeps too. This is what keeps many-thread
    /// stress runs on few cores from spinning away their time slices.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_waiter_behind_a_sleeping_holder_parks_instead_of_spinning() {
        let m = Mutex::new(());
        let rw = RwLock::new(());
        let burned = [
            ("lock", burned_behind(|| m.lock(), || drop(m.lock()))),
            ("write", burned_behind(|| rw.write(), || drop(rw.write()))),
            ("read", burned_behind(|| rw.write(), || drop(rw.read()))),
        ];
        for (op, cpu) in burned {
            assert!(cpu < HOLD / 10, "`{op}` burned {cpu:?} of CPU behind a {HOLD:?} hold");
        }
    }
}
