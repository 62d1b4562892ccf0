//! A deadline for the whole run: a hung system (the reactor can decay
//! into one, see README "the avoided regime") must end as a non-zero
//! exit that says where it stood, not as a benchmark that never returns.

use pstm_front::reactor::Reactor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};

static PROGRESS: AtomicU64 = AtomicU64::new(0);

/// Transactions (or sessions) done in the current phase. A plain atomic
/// rather than a message: client threads report through it mid-window.
pub fn progress(done: u64) {
    PROGRESS.store(done, Ordering::SeqCst);
}

enum Note {
    Phase(&'static str),
    Watch(Weak<Reactor>),
}

pub struct Watchdog {
    notes: Sender<Note>,
    thread: std::thread::JoinHandle<()>,
}

/// Starts the deadline. On expiry the process prints its phase, progress
/// and (if a reactor is watched) `Reactor::census()`, and exits with 3.
pub fn arm(deadline: std::time::Duration) -> Watchdog {
    let (notes, inbox) = std::sync::mpsc::channel::<Note>();
    let epoch = pstm_obs::WallEpoch::now();
    let thread = std::thread::spawn(move || {
        let mut phase = "start";
        let mut watched: Option<Weak<Reactor>> = None;
        loop {
            let left = (deadline.as_secs_f64() - epoch.elapsed_s()).max(0.0);
            match inbox.recv_timeout(std::time::Duration::from_secs_f64(left)) {
                Ok(Note::Phase(name)) => phase = name,
                Ok(Note::Watch(reactor)) => watched = Some(reactor),
                // Disarmed: the run finished in time.
                Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => break,
            }
        }
        eprintln!(
            "bench_e2e: watchdog: no result after {:.0}s; phase '{phase}', progress {}",
            deadline.as_secs_f64(),
            PROGRESS.load(Ordering::SeqCst)
        );
        if let Some(reactor) = watched.and_then(|weak| weak.upgrade()) {
            eprintln!("bench_e2e: watchdog: reactor census {:?}", reactor.census());
        }
        std::process::exit(3);
    });
    Watchdog { notes, thread }
}

impl Watchdog {
    /// Names what the run is doing now.
    pub fn phase(&self, name: &'static str) {
        progress(0);
        let _ = self.notes.send(Note::Phase(name));
    }

    /// Lets the watchdog print this reactor's census on expiry. Held
    /// weakly, so the run can still unwrap and shut the reactor down.
    pub fn watch(&self, reactor: &Arc<Reactor>) {
        let _ = self.notes.send(Note::Watch(Arc::downgrade(reactor)));
    }

    /// The run finished in time: stop the deadline thread and wait for it.
    pub fn disarm(self) {
        drop(self.notes);
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disarmed_watchdog_ends_quietly() {
        let dog = arm(std::time::Duration::from_secs(3600));
        dog.phase("test");
        progress(7);
        assert_eq!(PROGRESS.load(Ordering::SeqCst), 7);
        dog.disarm();
    }
}
