//! Allocation has a ceiling: a transaction through the sharded front
//! allocates nothing of its own — one-column reads, inline holder rows
//! and commit buffers, reused records and a reused result cell. What is
//! left is the amortized growth of the tombstone index, one block entry
//! per 64 ids on a shard. Measured with a counting allocator, so this
//! file is a test binary of its own with one test.

use pstm_core::gtm::CommitResult;
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_types::{ScalarOp, Value};
use pstm_workload::{counter_world, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made by the process so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
// `realloc` is the trait's default (alloc + copy + dealloc), so a buffer
// that grows counts one allocation per growth.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`, i.e.
        // from `System.alloc` with it.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TXNS: u64 = 10_000;
/// Per transaction, both shapes: 23 before the front stopped decoding
/// whole rows and building per-commit vectors; ≈ 0.3 (`rmw`) and ≈ 0.45
/// (`read_mostly`) while the tombstone index and the commit order grew a
/// B-tree entry and a `Vec` slot per transaction; ≈ 0.01 now.
const CEILING_PER_TXN: f64 = 0.05;

/// One transaction of `ops` (counter index, operation) in a new session.
fn run_txn(front: &ShardedFront, world: &World, ops: &[(usize, ScalarOp)]) {
    let mut s = front.session();
    for (k, op) in ops {
        let outcome = s.execute(world.resources[*k], op.clone()).expect("execute");
        assert!(matches!(outcome, SessionOutcome::Value(_)), "a lone client never waits");
    }
    assert_eq!(s.commit().expect("commit"), CommitResult::Committed);
}

/// Allocations per transaction over `TXNS` runs of `txn(i)`, after a tenth
/// as many uncounted.
fn allocs_per_txn(mut txn: impl FnMut(u64)) -> f64 {
    (0..TXNS / 10).for_each(&mut txn);
    let before = ALLOCS.load(Ordering::Relaxed);
    (TXNS / 10..TXNS / 10 + TXNS).for_each(&mut txn);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / TXNS as f64
}

#[test]
fn a_transaction_through_the_front_allocates_nothing_of_its_own() {
    let world = counter_world(1_024, 1 << 40).expect("world");
    let config = FrontConfig { shards: 4, ..FrontConfig::default() };
    let front = ShardedFront::new(world.db.clone(), world.bindings.clone(), config);
    let n = world.resources.len() as u64;
    // Spread over the counters and shards; no operation ever waits.
    let at = |i: u64, salt: u64| (i.wrapping_mul(7_919).wrapping_add(salt * 613) % n) as usize;
    let (read, sub) = (ScalarOp::Read, ScalarOp::Sub(Value::Int(1)));

    // `rmw`: Read a · Sub a · Sub b.
    let rmw = allocs_per_txn(|i| {
        let (a, b) = (at(i, 0), at(i, 1));
        let b = if a == b { (b + 1) % n as usize } else { b };
        run_txn(&front, &world, &[(a, read.clone()), (a, sub.clone()), (b, sub.clone())]);
    });
    // `read_mostly`: four reads, every twentieth transaction one `Assign`.
    let read_mostly = allocs_per_txn(|i| {
        if i % 20 == 19 {
            run_txn(&front, &world, &[(at(i, 2), ScalarOp::Assign(Value::Int(1 << 40)))]);
        } else {
            run_txn(&front, &world, &[0, 1, 2, 3].map(|k| (at(i, 3 + k), read.clone())));
        }
    });
    println!("allocations per transaction: rmw {rmw:.3}, read_mostly {read_mostly:.3}");
    for (shape, per_txn) in [("rmw", rmw), ("read_mostly", read_mostly)] {
        assert!(per_txn <= CEILING_PER_TXN, "{shape}: {per_txn:.3} allocations per transaction");
    }
    front.check_invariants().expect("invariants");
    front.verify_serializable().expect("serializable");
}
