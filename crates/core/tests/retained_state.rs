//! Retention has a ceiling: what a finished transaction leaves behind in
//! the manager is two bits of the tombstone index (its block of 64 ids
//! is shared with its neighbours) and one step of the commit order's
//! count and checksum — not a record, not an op log, not its id in a
//! list, and not its WAL records: the engine forgets its log once an
//! image covers it. Ids 64 or more apart pay a block each, which has a
//! ceiling of its own. Measured with a counting allocator, so this file
//! is a test binary of its own with one test.

use pstm_core::gtm::{CommitResult, Gtm, GtmConfig};
use pstm_core::TxnState;
use pstm_types::{ResourceId, ScalarOp, Timestamp, TxnId, Value};
use pstm_workload::counter_world;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes currently allocated by the process.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
// `realloc` is the trait's default (alloc + copy + dealloc), so it is
// counted through the two methods below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations for `alloc` are passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`, i.e.
        // from `System.alloc` with it.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TXNS: u64 = 20_000;
/// Per finished transaction with dense ids: a 24 B block entry per 64
/// ids, under 1 B (0 B measured, rounded down). 64 B before the index
/// became a bitmap and the commit order a count and a checksum.
const CEILING_PER_TXN: usize = 2;
/// Per finished transaction with ids 64 apart: a block entry each (48 B
/// measured). The dense ceiling before the bitmap.
const STRIDED_CEILING_PER_TXN: usize = 64;

/// Commits `TXNS` transactions of `ops(i)` each, ids `first`, `first +
/// stride`, …, and returns how many heap bytes stayed allocated per
/// transaction.
fn retained_per_txn(
    g: &mut Gtm,
    first: u64,
    stride: u64,
    ops: impl Fn(u64) -> Vec<(ResourceId, ScalarOp)>,
) -> usize {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for i in 0..TXNS {
        let (txn, now) = (TxnId(first + i * stride), Timestamp(first + i));
        g.begin(txn, now).unwrap();
        for (resource, op) in ops(i) {
            g.execute(txn, resource, op, now).unwrap();
        }
        assert_eq!(g.commit(txn, now).unwrap().0, CommitResult::Committed);
    }
    LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(before) / TXNS as usize
}

#[test]
fn a_finished_transaction_retains_a_tombstone_not_a_record() {
    let world = counter_world(1024, i64::MAX / 2).unwrap();
    let mut g = Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default());
    let at = |i: u64| world.resources[i as usize % world.resources.len()];
    // Touch every resource once so the per-resource state (and the serial
    // image's entry) is not counted against the transactions below.
    let retained = retained_per_txn(&mut g, 1, 1, |i| vec![(at(i), ScalarOp::Read)]);
    println!("warm-up: {retained} B per transaction");

    // Read-only transactions write no WAL record: all they leave is in
    // the manager.
    let wal = world.db.stats().wal_bytes;
    let reads = retained_per_txn(&mut g, TXNS + 1, 1, |i| {
        (0..4).map(|k| (at(i * 7 + k * 131), ScalarOp::Read)).collect()
    });
    println!("read-only: {reads} B per transaction");
    assert_eq!(world.db.stats().wal_bytes, wal, "a read-only commit appended to the WAL");
    assert!(reads <= CEILING_PER_TXN, "{reads} B retained per read-only transaction");

    // The benchmark's rmw shape: Read a, Sub a, Sub b. Each commit logs
    // 136 B, and the engine checkpoints itself whenever the log holds an
    // image's worth, so no allowance is made for the log.
    let one = || ScalarOp::Sub(Value::Int(1));
    let rmw = retained_per_txn(&mut g, 2 * TXNS + 1, 1, |i| {
        let (a, b) = (at(i * 7), at(i * 7 + 131));
        vec![(a, ScalarOp::Read), (a, one()), (b, one())]
    });
    let engine = world.db.stats();
    println!(
        "rmw: {rmw} B per transaction; {} B of log beside a {} B image",
        engine.wal_bytes, engine.image_bytes
    );
    assert!(engine.wal_bytes < engine.image_bytes, "the log outgrew the image: {engine:?}");
    assert!(rmw <= CEILING_PER_TXN, "{rmw} B retained per rmw transaction");

    // Nothing was forgotten to get there.
    assert_eq!(g.state(TxnId(1)), Some(TxnState::Committed));
    assert_eq!(g.history().commit_order().0, 3 * TXNS);
    g.check_invariants().unwrap();
    g.verify_serializable().unwrap();

    ids_64_apart_retain_a_block_each_within_the_old_ceiling();
}

/// The one shape that costs more than a map entry: one shard of a front
/// that deals ids round-robin over 64 shards.
fn ids_64_apart_retain_a_block_each_within_the_old_ceiling() {
    let world = counter_world(64, i64::MAX / 2).unwrap();
    let mut g = Gtm::new(world.db.clone(), world.bindings.clone(), GtmConfig::default());
    let at = |i: u64| world.resources[i as usize % world.resources.len()];
    retained_per_txn(&mut g, 1, 1, |i| vec![(at(i), ScalarOp::Read)]);
    let strided = retained_per_txn(&mut g, 64 * TXNS, 64, |i| vec![(at(i), ScalarOp::Read)]);
    println!("ids 64 apart: {strided} B per transaction");
    assert!(strided <= STRIDED_CEILING_PER_TXN, "{strided} B retained per strided transaction");
    assert_eq!(g.state(TxnId(64 * TXNS + 64 * (TXNS - 1))), Some(TxnState::Committed));
    assert_eq!(g.state(TxnId(64 * TXNS + 1)), None);
    g.check_invariants().unwrap();
}
