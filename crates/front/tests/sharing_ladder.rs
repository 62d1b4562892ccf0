//! What two clients share, rung by rung — a probe, not a test: it prints
//! and asserts nothing about speed. Run it by name, optimized:
//!
//! ```text
//! cargo test --release -p pstm-front --test sharing_ladder -- --ignored --nocapture
//! ```
//!
//! The `rmw` stream (Read a, Sub a, Sub b, commit over 1024 counters, the
//! end-to-end benchmark's `rmw_solo`) is driven by one closed-loop client,
//! then by two at once with less and less kept apart; each rung is
//! reported as a multiple of the solo rate (2.0 = nothing shared costs
//! anything, 1.0 = the second client bought nothing):
//!
//! - **A** two worlds: nothing shared but the machine;
//! - **B** one engine under two fronts, disjoint counters: the engine's
//!   lock, WAL and tracer are shared, no GTM shard is;
//! - **C** one front, both clients uniform over it (`rmw_pair`);
//! - **D** one front, each client confined to its own pair of shards: the
//!   front and engine are shared, no shard, fence or queue is.

use pstm_core::gtm::CommitResult;
use pstm_front::{FrontConfig, SessionOutcome, ShardedFront};
use pstm_types::{Duration, ResourceId, ScalarOp, Value};
use pstm_workload::{counter_world, World};
use std::sync::{Arc, Barrier};

const COUNTERS: usize = 1024;
const SHARDS: usize = 4;
/// Microseconds, like every `Duration` of the virtual clock.
const WARMUP: Duration = Duration(300_000);
const WINDOW: Duration = Duration(2_000_000);

fn world() -> World {
    let world = counter_world(COUNTERS, i64::MAX / 2).expect("world");
    world.db.set_apply_latency(std::time::Duration::ZERO);
    world
}

fn front(world: &World) -> ShardedFront {
    let config = FrontConfig { shards: SHARDS, ..FrontConfig::default() };
    ShardedFront::new(Arc::clone(&world.db), world.bindings.clone(), config)
}

/// One closed-loop client: the front it drives and the counters it picks
/// from.
struct Client {
    front: ShardedFront,
    counters: Vec<ResourceId>,
}

/// Runs `clients` side by side from one barrier and returns the sum of
/// their commit rates over `WINDOW`, per second.
fn rate(clients: Vec<Client>) -> f64 {
    let start = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let runs: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(k, client)| {
                let start = &start;
                scope.spawn(move || {
                    let mut pick = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1);
                    let mut counter = move || {
                        // xorshift64: a fixed, client-specific stream.
                        pick ^= pick << 13;
                        pick ^= pick >> 7;
                        pick ^= pick << 17;
                        client.counters[pick as usize % client.counters.len()]
                    };
                    let mut run = |span: Duration| {
                        let opened = client.front.now();
                        let mut commits = 0u64;
                        loop {
                            for _ in 0..64 {
                                rmw(&client.front, counter(), counter());
                            }
                            commits += 64;
                            let elapsed = client.front.now().since(opened);
                            if elapsed >= span {
                                return commits as f64 / elapsed.as_secs_f64();
                            }
                        }
                    };
                    start.wait();
                    run(WARMUP);
                    run(WINDOW)
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().expect("client")).sum()
    })
}

fn rmw(front: &ShardedFront, a: ResourceId, b: ResourceId) {
    let one = || ScalarOp::Sub(Value::Int(1));
    let mut session = front.session();
    for (resource, op) in [(a, ScalarOp::Read), (a, one()), (b, one())] {
        let outcome = session.execute(resource, op).expect("execute");
        assert!(matches!(outcome, SessionOutcome::Value(_)), "{outcome:?}");
    }
    assert_eq!(session.commit().expect("commit"), CommitResult::Committed);
}

#[test]
#[ignore = "a probe: prints the two-client sharing ladder, asserts nothing about speed"]
fn two_clients_share_less_and_less() {
    let solo = {
        let w = world();
        rate(vec![Client { front: front(&w), counters: w.resources }])
    };
    println!("solo            {solo:>9.0} tps  1.00 x");

    let mut ladder: Vec<(&str, f64)> = Vec::new();

    let (w0, w1) = (world(), world());
    let two_worlds = vec![
        Client { front: front(&w0), counters: w0.resources.clone() },
        Client { front: front(&w1), counters: w1.resources.clone() },
    ];
    ladder.push(("A two worlds", rate(two_worlds)));

    let w = world();
    let (low, high) = w.resources.split_at(COUNTERS / 2);
    let two_fronts = vec![
        Client { front: front(&w), counters: low.to_vec() },
        Client { front: front(&w), counters: high.to_vec() },
    ];
    ladder.push(("B two fronts", rate(two_fronts)));

    let w = world();
    let one = front(&w);
    let uniform = (0..2).map(|_| Client { front: one.clone(), counters: w.resources.clone() });
    ladder.push(("C uniform", rate(uniform.collect())));
    one.verify_serializable().expect("serializable");

    let w = world();
    let one = front(&w);
    let confined = (0..2).map(|k| {
        let mine = |r: &&ResourceId| one.shard_of(**r) / (SHARDS / 2) == k;
        Client { front: one.clone(), counters: w.resources.iter().filter(mine).copied().collect() }
    });
    ladder.push(("D shard pairs", rate(confined.collect())));
    one.verify_serializable().expect("serializable");

    for (rung, tps) in ladder {
        println!("{rung:<15} {tps:>9.0} tps  {:.2} x", tps / solo);
    }
}
