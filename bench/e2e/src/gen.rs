//! Workload definitions, seeded input generation and the sequential
//! reference executor.
//!
//! Every input is made here from `--seed`; the system under test only
//! ever sees the generated transactions. One definition of what a
//! transaction *does* ([`Txn::steps`]) feeds the blocking clients, the
//! reactor programs, the per-layer replays and [`SeqRef`], so they all
//! execute the identical stream.

use pstm_types::{ScalarOp, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Transactions executed before the timed window opens (caches, the
/// allocator and lazy set-up settle; the system keeps their state).
pub const WARMUP_TXNS: u64 = 20_000;

/// Generated transactions per run. The window replays the pool from the
/// start if it outruns it; values that must be unique ([`reprice_value`])
/// derive from the global sequence number, not from the pool entry.
pub const POOL_TXNS: usize = 1 << 20;

/// Reactor sessions alive at once in `fleet_mobile`, and how many
/// finished sessions are replaced per `wait_finished` round.
pub const FLEET_POPULATION: u64 = 1000;
pub const FLEET_BATCH: u64 = 500;

/// `fleet_mobile` counters start at `1024 << 16` and repricing `k`
/// assigns `(1024 + k) << 16`, so a counter's final value names the
/// last committed repricing and the number of `Sub`s after it
/// (see `check::fleet`).
pub const FLEET_STRIDE_BITS: u32 = 16;
const FLEET_BASE: i64 = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RmwSolo,
    RmwPair,
    ReadMostly,
    FleetMobile,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::RmwSolo, Workload::RmwPair, Workload::ReadMostly, Workload::FleetMobile];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmwSolo => "rmw_solo",
            Workload::RmwPair => "rmw_pair",
            Workload::ReadMostly => "read_mostly",
            Workload::FleetMobile => "fleet_mobile",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Counters in the world. 1024 keeps blocking clients far below the
    /// row count; 256 under a population of 1000 is what makes
    /// `fleet_mobile` conflict.
    pub fn counters(self) -> usize {
        match self {
            Workload::FleetMobile => 256,
            _ => 1024,
        }
    }

    /// Initial counter value: large enough that no `Sub` ever meets the
    /// `>= 0` CHECK, small enough that the core's float-compared
    /// serial replay still resolves a difference of one.
    pub fn initial(self) -> i64 {
        match self {
            Workload::FleetMobile => FLEET_BASE << FLEET_STRIDE_BITS,
            _ => 100_000_000,
        }
    }

    /// Closed-loop blocking clients; 0 means the reactor front.
    pub fn clients(self) -> usize {
        match self {
            Workload::RmwSolo | Workload::ReadMostly => 1,
            Workload::RmwPair => 2,
            Workload::FleetMobile => 0,
        }
    }
}

/// One generated transaction, as counter indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Txn {
    /// `Read a · Sub a · Sub b`.
    Rmw { a: u16, b: u16 },
    /// `Read` of four distinct counters, empty write set.
    Read4([u16; 4]),
    /// A single `Assign c` ("repricing"; Table I: compatible with `Read`).
    Reprice { c: u16 },
    /// `Read a · (Sub a | Assign a) · SleepFor · Sub b`.
    Mobile { a: u16, b: u16, sleep_us: u16, reprice: bool },
}

/// One step of a transaction; the commit that ends it is implicit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Read(u16),
    Sub(u16),
    Assign(u16, i64),
    Sleep(u64),
}

impl Step {
    /// The counter and operation this step executes; `None` for a sleep.
    pub fn op(self) -> Option<(u16, ScalarOp)> {
        match self {
            Step::Read(c) => Some((c, ScalarOp::Read)),
            Step::Sub(c) => Some((c, ScalarOp::Sub(Value::Int(1)))),
            Step::Assign(c, v) => Some((c, ScalarOp::Assign(Value::Int(v)))),
            Step::Sleep(_) => None,
        }
    }
}

/// Transaction number `i` of the stream: the pool, replayed from its
/// start when the stream outruns it.
#[inline]
pub fn entry(pool: &[Txn], i: u64) -> Txn {
    pool[i as usize & (POOL_TXNS - 1)]
}

/// The value transaction number `i` assigns when it reprices: unique per
/// transaction, so every read and every final value names its writer.
pub fn reprice_value(w: Workload, i: u64) -> i64 {
    match w {
        Workload::FleetMobile => (FLEET_BASE + 1 + i as i64) << FLEET_STRIDE_BITS,
        _ => 1_000_000 + i as i64,
    }
}

impl Txn {
    /// The steps of transaction number `i` (at most five).
    pub fn steps(self, w: Workload, i: u64) -> ([Step; 5], usize) {
        let mut out = [Step::Sleep(0); 5];
        let steps: &[Step] = match self {
            Txn::Rmw { a, b } => &[Step::Read(a), Step::Sub(a), Step::Sub(b)],
            Txn::Read4(r) => {
                &[Step::Read(r[0]), Step::Read(r[1]), Step::Read(r[2]), Step::Read(r[3])]
            }
            Txn::Reprice { c } => &[Step::Assign(c, reprice_value(w, i))],
            Txn::Mobile { a, b, sleep_us, reprice } => &[
                Step::Read(a),
                if reprice { Step::Assign(a, reprice_value(w, i)) } else { Step::Sub(a) },
                Step::Sleep(u64::from(sleep_us)),
                Step::Sub(b),
            ],
        };
        out[..steps.len()].copy_from_slice(steps);
        (out, steps.len())
    }
}

fn distinct_pair(rng: &mut StdRng, n: u16) -> (u16, u16) {
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n - 1);
    (a, if b >= a { b + 1 } else { b })
}

/// Generates the run's inputs: the same `(workload, seed)` always gives
/// the same pool.
pub fn generate(w: Workload, seed: u64) -> Vec<Txn> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = w.counters() as u16;
    (0..POOL_TXNS)
        .map(|_| match w {
            Workload::RmwSolo | Workload::RmwPair => {
                let (a, b) = distinct_pair(&mut rng, n);
                Txn::Rmw { a, b }
            }
            Workload::ReadMostly => {
                if rng.gen_range(0..100u32) < 5 {
                    Txn::Reprice { c: rng.gen_range(0..n) }
                } else {
                    let mut r = [0u16; 4];
                    let mut k = 0;
                    while k < 4 {
                        let c = rng.gen_range(0..n);
                        if !r[..k].contains(&c) {
                            r[k] = c;
                            k += 1;
                        }
                    }
                    Txn::Read4(r)
                }
            }
            Workload::FleetMobile => {
                let (a, b) = distinct_pair(&mut rng, n);
                Txn::Mobile {
                    a,
                    b,
                    sleep_us: rng.gen_range(5_000..=50_000u16),
                    reprice: rng.gen_range(0..100u32) == 0,
                }
            }
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one value into a running FNV-1a-style hash. Clients fold the
/// values their reads return; [`SeqRef`] folds the values they must
/// return.
#[inline]
pub fn fold(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

pub const HASH_SEED: u64 = FNV_OFFSET;

/// Hash of the generated inputs, printed with the results so two runs
/// can show they measured the same stream.
pub fn input_hash(pool: &[Txn]) -> u64 {
    pool.iter().fold(FNV_OFFSET, |h, t| {
        let packed = match *t {
            Txn::Rmw { a, b } => 1 | u64::from(a) << 8 | u64::from(b) << 24,
            Txn::Read4(r) => r.iter().fold(2, |p, c| p << 12 | u64::from(*c)),
            Txn::Reprice { c } => 3 | u64::from(c) << 8,
            Txn::Mobile { a, b, sleep_us, reprice } => {
                4 | u64::from(a) << 8
                    | u64::from(b) << 24
                    | u64::from(sleep_us) << 40
                    | u64::from(reprice) << 56
            }
        };
        fold(h, packed)
    })
}

/// The speed-of-light row: a sequential in-memory executor of the same
/// stream over a plain `Vec<i64>`. Also the oracle for what every read
/// must return and every counter must end at when one client runs the
/// stream in order.
#[derive(Clone, Debug)]
pub struct SeqRef {
    workload: Workload,
    pub state: Vec<i64>,
    pub read_hash: u64,
}

impl SeqRef {
    pub fn new(w: Workload) -> SeqRef {
        SeqRef { workload: w, state: vec![w.initial(); w.counters()], read_hash: HASH_SEED }
    }

    #[inline]
    pub fn apply(&mut self, i: u64, txn: Txn) {
        let (steps, n) = txn.steps(self.workload, i);
        for step in &steps[..n] {
            match *step {
                Step::Read(c) => {
                    self.read_hash = fold(self.read_hash, self.state[usize::from(c)] as u64);
                }
                Step::Sub(c) => self.state[usize::from(c)] -= 1,
                Step::Assign(c, v) => self.state[usize::from(c)] = v,
                Step::Sleep(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in Workload::ALL {
            let a = generate(w, 7);
            assert_eq!(a.len(), POOL_TXNS);
            assert_eq!(input_hash(&a), input_hash(&generate(w, 7)), "{}", w.name());
            assert_ne!(input_hash(&a), input_hash(&generate(w, 8)), "{}", w.name());
        }
    }

    #[test]
    fn streams_have_the_stated_shape() {
        let rmw = generate(Workload::RmwSolo, 1);
        assert!(rmw
            .iter()
            .all(|t| matches!(t, Txn::Rmw { a, b } if a != b && *a < 1024 && *b < 1024)));

        let reads = generate(Workload::ReadMostly, 1);
        let reprices = reads.iter().filter(|t| matches!(t, Txn::Reprice { .. })).count();
        let share = reprices as f64 / reads.len() as f64;
        assert!((share - 0.05).abs() < 0.002, "reprice share {share}");
        for t in &reads {
            if let Txn::Read4(r) = t {
                let mut s = r.to_vec();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len(), 4, "reads must be distinct: {r:?}");
            }
        }

        let fleet = generate(Workload::FleetMobile, 1);
        let reprices =
            fleet.iter().filter(|t| matches!(t, Txn::Mobile { reprice: true, .. })).count();
        let share = reprices as f64 / fleet.len() as f64;
        assert!((share - 0.01).abs() < 0.001, "fleet reprice share {share}");
        assert!(fleet.iter().all(|t| matches!(
            t,
            Txn::Mobile { a, b, sleep_us, .. }
                if a != b && *a < 256 && *b < 256 && (5_000..=50_000).contains(sleep_us)
        )));
    }

    #[test]
    fn seqref_conserves_and_names_writers() {
        let w = Workload::RmwSolo;
        let mut seq = SeqRef::new(w);
        seq.apply(0, Txn::Rmw { a: 3, b: 9 });
        seq.apply(1, Txn::Rmw { a: 9, b: 3 });
        assert_eq!(seq.state[3], w.initial() - 2);
        assert_eq!(seq.state[9], w.initial() - 2);
        let expect = fold(fold(HASH_SEED, w.initial() as u64), (w.initial() - 1) as u64);
        assert_eq!(seq.read_hash, expect);

        let w = Workload::FleetMobile;
        let mut seq = SeqRef::new(w);
        seq.apply(4, Txn::Mobile { a: 1, b: 2, sleep_us: 5_000, reprice: true });
        seq.apply(5, Txn::Mobile { a: 1, b: 2, sleep_us: 5_000, reprice: false });
        assert_eq!(seq.state[1], reprice_value(w, 4) - 1);
        assert_eq!(seq.state[2], w.initial() - 2);
        assert!(reprice_value(w, 0) > w.initial());
    }
}
