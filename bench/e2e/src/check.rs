//! The correctness gate. It runs inside every run, after the window
//! closes and before any number is printed; a run that fails it prints
//! no result and exits non-zero.

use crate::blocking::{client_indices, warmup_count, BlockingRun};
use crate::fleet::FleetRun;
use crate::gen::{entry, SeqRef, Step, Txn, Workload, FLEET_STRIDE_BITS};
use crate::system::System;
use pstm_front::reactor::Fate;
use pstm_types::{TxnId, Value};
use std::collections::BTreeSet;

fn counter_value(sys: &System, c: usize) -> Result<i64, String> {
    match sys.front.resource_value(sys.resources[c]) {
        Ok(Value::Int(v)) => Ok(v),
        other => Err(format!("counter {c} reads {other:?}")),
    }
}

fn structural(sys: &System) -> Result<(), String> {
    sys.front.check_invariants().map_err(|e| format!("check_invariants: {e}"))?;
    sys.front.verify_serializable().map_err(|e| format!("verify_serializable: {e}"))
}

fn state_matches(sys: &System, expected: &[i64], when: &str) -> Result<(), String> {
    for (c, want) in expected.iter().enumerate() {
        let got = counter_value(sys, c)?;
        if got != *want {
            return Err(format!("conservation {when}: counter {c} holds {got}, expected {want}"));
        }
    }
    Ok(())
}

/// Gate of the blocking workloads. Conservation is exact: one client
/// commits in stream order, so [`SeqRef`] gives every final value (and
/// the fold of every value read); two clients only `Sub`, which
/// commutes, so the final values are order-free.
pub fn blocking(
    sys: &System,
    w: Workload,
    pool: &[Txn],
    run: &BlockingRun,
    warmup: u64,
) -> Result<(), String> {
    if run.failed() > 0 {
        return Err(format!(
            "{} transaction(s) did not commit on a workload that cannot conflict (first error: {})",
            run.failed(),
            run.first_error().unwrap_or_else(|| "an abort".into())
        ));
    }
    structural(sys)?;
    let n = run.clients.len();
    let mut seq = SeqRef::new(w);
    for (k, client) in run.clients.iter().enumerate() {
        for i in client_indices(k, n, warmup_count(k, n, warmup) + client.executed) {
            seq.apply(i, entry(pool, i));
        }
        if n == 1 && client.read_hash != seq.read_hash {
            return Err(format!(
                "reads returned the wrong values: fold {:#x}, expected {:#x}",
                client.read_hash, seq.read_hash
            ));
        }
    }
    state_matches(sys, &seq.state, "after the window")?;
    if w == Workload::RmwSolo {
        // Durability: a crash discards everything volatile; recovery from
        // checkpoint + WAL must bring back every acknowledged commit.
        sys.db.simulate_crash_and_recover().map_err(|e| format!("recovery: {e}"))?;
        state_matches(sys, &seq.state, "after crash and recovery")?;
    }
    Ok(())
}

/// Gate of `fleet_mobile`. From outside, the commit order of concurrent
/// sessions is not observable, so conservation is checked in the form
/// the encoding of [`crate::gen::reprice_value`] makes exact: a counter's
/// final value must be `V − s`, where `V` is its initial value or the
/// value of a repricing the ledger shows committed on it, and `s` is at
/// most the `Sub`s the ledger shows committed on it — exactly their
/// count when no repricing committed. The core's own replay in commit
/// order (`verify_serializable`) covers the order-dependent remainder.
pub fn fleet(sys: &System, w: Workload, pool: &[Txn], run: &FleetRun) -> Result<(), String> {
    structural(sys)?;
    let sessions = run.spawned as usize + run.probes.len();
    if run.ledger.len() != sessions {
        return Err(format!("ledger holds {} fates for {sessions} sessions", run.ledger.len()));
    }
    if let Some((id, fate)) =
        run.ledger.iter().find(|(_, f)| matches!(f, Fate::Failed(_) | Fate::UserAborted))
    {
        return Err(format!("session {id:?} ended as {fate:?}"));
    }

    let counters = w.counters();
    let mut subs = vec![0i64; counters];
    let mut repricers: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); counters];
    for (i, id) in run.ids.iter().enumerate() {
        if run.ledger.get(&TxnId(*id)) != Some(&Fate::Committed) {
            continue;
        }
        let i = i as u64;
        let (steps, n) = entry(pool, i).steps(w, i);
        for step in &steps[..n] {
            match *step {
                Step::Sub(c) => subs[usize::from(c)] += 1,
                Step::Assign(c, _) => {
                    repricers[usize::from(c)].insert(i);
                }
                Step::Read(_) | Step::Sleep(_) => {}
            }
        }
    }
    for probe in run.probes.iter().filter(|p| p.committed) {
        subs[usize::from(probe.counter)] += 1;
    }

    let stride = 1i64 << FLEET_STRIDE_BITS;
    let initial_slot = w.initial() / stride;
    for c in 0..counters {
        if subs[c] >= stride {
            return Err(format!("counter {c} took {} Subs: the window outran the check", subs[c]));
        }
        let got = counter_value(sys, c)?;
        let slot = (got + stride - 1) / stride;
        let after = slot * stride - got;
        if slot == initial_slot {
            if !repricers[c].is_empty() || after != subs[c] {
                return Err(format!(
                    "conservation: counter {c} holds {got}: initial − {after}, but {} Subs and {} \
                     repricings committed on it",
                    subs[c],
                    repricers[c].len()
                ));
            }
        } else {
            let writer = u64::try_from(slot - initial_slot - 1).unwrap_or(u64::MAX);
            if !repricers[c].contains(&writer) || after > subs[c] {
                return Err(format!(
                    "conservation: counter {c} holds {got}: repricing {writer} − {after}, which no \
                     committed session explains"
                ));
            }
        }
    }
    Ok(())
}
