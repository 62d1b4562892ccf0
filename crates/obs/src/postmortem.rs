//! Crash forensics over a recovered flight-recorder stream.
//!
//! [`analyze`] reconstructs what a dead process was doing at the instant
//! of death from its recorder file alone: which transactions had begun
//! but never resolved, which of those are *in doubt* (their effects are
//! durable in the WAL — recovery will redo them — but no acknowledgement
//! ever reached the client), which commit groups were mid-flight, the
//! last-known phase-latency profile, and each shard's tail state.
//!
//! The in-doubt classification leans on an engine invariant: the engine
//! emits [`TraceEvent::EngineCommit`] immediately *after* the WAL commit
//! frame lands on the device, and a faulted append emits nothing — so "an
//! `EngineCommit` for the transaction's engine-level id survives in the
//! stream" is equivalent to "recovery's redo pass will keep its effects".
//! The chaos harness asserts exactly this equivalence against its fault
//! ledger across the whole crash matrix.

use crate::event::TraceEvent;
use crate::prof::CommitPhase;
use crate::recorder::{RecorderEntry, RecorderReplay, ENGINE_SHARD};
use crate::registry::Ctr;
use pstm_types::{Timestamp, TxnId};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// How far an unresolved transaction had progressed when the process died.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum TxnStage {
    /// Begun; no commit activity observed.
    Begun,
    /// At least one resource reconciled (`commit_local` reached).
    Reconciled,
    /// Handed to the engine as (part of) an SST.
    SstSubmitted,
    /// Its engine transaction's WAL commit frame is durable: recovery
    /// will keep its effects, but no client was ever told — in doubt.
    Durable,
}

impl TxnStage {
    /// Stable lowercase label for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TxnStage::Begun => "begun",
            TxnStage::Reconciled => "reconciled",
            TxnStage::SstSubmitted => "sst-submitted",
            TxnStage::Durable => "durable",
        }
    }
}

/// One begun-but-unresolved transaction at the instant of death.
#[derive(Clone, Debug, Serialize)]
pub struct InFlightTxn {
    /// The transaction.
    pub txn: TxnId,
    /// The engine-level transaction its durability rides on: its group
    /// batch's leader if it was cut into a fused batch, itself otherwise.
    pub engine_txn: TxnId,
    /// Progress at death.
    pub stage: TxnStage,
    /// Shards where the transaction had begun.
    pub shards: Vec<u32>,
}

/// A commit group observed in the stream.
#[derive(Clone, Debug, Serialize)]
pub struct GroupState {
    /// The member naming the fused engine transaction.
    pub leader: TxnId,
    /// Members cut into the batch (including the leader).
    pub members: Vec<TxnId>,
    /// The fused SST's WAL commit frame is durable.
    pub durable: bool,
    /// Every member saw its `Committed` event (fully settled).
    pub finished: bool,
}

/// Tail state of one event stream (front-end shard or engine).
#[derive(Clone, Debug, Serialize)]
pub struct ShardTail {
    /// Shard tag ([`ENGINE_SHARD`] for the engine).
    pub shard: u32,
    /// Events recovered from this stream.
    pub events: u64,
    /// Virtual time of the stream's last event.
    pub last_at: Timestamp,
    /// Last `WalFlush` seen on this stream: `(lsn, bytes)`.
    pub last_wal: Option<(u64, u64)>,
}

/// The reconstructed crash picture.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Postmortem {
    /// Transactions that committed (acknowledged) inside the recorded
    /// window.
    pub committed: BTreeSet<TxnId>,
    /// Transactions that aborted inside the recorded window.
    pub aborted: BTreeSet<TxnId>,
    /// Begun-but-unresolved transactions at death, ascending by id.
    pub unresolved: Vec<InFlightTxn>,
    /// Unresolved transactions whose effects are durable (recovery keeps
    /// them) but unacknowledged — the in-doubt set.
    pub in_doubt: Vec<TxnId>,
    /// Unresolved transactions whose effects are *not* durable — recovery
    /// loses them.
    pub in_flight: Vec<TxnId>,
    /// Commit groups observed, in stream order.
    pub groups: Vec<GroupState>,
    /// Per-stream tail state, in first-appearance order.
    pub shard_tails: Vec<ShardTail>,
    /// Summed counter deltas over the surviving snapshot records, in
    /// [`Ctr::ALL`] order (empty when no snapshot survived).
    pub counters: Vec<u64>,
    /// Summed per-phase exclusive ns over surviving snapshots.
    pub phase_ns: Vec<u64>,
    /// Summed per-phase op counts over surviving snapshots.
    pub phase_ops: Vec<u64>,
    /// Snapshot records that survived.
    pub snapshots: u64,
    /// Last `FaultInjected` event: `(site, action)` — the crash site when
    /// the death was an injected crash/tear at an instrumented seam.
    pub crash_site: Option<(String, String)>,
    /// Records announced lost by drop markers.
    pub dropped: u64,
    /// Records lost to ring wraps (sequence holes).
    pub gaps: u64,
    /// Virtual time of the last recovered event.
    pub last_at: Timestamp,
}

/// Reconstructs the crash picture from a recovered recorder stream.
#[must_use]
pub fn analyze(replay: &RecorderReplay) -> Postmortem {
    let mut pm = Postmortem {
        dropped: replay.dropped,
        gaps: replay.gaps,
        counters: Vec::new(),
        phase_ns: vec![0; CommitPhase::COUNT],
        phase_ops: vec![0; CommitPhase::COUNT],
        ..Postmortem::default()
    };
    let mut begun: BTreeMap<TxnId, BTreeSet<u32>> = BTreeMap::new();
    let mut reconciled: BTreeSet<TxnId> = BTreeSet::new();
    let mut sst_submitted: BTreeSet<TxnId> = BTreeSet::new();
    let mut member_engine: BTreeMap<TxnId, TxnId> = BTreeMap::new();
    let mut engine_commits: BTreeSet<TxnId> = BTreeSet::new();
    // SstAttempt txns per shard since that shard's last GroupCommit —
    // the commit coordinator emits each member's SstAttempt immediately
    // before the batch's GroupCommit, which is how membership is
    // recovered from events alone.
    let mut pending_sst: BTreeMap<u32, Vec<TxnId>> = BTreeMap::new();
    let mut tail_order: Vec<u32> = Vec::new();
    let mut tails: BTreeMap<u32, ShardTail> = BTreeMap::new();

    for entry in &replay.entries {
        match entry {
            RecorderEntry::Event { shard, rec } => {
                let tail = tails.entry(*shard).or_insert_with(|| {
                    tail_order.push(*shard);
                    ShardTail { shard: *shard, events: 0, last_at: rec.at, last_wal: None }
                });
                tail.events += 1;
                tail.last_at = rec.at;
                pm.last_at = pm.last_at.max(rec.at);
                match &rec.event {
                    TraceEvent::TxnBegin { txn } => {
                        begun.entry(*txn).or_default().insert(*shard);
                    }
                    TraceEvent::Committed { txn } => {
                        pm.committed.insert(*txn);
                    }
                    TraceEvent::Aborted { txn, .. } => {
                        pm.aborted.insert(*txn);
                    }
                    TraceEvent::Reconciled { txn, .. } => {
                        reconciled.insert(*txn);
                    }
                    TraceEvent::SstAttempt { txn, .. } if *shard != ENGINE_SHARD => {
                        sst_submitted.insert(*txn);
                        pending_sst.entry(*shard).or_default().push(*txn);
                    }
                    TraceEvent::GroupCommit { leader, members } => {
                        let pending = pending_sst.entry(*shard).or_default();
                        let n = (*members as usize).min(pending.len());
                        let cut: Vec<TxnId> = pending.split_off(pending.len() - n);
                        pending.clear();
                        for m in &cut {
                            member_engine.insert(*m, *leader);
                        }
                        pm.groups.push(GroupState {
                            leader: *leader,
                            members: cut,
                            durable: false,
                            finished: false,
                        });
                    }
                    TraceEvent::EngineCommit { txn } if *shard == ENGINE_SHARD => {
                        // Engine txns run in the SST / fused-batch id
                        // namespaces; normalize back to the middleware
                        // origin (the solo committer or the batch
                        // leader) so the durability witness keys match
                        // the front-end streams' ids.
                        engine_commits.insert(txn.engine_origin().unwrap_or(*txn));
                    }
                    TraceEvent::WalFlush { lsn, bytes } => {
                        tail.last_wal = Some((*lsn, *bytes));
                    }
                    TraceEvent::FaultInjected { site, action } => {
                        pm.crash_site = Some((site.clone(), action.clone()));
                    }
                    _ => {}
                }
            }
            RecorderEntry::Snapshot { at, counters, phase_ns, phase_ops, .. } => {
                pm.snapshots += 1;
                pm.last_at = pm.last_at.max(*at);
                if pm.counters.len() < counters.len() {
                    pm.counters.resize(counters.len(), 0);
                }
                for (acc, &d) in pm.counters.iter_mut().zip(counters) {
                    *acc += d;
                }
                for (acc, &d) in pm.phase_ns.iter_mut().zip(phase_ns) {
                    *acc += d;
                }
                for (acc, &d) in pm.phase_ops.iter_mut().zip(phase_ops) {
                    *acc += d;
                }
            }
            RecorderEntry::Meta { .. } | RecorderEntry::Drop { .. } => {}
        }
    }

    for (txn, shards) in &begun {
        if pm.committed.contains(txn) || pm.aborted.contains(txn) {
            continue;
        }
        let leader = member_engine.get(txn).copied();
        let durable = engine_commits.contains(&leader.unwrap_or(*txn));
        let engine_txn = match leader {
            Some(l) => l.batch_engine(),
            None => txn.sst_engine(),
        };
        let stage = if durable {
            TxnStage::Durable
        } else if sst_submitted.contains(txn) {
            TxnStage::SstSubmitted
        } else if reconciled.contains(txn) {
            TxnStage::Reconciled
        } else {
            TxnStage::Begun
        };
        pm.unresolved.push(InFlightTxn {
            txn: *txn,
            engine_txn,
            stage,
            shards: shards.iter().copied().collect(),
        });
        if durable {
            pm.in_doubt.push(*txn);
        } else {
            pm.in_flight.push(*txn);
        }
    }
    for g in &mut pm.groups {
        g.durable = engine_commits.contains(&g.leader);
        g.finished = g.members.iter().all(|m| pm.committed.contains(m));
    }
    pm.shard_tails = tail_order.into_iter().filter_map(|s| tails.remove(&s)).collect();
    pm
}

impl Postmortem {
    /// The unresolved transaction ids, ascending — what the chaos harness
    /// compares against its stranded-session set.
    #[must_use]
    pub fn unresolved_txns(&self) -> Vec<TxnId> {
        self.unresolved.iter().map(|t| t.txn).collect()
    }

    /// Human-readable crash report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== pstm post-mortem ==");
        let _ = writeln!(
            out,
            "recorded window: {} committed, {} aborted, {} unresolved; \
             {} records dropped, {} lost to ring wraps; last event at t={}us",
            self.committed.len(),
            self.aborted.len(),
            self.unresolved.len(),
            self.dropped,
            self.gaps,
            self.last_at.0
        );
        match &self.crash_site {
            Some((site, action)) => {
                let _ = writeln!(out, "crash site: {site} ({action})");
            }
            None => {
                let _ = writeln!(out, "crash site: none recorded");
            }
        }

        let _ = writeln!(out, "\n-- in-flight transactions at death --");
        if self.unresolved.is_empty() {
            let _ = writeln!(out, "(none)");
        }
        for t in &self.unresolved {
            let shards: Vec<String> = t
                .shards
                .iter()
                .map(|s| if *s == ENGINE_SHARD { "engine".to_string() } else { s.to_string() })
                .collect();
            let _ = writeln!(
                out,
                "{}  stage={}  engine-txn={}  shards=[{}]",
                t.txn,
                t.stage.name(),
                t.engine_txn,
                shards.join(",")
            );
        }

        let _ = writeln!(out, "\n-- in-doubt report --");
        if self.in_doubt.is_empty() {
            let _ = writeln!(out, "in-doubt: (none) — no durable-but-unacknowledged commits");
        } else {
            let ids: Vec<String> = self.in_doubt.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(
                out,
                "in-doubt: [{}] — durable in the WAL, never acknowledged; recovery keeps them",
                ids.join(",")
            );
        }
        if !self.in_flight.is_empty() {
            let ids: Vec<String> = self.in_flight.iter().map(|t| t.to_string()).collect();
            let _ = writeln!(out, "lost in flight: [{}] — recovery discards them", ids.join(","));
        }

        if !self.groups.is_empty() {
            let _ = writeln!(out, "\n-- commit groups --");
            for g in &self.groups {
                let members: Vec<String> = g.members.iter().map(|t| t.to_string()).collect();
                let _ = writeln!(
                    out,
                    "leader={} members=[{}] durable={} finished={}",
                    g.leader,
                    members.join(","),
                    if g.durable { "yes" } else { "no" },
                    if g.finished { "yes" } else { "no" }
                );
            }
        }

        let _ = writeln!(
            out,
            "\n-- last-known phase-latency profile ({} snapshots) --",
            self.snapshots
        );
        let mut any_phase = false;
        for (i, &p) in CommitPhase::ALL.iter().enumerate() {
            let (ns, ops) = (self.phase_ns.get(i).copied().unwrap_or(0), self.phase_ops[i]);
            if ops == 0 {
                continue;
            }
            any_phase = true;
            let _ = writeln!(
                out,
                "{:<16} {:>12} ns {:>8} ops {:>8} ns/op",
                p.name(),
                ns,
                ops,
                ns / ops.max(1)
            );
        }
        if !any_phase {
            let _ = writeln!(out, "(no phase samples in the recorded window)");
        }

        let _ = writeln!(out, "\n-- per-shard tail state --");
        for t in &self.shard_tails {
            let name = if t.shard == ENGINE_SHARD {
                "engine".to_string()
            } else {
                format!("shard {}", t.shard)
            };
            match t.last_wal {
                Some((lsn, bytes)) => {
                    let _ = writeln!(
                        out,
                        "{name}: {} events, last at t={}us, last WAL flush lsn={lsn} ({bytes} bytes)",
                        t.events, t.last_at.0
                    );
                }
                None => {
                    let _ =
                        writeln!(out, "{name}: {} events, last at t={}us", t.events, t.last_at.0);
                }
            }
        }

        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n-- counters (recorded window) --");
            for (i, &c) in Ctr::ALL.iter().enumerate() {
                let v = self.counters.get(i).copied().unwrap_or(0);
                if v > 0 {
                    let _ = writeln!(out, "{:<28} {v}", c.name());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AbortOrigin, TraceRecord};
    use crate::recorder::RecorderEntry;
    use pstm_types::AbortReason;

    fn event(shard: u32, seq: u64, ev: TraceEvent) -> RecorderEntry {
        RecorderEntry::Event {
            shard,
            rec: TraceRecord { seq, at: Timestamp(seq), thread: Some(0), event: ev },
        }
    }

    fn replay(entries: Vec<RecorderEntry>) -> RecorderReplay {
        RecorderReplay { entries, ..RecorderReplay::default() }
    }

    #[test]
    fn classifies_committed_aborted_and_unresolved() {
        let pm = analyze(&replay(vec![
            event(0, 0, TraceEvent::TxnBegin { txn: TxnId(1) }),
            event(0, 1, TraceEvent::TxnBegin { txn: TxnId(2) }),
            event(0, 2, TraceEvent::TxnBegin { txn: TxnId(3) }),
            event(0, 3, TraceEvent::Committed { txn: TxnId(1) }),
            event(
                0,
                4,
                TraceEvent::Aborted {
                    txn: TxnId(2),
                    reason: AbortReason::User,
                    origin: AbortOrigin::User,
                },
            ),
        ]));
        assert!(pm.committed.contains(&TxnId(1)));
        assert!(pm.aborted.contains(&TxnId(2)));
        assert_eq!(pm.unresolved_txns(), vec![TxnId(3)]);
        assert_eq!(pm.in_flight, vec![TxnId(3)]);
        assert!(pm.in_doubt.is_empty());
    }

    #[test]
    fn durable_unresolved_is_in_doubt() {
        let pm = analyze(&replay(vec![
            event(0, 0, TraceEvent::TxnBegin { txn: TxnId(7) }),
            event(0, 1, TraceEvent::Reconciled { txn: TxnId(7), resource: res() }),
            event(0, 2, TraceEvent::SstAttempt { txn: TxnId(7), writes: 1 }),
            event(ENGINE_SHARD, 0, TraceEvent::EngineCommit { txn: TxnId(7).sst_engine() }),
        ]));
        assert_eq!(pm.in_doubt, vec![TxnId(7)]);
        assert!(pm.in_flight.is_empty());
        assert_eq!(pm.unresolved[0].stage, TxnStage::Durable);
        assert_eq!(pm.unresolved[0].engine_txn, TxnId(7).sst_engine());
    }

    fn res() -> pstm_types::ResourceId {
        pstm_types::ResourceId::atomic(pstm_types::ObjectId(0))
    }

    #[test]
    fn group_member_rides_its_leaders_durability() {
        // Members 10 and 11 fused under leader 10; the fused engine txn's
        // commit frame is durable, so *both* members are in doubt.
        let pm = analyze(&replay(vec![
            event(1, 0, TraceEvent::TxnBegin { txn: TxnId(10) }),
            event(1, 1, TraceEvent::TxnBegin { txn: TxnId(11) }),
            event(1, 2, TraceEvent::SstAttempt { txn: TxnId(10), writes: 1 }),
            event(1, 3, TraceEvent::SstAttempt { txn: TxnId(11), writes: 1 }),
            event(1, 4, TraceEvent::GroupCommit { leader: TxnId(10), members: 2 }),
            event(ENGINE_SHARD, 0, TraceEvent::EngineCommit { txn: TxnId(10).batch_engine() }),
        ]));
        assert_eq!(pm.in_doubt, vec![TxnId(10), TxnId(11)]);
        assert_eq!(pm.groups.len(), 1);
        assert!(pm.groups[0].durable);
        assert!(!pm.groups[0].finished);
        assert_eq!(pm.groups[0].members, vec![TxnId(10), TxnId(11)]);
    }

    #[test]
    fn non_durable_group_is_lost_in_flight() {
        let pm = analyze(&replay(vec![
            event(0, 0, TraceEvent::TxnBegin { txn: TxnId(20) }),
            event(0, 1, TraceEvent::TxnBegin { txn: TxnId(21) }),
            event(0, 2, TraceEvent::SstAttempt { txn: TxnId(20), writes: 1 }),
            event(0, 3, TraceEvent::SstAttempt { txn: TxnId(21), writes: 1 }),
            event(0, 4, TraceEvent::GroupCommit { leader: TxnId(20), members: 2 }),
            event(
                ENGINE_SHARD,
                0,
                TraceEvent::FaultInjected { site: "wal-append".into(), action: "crash".into() },
            ),
        ]));
        assert_eq!(pm.in_flight, vec![TxnId(20), TxnId(21)]);
        assert!(pm.in_doubt.is_empty());
        assert_eq!(pm.crash_site, Some(("wal-append".into(), "crash".into())));
        assert!(!pm.groups[0].durable);
    }

    #[test]
    fn render_names_the_key_sections() {
        let pm = analyze(&replay(vec![
            event(0, 0, TraceEvent::TxnBegin { txn: TxnId(1) }),
            event(ENGINE_SHARD, 0, TraceEvent::WalFlush { lsn: 0, bytes: 64 }),
        ]));
        let text = pm.render();
        assert!(text.contains("in-flight transactions at death"));
        assert!(text.contains("in-doubt"));
        assert!(text.contains("phase-latency profile"));
        assert!(text.contains("per-shard tail state"));
        assert!(text.contains("last WAL flush lsn=0"));
    }
}
