//! The one commit coordinator: Algorithm 3 (`⟨commit,X,A⟩`, reconcile per
//! resource) followed by Algorithm 4 (`⟨commit,A⟩`, one SST), run as
//! **local → flush → finish** over a *wave* of `(txn, shards)` members.
//!
//! | phase  | shards held | what happens |
//! |--------|-------------|--------------|
//! | local  | yes | greedy disjointness cut on [`Gtm::mutated_resources`]; [`Gtm::commit_local`] per (member, shard) ascending; a local abort unwinds that member alone; a member with no writes (no mutation grant) runs [`Gtm::commit_finish`] here and is settled |
//! | flush  | **no** | `pre-sst` seam, one fused write set, the single retry loop, `pre-finish` seam |
//! | finish | yes | [`Gtm::commit_finish`] / [`Gtm::commit_abort`] per (member, shard) |
//!
//! A solo commit is the wave of one and a cross-shard commit the wave of
//! one spanning shards; `pstm-front` passes whatever met at a shard's
//! flush fence. A flush is *grouped* exactly when its batch holds more
//! than one member ([`SstBatch::engine_txn`]), whoever submitted it.
//! What differs between callers — how shards are reached, the clock, what
//! a retry back-off costs, where effects and trace events go — lives
//! behind [`CommitEnv`]. Its two implementors are [`Owned`] (virtual time
//! over GTMs the caller owns: [`Gtm::commit`], the simulator, the chaos
//! harness) and `pstm-front`'s locking wall-clock environment. The
//! `pre-sst` and `pre-finish` seams are not theirs: like every labeled
//! site they ask the engine ([`Database::fault`]).

use crate::gtm::{CommitResult, Gtm, GtmConfig, LocalCommit};
use crate::sst::{Sst, SstBatch, Writes};
use pstm_obs::{SpanKind, TraceEvent};
use pstm_storage::{BindingRegistry, Database};
use pstm_types::{
    AbortReason, Duration, FaultSite, InlineVec, PstmError, PstmResult, ResourceId, StepEffects,
    Timestamp, TxnId,
};
use std::borrow::Cow;

/// One committing transaction of a wave.
#[derive(Clone, Copy, Debug, Default)]
pub struct Member<'a> {
    /// The transaction (the same id on every shard).
    pub txn: TxnId,
    /// The shard whose tracer receives this member's commit events and
    /// spans (a session's first-touched shard).
    pub home: usize,
    /// Every shard the transaction has begun on — strictly ascending,
    /// non-empty.
    pub shards: &'a [usize],
}

/// Exclusive access to a set of shards for one phase.
pub trait Shards {
    /// The manager of `shard`, which must be in the held set.
    fn gtm(&mut self, shard: usize) -> PstmResult<&mut Gtm>;

    /// Span boundary for `member` inside the held scope. Only
    /// environments that build span trees implement it.
    fn span(&mut self, _member: &Member<'_>, _kind: SpanKind, _open: bool) {}
}

impl Shards for &mut [Gtm] {
    fn gtm(&mut self, shard: usize) -> PstmResult<&mut Gtm> {
        self.get_mut(shard).ok_or_else(|| PstmError::internal(format!("no shard {shard}")))
    }
}

/// What truly differs between the coordinator's callers.
pub trait CommitEnv {
    /// Runs `f` with exclusive access to `shards` (strictly ascending) and
    /// the timestamp of the phase, sampled once access is held. `self`
    /// stays borrowed throughout, so no flush can run inside the scope.
    // `pstm_check lint` models a call to this as holding `gtm_shard`.
    fn with_shards<R>(
        &mut self,
        shards: &[usize],
        f: impl FnOnce(&mut dyn Shards, Timestamp) -> R,
    ) -> R;

    /// The engine the wave flushes to.
    fn engine(&self) -> (&Database, &BindingRegistry);

    /// Called before every flush attempt with the batch about to be
    /// submitted.
    fn flushing(&mut self, _batch: &SstBatch) {}

    /// One retry back-off of `delay`: a wall-clock park, or a charge of
    /// virtual time.
    fn backoff(&mut self, delay: Duration);

    /// Emits `event` into shard `home`'s tracer, stamped with the
    /// environment's clock.
    fn emit(&mut self, home: usize, event: TraceEvent);

    /// Span boundary for `member` outside any held scope; see
    /// [`Shards::span`].
    fn span(&mut self, _member: &Member<'_>, _kind: SpanKind, _open: bool) {}

    /// Side effects of settled members (waiter resumes and aborts).
    fn effects(&mut self, fx: StepEffects);
}

/// Commits a wave. Each settled member's fate is handed to `settled` as
/// soon as it is final — also when the call then fails with
/// [`PstmError::Crashed`], after which all volatile state is garbage.
/// Returns the members the cut **deferred**: their write estimate
/// overlapped a member flushed by this wave, so they are untouched, still
/// active, and must be resubmitted once this call returned (their
/// reconciliation has to read post-flush permanent state).
///
/// A member with no writes (no mutation grant) is finished in the local
/// phase: it joins no batch, passes no seam and emits no `SstAttempt`.
/// A batch of more than one member flushes under its leader's
/// [`TxnId::batch_engine`] id and announces itself with a `GroupCommit`
/// event; a batch of one — a lone member, or what the cut left of a
/// larger wave — flushes under that member's own [`TxnId::sst_engine`]
/// id, unannounced.
pub fn commit_wave<E: CommitEnv>(
    env: &mut E,
    wave: &[Member<'_>],
    settled: &mut dyn FnMut(TxnId, CommitResult),
) -> PstmResult<Vec<TxnId>> {
    let Some(&lead_shard) = wave.first().and_then(|m| m.shards.first()) else {
        return Ok(Vec::new());
    };
    // ---- local: under the members' shards --------------------------------
    let shards = shard_union(wave);
    let mut deferred = Vec::new();
    let mut read_only: InlineVec<TxnId, 4> = InlineVec::new();
    let mut fx = StepEffects::none();
    let local = env.with_shards(&shards, |held, now| -> PstmResult<_> {
        let mut batch: Option<SstBatch> = None;
        let mut strays = Vec::new();
        let mut claimed: Vec<ResourceId> = Vec::new();
        for m in wave {
            // The cut runs on the pre-reconcile estimate: reconciliation
            // reads permanent state, so a member overlapping an earlier
            // one must not reconcile until that member's flush applied.
            let mut mutated = Vec::new();
            if wave.len() > 1 {
                for &s in m.shards {
                    mutated.extend(held.gtm(s)?.mutated_resources(m.txn));
                }
                if mutated.iter().any(|r| claimed.contains(r)) {
                    deferred.push(m.txn);
                    continue;
                }
            }
            held.span(m, SpanKind::Reconcile, true);
            let reconciled = reconcile_member(held, m, now, &mut fx)?;
            held.span(m, SpanKind::Reconcile, false);
            match reconciled {
                // No mutation grant, nothing to flush: finished here.
                Ok(writes) if writes.is_empty() => {
                    for &s in m.shards {
                        fx.merge(held.gtm(s)?.commit_finish(m.txn, now)?);
                    }
                    read_only.push(m.txn);
                }
                Ok(writes) => {
                    let sst = Sst::new(m.txn, writes);
                    match batch.as_mut() {
                        // Real writes are a subset of the estimate, so a
                        // refusal cannot happen; should it, the member
                        // settles on its own after the batch.
                        Some(b) => strays.extend(b.push(sst).err()),
                        None => batch = Some(SstBatch::of(sst)),
                    }
                    claimed.extend(mutated);
                }
                // An aborted member parks nothing and constrains no one.
                Err(reason) => settled(m.txn, CommitResult::Aborted(reason)),
            }
        }
        Ok((batch, strays, held.gtm(lead_shard)?.config()))
    });
    env.effects(fx);
    for txn in read_only {
        settled(txn, CommitResult::Committed);
    }
    let (batch, strays, config) = local?;

    // ---- flush + finish ---------------------------------------------------
    if let Some(batch) = batch {
        settle(env, wave, &shards, config, batch, settled)?;
    }
    for sst in strays {
        settle(env, wave, &shards, config, SstBatch::of(sst), settled)?;
    }
    Ok(deferred)
}

/// The wave of one: commits `member` alone and returns its fate — the
/// solo commit, and the cross-shard commit when it spans shards.
pub fn commit_one<E: CommitEnv>(env: &mut E, member: Member<'_>) -> PstmResult<CommitResult> {
    let mut fate = None;
    commit_wave(env, &[member], &mut |_, settled| fate = Some(settled))?;
    fate.ok_or_else(|| PstmError::internal(format!("{} settled without a fate", member.txn)))
}

/// Algorithm 3 for one member: `commit_local` on each of its shards,
/// ascending. `Ok(Err(reason))` is a local abort, already unwound on every
/// shard.
fn reconcile_member(
    held: &mut dyn Shards,
    m: &Member<'_>,
    now: Timestamp,
    fx: &mut StepEffects,
) -> PstmResult<Result<Writes, AbortReason>> {
    let mut writes = Writes::new();
    for (k, &s) in m.shards.iter().enumerate() {
        match held.gtm(s)?.commit_local(m.txn, s as u32, now)? {
            LocalCommit::Prepared(w) if writes.is_empty() => writes = w,
            LocalCommit::Prepared(w) => writes.extend(w),
            LocalCommit::Aborted(reason, e) => {
                // Shard `s` aborted the transaction itself. Earlier shards
                // are parked in Committing; later shards never started.
                fx.merge(e);
                for &parked in &m.shards[..k] {
                    fx.merge(held.gtm(parked)?.commit_abort(m.txn, reason, now)?);
                }
                for &untouched in &m.shards[k + 1..] {
                    fx.merge(held.gtm(untouched)?.abort(m.txn, now)?);
                }
                return Ok(Err(reason));
            }
        }
    }
    Ok(Ok(writes))
}

/// The members of `wave` parked behind `batch`, each with its SST, in
/// batch order.
fn parked<'a>(
    wave: &'a [Member<'a>],
    batch: &'a SstBatch,
) -> impl Iterator<Item = (&'a Member<'a>, &'a Sst)> {
    let member_of = |sst: &'a Sst| wave.iter().find(|m| m.txn == sst.origin);
    batch.members.iter().filter_map(move |sst| member_of(sst).map(|m| (m, sst)))
}

/// Flush and finish for one parked batch of `wave`: Algorithm 4. No shard
/// is held across the flush; the finish re-enters `shards`, the union of
/// the wave's shards. `config` is the shards' (shared) retry policy.
fn settle<E: CommitEnv>(
    env: &mut E,
    wave: &[Member<'_>],
    shards: &[usize],
    config: GtmConfig,
    batch: SstBatch,
    settled: &mut dyn FnMut(TxnId, CommitResult),
) -> PstmResult<()> {
    let home = parked(wave, &batch).next().map_or(0, |(m, _)| m.home);

    // Labeled fault seam: every member reconciled, nothing submitted. An
    // injected I/O is a transient hiccup seeding the retry loop; a crash
    // kills the process with every member parked in `Committing` —
    // volatile state, so nothing of this wave may survive recovery.
    let seeded = match env.engine().0.fault(FaultSite::PreSst) {
        None => None,
        Some((action, e)) => {
            let site = FaultSite::PreSst.label();
            env.emit(home, TraceEvent::FaultInjected { site, action: action.into() });
            if matches!(e, PstmError::Crashed(_)) {
                return Err(e);
            }
            Some(Err(e))
        }
    };
    // Each member's attempt, then the group announcement: the order the
    // post-mortem recovers batch membership from.
    for (m, sst) in parked(wave, &batch) {
        let writes = sst.writes.len() as u32;
        env.emit(m.home, TraceEvent::SstAttempt { txn: m.txn, writes });
    }
    if batch.len() > 1 {
        let members = batch.len() as u32;
        env.emit(home, TraceEvent::GroupCommit { leader: batch.leader, members });
    }

    // One fused write set; transient (I/O) failures retry per the shared
    // config, one back-off per *batch* attempt.
    let attempt = |env: &mut E, n: u32, seeded: Option<PstmResult<()>>| {
        for (m, _) in parked(wave, &batch) {
            env.span(m, SpanKind::SstAttempt { attempt: n }, true);
        }
        let outcome = seeded.unwrap_or_else(|| {
            env.flushing(&batch);
            let (db, bindings) = env.engine();
            batch.execute(db, bindings)
        });
        for (m, _) in parked(wave, &batch) {
            env.span(m, SpanKind::SstAttempt { attempt: n }, false);
        }
        outcome
    };
    let mut outcome = attempt(env, 1, seeded);
    let mut retries = 0;
    while retries < config.sst_retries && matches!(outcome, Err(PstmError::Io(_))) {
        retries += 1;
        env.backoff(config.sst_retry_delay);
        env.emit(home, TraceEvent::SstRetry { txn: batch.leader, attempt: retries });
        outcome = attempt(env, retries + 1, None);
    }

    let (fate, failure) = match outcome {
        Ok(()) => {
            for (m, _) in parked(wave, &batch) {
                env.emit(m.home, TraceEvent::SstApplied { txn: m.txn });
            }
            // Labeled fault seam: the fused SST is durable but no member
            // has learned the outcome — the window where the commit
            // decision lives only in the log. After a crash here recovery
            // must show every member's writes exactly once.
            if env.engine().0.fault(FaultSite::PreFinish).is_some() {
                let site = FaultSite::PreFinish.label();
                let action = "crash".into();
                env.emit(home, TraceEvent::FaultInjected { site: site.clone(), action });
                return Err(PstmError::Crashed(site));
            }
            (CommitResult::Committed, None)
        }
        Err(PstmError::ConstraintViolation { .. } | PstmError::TypeMismatch { .. })
            if batch.len() > 1 =>
        {
            // Some member's reconciled value broke a constraint and the
            // engine applied nothing. Each member re-runs as a wave of one
            // so only the violators abort.
            for sst in batch.members {
                settle(env, wave, shards, config, SstBatch::of(sst), settled)?;
            }
            return Ok(());
        }
        // §VII problem 2: reconciliation violated an integrity constraint
        // (or produced a value the column's type rejects).
        Err(PstmError::ConstraintViolation { .. } | PstmError::TypeMismatch { .. }) => {
            (CommitResult::Aborted(AbortReason::Constraint), None)
        }
        // Persistent SST failure, §VII's open problem. Nothing reached the
        // database (the write set is all-or-nothing): pure bookkeeping.
        Err(PstmError::Io(_)) => (CommitResult::Aborted(AbortReason::SstFailure), None),
        // A simulated crash mid-SST: the process is dead, so the members
        // are deliberately not settled — their parked state dies with it.
        Err(e @ PstmError::Crashed(_)) => return Err(e),
        // Unexpected engine failure: unpark every member before
        // propagating, so nothing strands in Committing.
        Err(e) => (CommitResult::Aborted(AbortReason::SstFailure), Some(e)),
    };

    // ---- finish: back under the members' shards ----------------------------
    let mut fx = StepEffects::none();
    let finished = env.with_shards(shards, |held, now| -> PstmResult<()> {
        for (m, _) in parked(wave, &batch) {
            for &s in m.shards {
                let gtm = held.gtm(s)?;
                fx.merge(match &fate {
                    CommitResult::Committed => gtm.commit_finish(m.txn, now)?,
                    CommitResult::Aborted(reason) => gtm.commit_abort(m.txn, *reason, now)?,
                });
            }
            if failure.is_none() {
                settled(m.txn, fate.clone());
            }
        }
        Ok(())
    });
    env.effects(fx);
    finished?;
    failure.map_or(Ok(()), Err)
}

/// Every shard any of `members` touches, strictly ascending.
fn shard_union<'a>(members: &[Member<'a>]) -> Cow<'a, [usize]> {
    if let [one] = members {
        return Cow::Borrowed(one.shards);
    }
    let mut all: Vec<usize> = members.iter().flat_map(|m| m.shards.iter().copied()).collect();
    all.sort_unstable();
    all.dedup();
    Cow::Owned(all)
}

/// The environment of a coordinator that owns its managers outright —
/// [`Gtm::commit`], the simulator behind it, and the chaos harness: shard
/// `i` is `gtms[i]`, time is virtual (a retry back-off *charges* its
/// delay), trace events go to each manager's own tracer, and effects
/// accumulate for the caller.
pub struct Owned<'a> {
    gtms: &'a mut [Gtm],
    start: Timestamp,
    at: Timestamp,
    /// The members the last flush attempt submitted.
    flushed: InlineVec<TxnId, 4>,
    effects: StepEffects,
}

impl<'a> Owned<'a> {
    /// An environment over `gtms` (at least one) whose clock starts at
    /// `now`.
    pub fn new(gtms: &'a mut [Gtm], now: Timestamp) -> Self {
        Owned { gtms, start: now, at: now, flushed: InlineVec::new(), effects: StepEffects::none() }
    }

    /// The members the last flush attempt submitted, in batch order;
    /// empty when nothing was flushed.
    #[must_use]
    pub fn last_flush(&self) -> &[TxnId] {
        &self.flushed
    }

    /// The merged effects of everything committed through this
    /// environment. When a flush was attempted they carry the phase
    /// stamps: retries' total back-off in [`StepEffects::sst_busy`],
    /// reconciliation at the start instant, the SST phase from the first
    /// attempt through the last retry.
    #[must_use]
    pub fn into_effects(mut self) -> StepEffects {
        if !self.flushed.is_empty() {
            self.effects.merge(StepEffects {
                sst_busy: self.at.since(self.start),
                reconcile_span: Some((self.start, self.start)),
                sst_span: Some((self.start, self.at)),
                ..StepEffects::none()
            });
        }
        self.effects
    }
}

impl CommitEnv for Owned<'_> {
    fn with_shards<R>(
        &mut self,
        _shards: &[usize],
        f: impl FnOnce(&mut dyn Shards, Timestamp) -> R,
    ) -> R {
        f(&mut &mut *self.gtms, self.at)
    }

    fn engine(&self) -> (&Database, &BindingRegistry) {
        (self.gtms[0].database(), self.gtms[0].bindings())
    }

    fn flushing(&mut self, batch: &SstBatch) {
        self.flushed = batch.members.iter().map(|m| m.origin).collect();
    }

    fn backoff(&mut self, delay: Duration) {
        self.at += delay;
    }

    fn emit(&mut self, home: usize, event: TraceEvent) {
        if let Some(gtm) = self.gtms.get_mut(home) {
            gtm.emit(self.at, event);
        }
    }

    fn effects(&mut self, fx: StepEffects) {
        self.effects.merge(fx);
    }
}
