//! History recording and serializability checking.
//!
//! §V of the paper argues the GTM's schedules are serializable because
//! compatible operations work on virtual data, the SST is a classical
//! short transaction, and compatible operations' reconciled results are
//! order-independent. This module makes the claim *testable*: the GTM hands
//! over every committed transaction's logical operations at SST success,
//! in commit order, and the recorder replays them **serially, as they
//! arrive**, onto an image seeded with each resource's initial value.
//! [`HistoryRecorder::verify_final_state`] demands the database's final
//! state match that image — final-state equivalence to the serial schedule
//! in commit order.
//!
//! The replay is a fold, so nothing it has consumed is kept: per resource
//! one value of the serial image, in a `Vec` by resource slot. The commit
//! order is serialization order (commitment ordering), so it is kept as
//! a count and a running checksum over each committed id's little-endian
//! bytes: a commit retains nothing, and an order is still told apart.

use pstm_obs::frame::ChecksumStream;
use pstm_types::{PstmError, PstmResult, ResourceId, ScalarOp, TxnId, Value};
use std::collections::BTreeMap;

/// The commit order and the serial replay of it, kept up to date commit by
/// commit.
#[derive(Clone, Debug, Default)]
pub struct HistoryRecorder {
    /// The resource each slot names, ascending.
    resources: Vec<ResourceId>,
    /// By slot: the resource's initial value with every committed
    /// mutation since applied, in commit order; `None` until observed.
    serial: Vec<Option<Value>>,
    /// How many transactions committed.
    commits: u64,
    /// The committed ids' little-endian bytes, in commit order.
    order: ChecksumStream,
    /// The first error the replay met; it stops there.
    failed: Option<PstmError>,
}

impl HistoryRecorder {
    /// An empty history over `resources` (ascending): slot `i` names the
    /// `i`-th.
    #[must_use]
    pub fn over(resources: impl IntoIterator<Item = ResourceId>) -> Self {
        let resources: Vec<ResourceId> = resources.into_iter().collect();
        HistoryRecorder { serial: vec![None; resources.len()], resources, ..Self::default() }
    }

    /// Captures the value of the resource in `slot` the first time any
    /// transaction is granted it. Because a grant necessarily precedes any
    /// commit on the resource, the first observation is the true initial
    /// value.
    pub fn observe_initial(&mut self, slot: usize, value: &Value) {
        self.serial[slot].get_or_insert_with(|| value.clone());
    }

    /// Appends a committed transaction (called at SST success, in commit
    /// order): replays `ops` (by slot), in issue order, onto the serial
    /// image. An op on a resource never observed is a replay error.
    pub fn record_commit(&mut self, txn: TxnId, ops: &[(usize, ScalarOp)]) {
        self.commits += 1;
        self.order.update(&txn.0.to_le_bytes());
        if self.failed.is_none() {
            self.failed = self.replay(ops).err();
        }
    }

    fn replay(&mut self, ops: &[(usize, ScalarOp)]) -> PstmResult<()> {
        for (slot, op) in ops {
            let cur = self.serial[*slot].as_mut().ok_or_else(|| {
                let resource = self.resources[*slot];
                PstmError::internal(format!("replay touches {resource} with no initial value"))
            })?;
            let new = op.apply(cur)?;
            if op.is_mutation() {
                *cur = new;
            }
        }
        Ok(())
    }

    /// The commit order: how many committed and the checksum
    /// ([`pstm_obs::frame::checksum`]) of their ids' little-endian bytes,
    /// in commit order.
    #[must_use]
    pub fn commit_order(&self) -> (u64, u32) {
        (self.commits, self.order.clone().finish())
    }

    /// Every resource any committed transaction (or initial observation)
    /// touched.
    #[must_use]
    pub fn touched_resources(&self) -> Vec<ResourceId> {
        self.image().map(|(r, _)| r).collect()
    }

    /// The serial image: each observed resource and its value, ascending.
    fn image(&self) -> impl Iterator<Item = (ResourceId, &Value)> {
        let slots = self.resources.iter().zip(&self.serial);
        slots.filter_map(|(r, v)| Some((*r, v.as_ref()?)))
    }

    /// The committed transactions replayed serially in commit order from
    /// the initial values, or the first error that replay met.
    pub fn replay_serial(&self) -> PstmResult<BTreeMap<ResourceId, Value>> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(self.image().map(|(r, v)| (r, v.clone())).collect()),
        }
    }

    /// Final-state serializability check: the serial replay must equal
    /// the observed final values for every touched resource. Float
    /// comparisons use a relative epsilon (reconciliation reassociates
    /// float arithmetic).
    pub fn verify_final_state(&self, finals: &BTreeMap<ResourceId, Value>) -> Result<(), String> {
        let replayed = self.replay_serial().map_err(|e| e.to_string())?;
        for (resource, expected) in &replayed {
            let Some(actual) = finals.get(resource) else {
                return Err(format!("no final value observed for {resource}"));
            };
            let equal = match (expected.as_f64(), actual.as_f64()) {
                (Ok(a), Ok(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                _ => expected == actual,
            };
            if !equal {
                let (commits, digest) = self.commit_order();
                return Err(format!(
                    "{resource}: serial replay gives {expected}, database holds {actual} \
                     ({commits} commits, order digest {digest:#010x})"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use pstm_obs::frame::checksum;
    use pstm_types::{ObjectId, ResourceId};

    fn r(i: u32) -> ResourceId {
        ResourceId::atomic(ObjectId(i))
    }

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    /// What `commit_order` answers for `ids` committed in that order.
    fn order_of(ids: &[TxnId]) -> (u64, u32) {
        let bytes: Vec<u8> = ids.iter().flat_map(|t| t.0.to_le_bytes()).collect();
        (ids.len() as u64, checksum(&bytes))
    }

    /// A history over `r(0)..=r(OBSERVED)`: slot `i` is `r(i)`.
    fn history() -> HistoryRecorder {
        HistoryRecorder::over((0..=OBSERVED).map(r))
    }

    #[test]
    fn replay_applies_ops_in_commit_order() {
        let mut h = history();
        h.observe_initial(1, &Value::Int(100));
        h.record_commit(
            t(1),
            &[(1, ScalarOp::Add(Value::Int(1))), (1, ScalarOp::Add(Value::Int(3)))],
        );
        h.record_commit(t(2), &[(1, ScalarOp::Add(Value::Int(2)))]);
        let state = h.replay_serial().unwrap();
        assert_eq!(state[&r(1)], Value::Int(106));
        assert_eq!(h.commit_order(), order_of(&[t(1), t(2)]));
        assert_ne!(h.commit_order(), order_of(&[t(2), t(1)]), "the digest tells orders apart");
    }

    #[test]
    fn first_observation_wins() {
        let mut h = history();
        h.observe_initial(1, &Value::Int(100));
        h.observe_initial(1, &Value::Int(999)); // later grant; ignored
        assert_eq!(h.replay_serial().unwrap()[&r(1)], Value::Int(100));
    }

    #[test]
    fn verify_accepts_matching_finals() {
        let mut h = history();
        h.observe_initial(1, &Value::Int(10));
        h.record_commit(t(1), &[(1, ScalarOp::Sub(Value::Int(4)))]);
        let finals = BTreeMap::from([(r(1), Value::Int(6))]);
        h.verify_final_state(&finals).unwrap();
    }

    #[test]
    fn verify_rejects_divergent_finals() {
        let mut h = history();
        h.observe_initial(1, &Value::Int(10));
        h.record_commit(t(1), &[(1, ScalarOp::Sub(Value::Int(4)))]);
        let finals = BTreeMap::from([(r(1), Value::Int(7))]);
        let err = h.verify_final_state(&finals).unwrap_err();
        assert!(err.contains("serial replay gives 6"));
    }

    #[test]
    fn verify_rejects_missing_finals() {
        let mut h = history();
        h.observe_initial(1, &Value::Int(10));
        assert!(h.verify_final_state(&BTreeMap::new()).is_err());
    }

    #[test]
    fn float_tolerance_absorbs_reassociation() {
        let mut h = history();
        h.observe_initial(1, &Value::Float(100.0));
        h.record_commit(t(1), &[(1, ScalarOp::Mul(Value::Float(1.1)))]);
        // 100 * 1.1 with a wobble in the last ulp.
        let finals = BTreeMap::from([(r(1), Value::Float(100.0f64 * 1.1))]);
        h.verify_final_state(&finals).unwrap();
    }

    #[test]
    fn reads_do_not_mutate_replay_state() {
        let mut h = history();
        h.observe_initial(1, &Value::Int(5));
        h.record_commit(t(1), &[(1, ScalarOp::Read)]);
        let finals = BTreeMap::from([(r(1), Value::Int(5))]);
        h.verify_final_state(&finals).unwrap();
    }

    /// The recorder as it was before the replay became a fold: every
    /// committed op list kept, replayed from the initial values on demand.
    /// The reference the fold must answer like.
    #[derive(Default)]
    struct ListReplay {
        initial: BTreeMap<ResourceId, Value>,
        committed: Vec<(TxnId, Vec<(ResourceId, ScalarOp)>)>,
    }

    impl ListReplay {
        fn replay_serial(&self) -> PstmResult<BTreeMap<ResourceId, Value>> {
            let mut state = self.initial.clone();
            for (_, ops) in &self.committed {
                for (resource, op) in ops {
                    let cur = state.get(resource).cloned().ok_or_else(|| {
                        PstmError::internal(format!(
                            "replay touches {resource} with no initial value"
                        ))
                    })?;
                    let new = op.apply(&cur)?;
                    if op.is_mutation() {
                        state.insert(*resource, new);
                    }
                }
            }
            Ok(state)
        }

        fn verify_final_state(&self, finals: &BTreeMap<ResourceId, Value>) -> Result<(), String> {
            let replayed = self.replay_serial().map_err(|e| e.to_string())?;
            for (resource, expected) in &replayed {
                let Some(actual) = finals.get(resource) else {
                    return Err(format!("no final value observed for {resource}"));
                };
                let equal = match (expected, actual) {
                    (Value::Float(a), Value::Float(b)) => {
                        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
                    }
                    (a, b) => match (a.as_f64(), b.as_f64()) {
                        (Ok(a), Ok(b)) => (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                        _ => a == b,
                    },
                };
                if !equal {
                    let order: Vec<TxnId> = self.committed.iter().map(|c| c.0).collect();
                    let (commits, digest) = order_of(&order);
                    return Err(format!(
                        "{resource}: serial replay gives {expected}, database holds {actual} \
                         ({commits} commits, order digest {digest:#010x})"
                    ));
                }
            }
            Ok(())
        }
    }

    /// Resources `r(0)..r(OBSERVED)` get an initial value before their
    /// first op, as a grant gives them; `r(OBSERVED)` never does.
    const OBSERVED: u32 = 4;

    fn resource() -> impl Strategy<Value = ResourceId> {
        (0u32..25).prop_map(|at| if at == 24 { r(OBSERVED) } else { r(at % OBSERVED) })
    }

    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-50i64..50).prop_map(Value::Int),
            (-50i64..50).prop_map(Value::Int),
            (-8.0f64..8.0).prop_map(Value::Float),
            (-8.0f64..8.0).prop_map(Value::Float),
            Just(Value::Int(i64::MAX)),
        ]
    }

    fn op() -> impl Strategy<Value = ScalarOp> {
        (0u8..6, value()).prop_map(|(kind, c)| match kind {
            0 => ScalarOp::Read,
            1 => ScalarOp::Assign(c),
            2 => ScalarOp::Add(c),
            3 => ScalarOp::Sub(c),
            4 => ScalarOp::Mul(c),
            _ => ScalarOp::Div(c),
        })
    }

    proptest! {
        /// Whatever is observed and committed — ints and floats, reads,
        /// overflow and division by zero midway, an op on a resource
        /// nobody observed, resources first observed after earlier
        /// commits — the fold answers as the list replay does.
        #[test]
        fn prop_the_fold_is_the_list_replay(
            commits in prop::collection::vec(
                prop::collection::vec((resource(), op()), 0..5),
                0..12,
            ),
            seeds in prop::collection::vec(value(), 6..7),
            wobble in -2i64..3,
        ) {
            let mut fold = history();
            let mut list = ListReplay::default();
            for (i, ops) in commits.into_iter().enumerate() {
                for (resource, _) in ops.iter().filter(|(res, _)| *res != r(OBSERVED)) {
                    // A later grant observes again; only the first counts.
                    let seen = &seeds[(resource.object.0 as usize + i) % seeds.len()];
                    fold.observe_initial(resource.object.0 as usize, seen);
                    list.initial.entry(*resource).or_insert_with(|| seen.clone());
                }
                let slots: Vec<_> = ops.iter().map(|(r, op)| (r.object.0 as usize, op.clone())).collect();
                fold.record_commit(t(i as u64), &slots);
                list.committed.push((t(i as u64), ops));
                prop_assert_eq!(fold.replay_serial(), list.replay_serial());
            }
            prop_assert_eq!(
                fold.commit_order(),
                order_of(&list.committed.iter().map(|c| c.0).collect::<Vec<_>>())
            );
            prop_assert_eq!(
                fold.touched_resources(),
                list.initial.keys().copied().collect::<Vec<_>>()
            );
            // Against the replay's own result, one value off, one missing.
            let mut finals = list.replay_serial().unwrap_or_else(|_| list.initial.clone());
            prop_assert_eq!(fold.verify_final_state(&finals), list.verify_final_state(&finals));
            if let Some(v) = finals.values_mut().next() {
                *v = v.checked_add(&Value::Int(wobble)).unwrap_or(Value::Null);
            }
            prop_assert_eq!(fold.verify_final_state(&finals), list.verify_final_state(&finals));
            finals.pop_last();
            prop_assert_eq!(fold.verify_final_state(&finals), list.verify_final_state(&finals));
        }
    }
}
