//! The [`FaultInjector`]: a [`FaultPlan`] made executable as the one
//! [`FaultHook`] every layer of the stack asks, through the engine.
//!
//! The injector is the only stateful piece of the fault subsystem: it
//! counts arrivals per site *kind* (so `commit-local@0` and
//! `commit-local@1` share one "commit-local" arrival stream — a plan
//! written for 1 shard stays meaningful at 8), tracks per-rule fire
//! budgets, owns the plan's seeded generator, and journals every fired
//! fault. The journal, rendered by [`FaultInjector::fingerprint`], is the
//! determinism witness: two runs of the same `(seed, plan)` must produce
//! byte-identical fingerprints.

use crate::plan::{FaultPlan, Trigger};
use parking_lot::Mutex;
use pstm_types::{FaultDecision, FaultHook, FaultSite};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeMap;

/// One fired fault, in firing order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FiredFault {
    /// The shard-qualified site label (`commit-local@2`).
    pub site: String,
    /// The decision's stable name (`io` / `crash` / `torn`).
    pub action: &'static str,
    /// The 1-based arrival count *of this site's kind* when the fault
    /// fired — "the 3rd wal-append".
    pub arrival: u64,
}

struct InjectorState {
    /// Arrivals per site kind, counted while armed.
    arrivals: BTreeMap<&'static str, u64>,
    /// Matching arrivals seen per rule (indexes `plan.rules`).
    rule_hits: Vec<u64>,
    /// Fires spent per rule.
    rule_fires: Vec<u32>,
    rng: StdRng,
    fired: Vec<FiredFault>,
    armed: bool,
}

/// See the module docs. Installed as the engine's one hook
/// (`Database::set_fault_hook`), which every labeled site asks.
pub struct FaultInjector {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Builds an armed injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        let n = plan.rules.len();
        let state = InjectorState {
            arrivals: BTreeMap::new(),
            rule_hits: vec![0; n],
            rule_fires: vec![0; n],
            rng: StdRng::seed_from_u64(plan.seed),
            fired: Vec::new(),
            armed: true,
        };
        FaultInjector { plan, state: Mutex::new(state) }
    }

    /// The plan this injector executes.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Stops injecting (and counting): every subsequent [`decide`] call
    /// proceeds. Used around bootstrap/recovery phases that must not
    /// consume the plan's arrival budget.
    ///
    /// [`decide`]: FaultHook::decide
    pub fn disarm(&self) {
        self.state.lock().armed = false;
    }

    /// Re-enables injection after [`FaultInjector::disarm`]. Counters are
    /// *not* reset — the plan's arrival counts span the whole run.
    pub fn arm(&self) {
        self.state.lock().armed = true;
    }

    /// The faults fired so far, in order.
    #[must_use]
    pub fn schedule(&self) -> Vec<FiredFault> {
        self.state.lock().fired.clone()
    }

    /// The determinism witness: plan description plus the full fired
    /// schedule, one token per fault. Byte-identical across replays of
    /// the same `(seed, plan)` against the same workload.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let state = self.state.lock();
        let fired: Vec<String> =
            state.fired.iter().map(|f| format!("{}#{}:{}", f.site, f.arrival, f.action)).collect();
        format!("{} | fired=[{}]", self.plan.describe(), fired.join(","))
    }
}

impl FaultHook for FaultInjector {
    fn decide(&self, site: FaultSite) -> FaultDecision {
        let mut state = self.state.lock();
        if !state.armed {
            return FaultDecision::Proceed;
        }
        let arrival = {
            let c = state.arrivals.entry(site.kind()).or_insert(0);
            *c += 1;
            *c
        };
        // Every matching rule counts the arrival and (for probabilistic
        // triggers) consumes its draw, whether or not an earlier rule
        // wins it — so one rule firing never shifts another's schedule.
        let mut wants = vec![false; self.plan.rules.len()];
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if !rule.site.matches(site) {
                continue;
            }
            state.rule_hits[i] += 1;
            let hits = state.rule_hits[i];
            wants[i] = match rule.trigger {
                Trigger::OnHit(n) => hits == n,
                Trigger::EachPpm(p) => state.rng.gen_range(0u32..1_000_000) < p,
            };
        }
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if wants[i] && state.rule_fires[i] < rule.max_fires {
                state.rule_fires[i] += 1;
                state.fired.push(FiredFault {
                    site: site.label(),
                    action: rule.action.name(),
                    arrival,
                });
                return rule.action;
            }
        }
        FaultDecision::Proceed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FaultRule, SiteMatcher};

    #[test]
    fn on_hit_counts_across_shards_of_one_kind() {
        let plan = FaultPlan::new(0).crash_at_kind("commit-local", 3);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.decide(FaultSite::CommitLocal { shard: 0 }), FaultDecision::Proceed);
        assert_eq!(inj.decide(FaultSite::CommitLocal { shard: 1 }), FaultDecision::Proceed);
        // Third arrival at the kind, regardless of shard, fires.
        assert_eq!(inj.decide(FaultSite::CommitLocal { shard: 0 }), FaultDecision::Crash);
        // One-shot: the budget is spent.
        assert_eq!(inj.decide(FaultSite::CommitLocal { shard: 0 }), FaultDecision::Proceed);
        let sched = inj.schedule();
        assert_eq!(sched.len(), 1);
        assert_eq!(
            sched[0],
            FiredFault { site: "commit-local@0".into(), action: "crash", arrival: 3 }
        );
    }

    #[test]
    fn disarm_neither_fires_nor_counts() {
        let plan = FaultPlan::new(0).crash_on_wal_append(2);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.decide(FaultSite::WalAppend), FaultDecision::Proceed); // arrival 1
        inj.disarm();
        for _ in 0..5 {
            assert_eq!(inj.decide(FaultSite::WalAppend), FaultDecision::Proceed);
        }
        inj.arm();
        // The disarmed appends did not advance the count: this is arrival 2.
        assert_eq!(inj.decide(FaultSite::WalAppend), FaultDecision::Crash);
    }

    #[test]
    fn ppm_draws_are_seed_deterministic() {
        let plan = |seed| {
            FaultPlan::new(seed).with_rule(FaultRule {
                site: SiteMatcher::Kind("sst-apply"),
                trigger: Trigger::EachPpm(300_000),
                action: FaultDecision::Io,
                max_fires: u32::MAX,
            })
        };
        let run = |seed| {
            let inj = FaultInjector::new(plan(seed));
            for _ in 0..200 {
                inj.decide(FaultSite::SstApply);
            }
            inj.fingerprint()
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds should diverge");
        let inj = FaultInjector::new(plan(42));
        let mut hits = 0;
        for _ in 0..1_000 {
            if inj.decide(FaultSite::SstApply) == FaultDecision::Io {
                hits += 1;
            }
        }
        assert!((200..400).contains(&hits), "300000ppm fired {hits}/1000 times");
    }

    #[test]
    fn first_matching_rule_wins_the_arrival() {
        let plan = FaultPlan::new(0)
            .with_rule(FaultRule {
                site: SiteMatcher::Kind("pre-sst"),
                trigger: Trigger::OnHit(1),
                action: FaultDecision::Io,
                max_fires: 1,
            })
            .with_rule(FaultRule {
                site: SiteMatcher::Kind("pre-sst"),
                trigger: Trigger::OnHit(1),
                action: FaultDecision::Crash,
                max_fires: 1,
            });
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.decide(FaultSite::PreSst), FaultDecision::Io);
        // The second rule saw the arrival too but the first consumed it;
        // the second's own hit#1 has passed, so it never fires.
        assert_eq!(inj.decide(FaultSite::PreSst), FaultDecision::Proceed);
    }
}
