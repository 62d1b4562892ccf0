//! Construction of the system under test, in the benchmark's one fixed
//! shape: constants, not functions of `nproc`, so numbers stay
//! comparable across machines and commits.

use crate::gen::Workload;
use pstm_front::reactor::{Reactor, ReactorConfig};
use pstm_front::{FrontConfig, ShardedFront};
use pstm_storage::Database;
use pstm_types::ResourceId;
use pstm_workload::counter_world;
use std::sync::Arc;

pub const SHARDS: usize = 4;
pub const REACTOR_WORKERS: usize = 2;

/// One freshly built system: engine, front and (for `fleet_mobile`) a
/// running reactor.
pub struct System {
    pub db: Arc<Database>,
    /// Counter `c` of the generated stream is `resources[c]`.
    pub resources: Vec<ResourceId>,
    pub front: ShardedFront,
    pub reactor: Option<Arc<Reactor>>,
}

pub fn front_config(w: Workload) -> FrontConfig {
    FrontConfig {
        shards: SHARDS,
        group_commit: false,
        // Reactor mode requires parked waits; the blocking workloads
        // never wait, so the flag is the reactor's alone.
        parked_waits: w == Workload::FleetMobile,
        ..FrontConfig::default()
    }
}

pub fn build(w: Workload) -> Result<System, String> {
    let world = counter_world(w.counters(), w.initial()).map_err(|e| format!("world: {e}"))?;
    // Every number this benchmark prints is real work: the modelled
    // device sleep stays off (`bench_group` keeps that axis).
    world.db.set_apply_latency(std::time::Duration::ZERO);
    let front = ShardedFront::new(Arc::clone(&world.db), world.bindings.clone(), front_config(w));
    let reactor = if w == Workload::FleetMobile {
        let config = ReactorConfig {
            workers: REACTOR_WORKERS,
            tick_interval: std::time::Duration::from_millis(5),
        };
        Some(Arc::new(Reactor::start(front.clone(), config).map_err(|e| format!("reactor: {e}"))?))
    } else {
        None
    };
    Ok(System { db: world.db, resources: world.resources, front, reactor })
}

impl System {
    /// Stops the reactor's workers (a no-op for the blocking fronts).
    /// Every other holder of the reactor must be gone by now.
    pub fn shutdown(&mut self) -> Result<(), String> {
        if let Some(reactor) = self.reactor.take() {
            Arc::try_unwrap(reactor)
                .map_err(|_| "reactor still shared at shutdown".to_string())?
                .shutdown();
        }
        Ok(())
    }
}
