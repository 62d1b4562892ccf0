//! The §II motivating scenario: a web travel agency selling personalized
//! package tours.
//!
//! The database holds flights, hotels, museums and rental cars, each with
//! a free-unit counter (CHECK `>= 0`) and a price. Mobile customers
//! compose a package — book a flight, reserve a hotel room, reserve
//! museum tickets, rent a car — with think times and possible
//! disconnections between steps, then commit the whole tour atomically.
//! Wired administrators reprice resources (assignments) or restock them.

use crate::world::World;
use pstm_sim::{Step, TxnScript};
use pstm_storage::{BindingRegistry, ColumnDef, Constraint, Database, Row, TableSchema};
use pstm_types::{
    Duration, MemberId, PstmResult, ResourceId, ScalarOp, Timestamp, TxnId, Value, ValueKind,
};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

/// The travel-agency world: one table per category, each row an object
/// with members `free` (0) and `price` (1).
pub struct TravelWorld {
    /// Engine + bindings.
    pub world: World,
    /// Free-count members per category: flights, hotels, museums, cars.
    pub categories: [Vec<ResourceId>; 4],
}

/// Category names, in [`TravelWorld::categories`] order.
pub const CATEGORY_NAMES: [&str; 4] = ["Flight", "Hotel", "Museum", "Car"];

impl TravelWorld {
    /// Builds the agency database with `per_category` objects per
    /// category, each with `initial_free` available units.
    pub fn build(per_category: usize, initial_free: i64) -> PstmResult<Self> {
        let db = Arc::new(Database::new());
        let mut bindings = BindingRegistry::new();
        let mut categories: [Vec<ResourceId>; 4] = Default::default();
        let boot = TxnId((1 << 47) + 2);
        db.begin(boot)?;
        for (ci, name) in CATEGORY_NAMES.iter().enumerate() {
            let schema = TableSchema::new(
                *name,
                vec![
                    ColumnDef::new("id", ValueKind::Int),
                    ColumnDef::new("free", ValueKind::Int),
                    ColumnDef::new("price", ValueKind::Int),
                ],
            )?;
            let table = db.create_table(
                schema,
                vec![Constraint::non_negative(format!("{name}.free >= 0"), 1)],
            )?;
            for i in 0..per_category {
                let row = db.insert(
                    boot,
                    table,
                    Row::new(vec![Value::Int(i as i64), Value::Int(initial_free), Value::Int(100)]),
                )?;
                let obj =
                    bindings.bind_object(table, row, &[(MemberId(0), 1), (MemberId(1), 2)])?;
                categories[ci].push(ResourceId::new(obj, MemberId(0)));
            }
        }
        db.commit(boot)?;
        let resources = categories.iter().flatten().copied().collect();
        Ok(TravelWorld { world: World { db, bindings, resources }, categories })
    }

    /// The price member of a free-count resource.
    #[must_use]
    pub fn price_of(resource: ResourceId) -> ResourceId {
        ResourceId::new(resource.object, MemberId(1))
    }
}

/// Generator parameters for the agency workload.
#[derive(Clone, Copy, Debug)]
pub struct TravelWorkload {
    /// Number of customer sessions.
    pub customers: usize,
    /// Number of administrator sessions interleaved among them.
    pub admins: usize,
    /// Probability a customer disconnects mid-package.
    pub beta: f64,
    /// Mean inter-arrival time.
    pub interarrival: Duration,
    /// Base think time.
    pub think: Duration,
    /// Disconnection length.
    pub disconnect_for: Duration,
    /// Seed.
    pub seed: u64,
}

impl Default for TravelWorkload {
    fn default() -> Self {
        TravelWorkload {
            customers: 100,
            admins: 10,
            beta: 0.1,
            interarrival: Duration::from_secs_f64(0.5),
            think: Duration::from_secs_f64(1.0),
            disconnect_for: Duration::from_secs_f64(6.0),
            seed: 7,
        }
    }
}

impl TravelWorkload {
    /// Generates customer and admin scripts over the agency world.
    #[must_use]
    pub fn scripts(&self, world: &TravelWorld) -> Vec<TxnScript> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total = self.customers + self.admins;
        // Admins are sprinkled uniformly among customer arrivals.
        let mut is_admin = vec![false; total];
        {
            let mut idx: Vec<usize> = (0..total).collect();
            idx.shuffle(&mut rng);
            for i in idx.into_iter().take(self.admins) {
                is_admin[i] = true;
            }
        }
        let mut scripts = Vec::with_capacity(total);
        for (i, admin) in is_admin.iter().enumerate() {
            let arrival = Timestamp::ZERO
                + Duration::from_secs_f64(self.interarrival.as_secs_f64() * i as f64);
            let txn = TxnId(i as u64 + 1);
            let steps = if *admin {
                self.admin_steps(world, &mut rng)
            } else {
                self.customer_steps(world, &mut rng)
            };
            scripts.push(TxnScript::new(txn, arrival, steps));
        }
        scripts
    }

    /// A customer books a flight, a hotel, and possibly museum tickets
    /// and a car — each a read-then-book pair — and commits the package.
    fn customer_steps(&self, world: &TravelWorld, rng: &mut StdRng) -> Vec<Step> {
        let think = |rng: &mut StdRng| Step::Think(self.think.mul_f64(rng.gen_range(0.5..1.5)));
        let mut picks: Vec<ResourceId> = Vec::new();
        // Flight and hotel always; museum/car each with probability 1/2.
        picks.push(pick(&world.categories[0], rng));
        picks.push(pick(&world.categories[1], rng));
        if rng.gen_bool(0.5) {
            picks.push(pick(&world.categories[2], rng));
        }
        if rng.gen_bool(0.5) {
            picks.push(pick(&world.categories[3], rng));
        }
        let disconnect_at = if rng.gen_bool(self.beta.clamp(0.0, 1.0)) {
            Some(rng.gen_range(0..picks.len()))
        } else {
            None
        };
        let mut steps = Vec::new();
        for (i, r) in picks.iter().enumerate() {
            steps.push(think(rng));
            steps.push(Step::Op(*r, ScalarOp::Read));
            if disconnect_at == Some(i) {
                steps.push(Step::Disconnect(self.disconnect_for.mul_f64(rng.gen_range(0.5..1.5))));
            }
            steps.push(think(rng));
            steps.push(Step::Op(*r, ScalarOp::Sub(Value::Int(1))));
        }
        steps.push(think(rng));
        steps.push(Step::Commit);
        steps
    }

    /// An administrator repricing one resource (assignment on the price
    /// member) — wired, short, never disconnects.
    fn admin_steps(&self, world: &TravelWorld, rng: &mut StdRng) -> Vec<Step> {
        let cat = rng.gen_range(0..4);
        let free = pick(&world.categories[cat], rng);
        let price = TravelWorld::price_of(free);
        vec![
            Step::Think(self.think.mul_f64(0.3)),
            Step::Op(price, ScalarOp::Assign(Value::Int(rng.gen_range(60..400)))),
            Step::Think(self.think.mul_f64(0.3)),
            Step::Commit,
        ]
    }
}

fn pick(list: &[ResourceId], rng: &mut StdRng) -> ResourceId {
    list[rng.gen_range(0..list.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_all_categories() {
        let w = TravelWorld::build(3, 50).unwrap();
        for cat in &w.categories {
            assert_eq!(cat.len(), 3);
        }
        assert_eq!(w.world.resources.len(), 12);
        let b = w.world.bindings.resolve(w.categories[0][0]).unwrap();
        assert_eq!(w.world.db.get_col(b.table, b.row, b.column).unwrap(), Value::Int(50));
        // Price member binds to column 2.
        let p = w.world.bindings.resolve(TravelWorld::price_of(w.categories[0][0])).unwrap();
        assert_eq!(p.column, 2);
    }

    #[test]
    fn scripts_cover_customers_and_admins() {
        let w = TravelWorld::build(3, 50).unwrap();
        let gen = TravelWorkload { customers: 40, admins: 10, ..TravelWorkload::default() };
        let scripts = gen.scripts(&w);
        assert_eq!(scripts.len(), 50);
        let admins = scripts
            .iter()
            .filter(|s| s.steps.iter().any(|st| matches!(st, Step::Op(_, ScalarOp::Assign(_)))))
            .count();
        assert_eq!(admins, 10);
        // Customers book at least flight + hotel.
        let bookings = scripts
            .iter()
            .filter(|s| s.steps.iter().any(|st| matches!(st, Step::Op(_, ScalarOp::Sub(_)))));
        for s in bookings {
            assert!(s.op_count() >= 4, "read+book for at least two categories");
        }
    }

    #[test]
    fn beta_zero_means_no_disconnects() {
        let w = TravelWorld::build(3, 50).unwrap();
        let gen = TravelWorkload { beta: 0.0, ..TravelWorkload::default() };
        assert!(gen.scripts(&w).iter().all(|s| !s.disconnects));
        let gen1 = TravelWorkload { beta: 1.0, admins: 0, ..TravelWorkload::default() };
        assert!(gen1.scripts(&w).iter().all(|s| s.disconnects));
    }

    #[test]
    fn deterministic_per_seed() {
        let w = TravelWorld::build(2, 10).unwrap();
        let gen = TravelWorkload::default();
        assert_eq!(gen.scripts(&w), gen.scripts(&w));
    }
}
