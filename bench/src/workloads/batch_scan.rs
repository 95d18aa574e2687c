//! `batch_scan` — filter passes over a large cached dataset, closed loop,
//! one driver.
//!
//! Half uniform, half land/sea points on a grid(8) partitioning. One op
//! is a fixed set of four counted filters that between them cover
//! pruning + kernel (5 % polygon), no pruning (100 %), the case spatial
//! partitioning cannot prune (5 % time window) and the Haversine kernel.
//! The work is the columnar kernels, extent pruning and engine dispatch;
//! the STR-tree and the exact geometry predicates are bypassed, so a
//! geometry or index change predicts no change here.

use super::{
    checksum_rows, closed_loop, engine_counters, salted, warm_up, Literals, Term, Timed, Workload,
};
use crate::layers::{
    self, Engine, EngineMark, Event, EventRow, Generator, Partitioning, STObject, STPredicate,
    SpatialData,
};
use crate::sizing::{Sizing, PARALLELISM, TIME_RANGE};
use std::collections::BTreeMap;

/// Corners of the generator's most populated land box (East/South
/// Asia); the selective polygon, 5 % of the world, is larger than it.
const DENSEST_BOX: ((f64, f64), (f64, f64)) = ((65.0, 5.0), (125.0, 45.0));

pub struct Query {
    pub object: STObject,
    pub pred: STPredicate,
}

pub struct Inputs {
    pub rows: Vec<EventRow>,
    pub queries: Vec<Query>,
}

impl Inputs {
    pub fn generate(seed: u64, size: &Sizing) -> Inputs {
        let world = layers::world_bounds();
        let (min_x, min_y, max_x, max_y) = layers::extent(&world);
        let mut g = Generator::new(salted(seed, 2));
        let mut events = g.uniform(size.scan_points / 2, &world);
        events.extend(g.world(size.scan_points - size.scan_points / 2));
        let rows = layers::to_rows(&events);

        let mut lit = Literals::new(salted(seed, 3));
        let all_time = (0, TIME_RANGE);
        let everywhere = || layers::rect(min_x - 1.0, min_y - 1.0, max_x + 1.0, max_y + 1.0);
        // The literals move with the seed inside ranges that keep each
        // query in its regime: the selective polygon always covers the
        // densest continent box whole, the Haversine disc always sits on
        // the second densest, so selectivity does not swing with the seed.
        let side = size.scan_selective_frac.sqrt();
        let (w, h) = ((max_x - min_x) * side, (max_y - min_y) * side);
        let (dense_min, dense_max) = DENSEST_BOX;
        let x0 = lit.range(dense_max.0 - w, dense_min.0);
        let y0 = lit.range(dense_max.1 - h, dense_min.1);
        let window = (TIME_RANGE as f64 * size.scan_window_frac) as i64;
        let t0 = lit.below((TIME_RANGE - window) as u64) as i64;
        let centre = layers::point(lit.range(5.0, 15.0), lit.range(45.0, 52.0));
        let queries = vec![
            // selective polygon: pruning + kernel
            Query {
                object: layers::timed_region(
                    layers::rect(x0, y0, x0 + w, y0 + h),
                    all_time.0,
                    all_time.1,
                ),
                pred: STPredicate::ContainedBy,
            },
            // everything: nothing to prune, every row materialised
            Query {
                object: layers::timed_region(everywhere(), all_time.0, all_time.1),
                pred: STPredicate::ContainedBy,
            },
            // time window: the case a spatial partitioning cannot prune (A4)
            Query {
                object: layers::timed_region(everywhere(), t0, t0 + window),
                pred: STPredicate::ContainedBy,
            },
            // withinDistance under Haversine
            Query { object: centre, pred: layers::haversine_within(size.scan_haversine_m) },
        ];
        Inputs { rows, queries }
    }

    pub fn checksum(&self) -> u64 {
        let mut c = super::Checksum::default();
        c.word(checksum_rows(&self.rows));
        for q in &self.queries {
            c.text(&format!("{} {:?}", layers::describe(&q.object), q.pred));
        }
        c.finish()
    }
}

pub struct BatchScan {
    inputs: Inputs,
    engine: Engine,
    data: SpatialData,
    /// Expected count per query, in query order.
    oracle: Vec<usize>,
    before: EngineMark,
    ops_counted: u64,
}

fn one_pass(data: &SpatialData, queries: &[Query]) -> Vec<usize> {
    queries.iter().map(|q| data.filter_count(&q.object, q.pred)).collect()
}

impl BatchScan {
    pub fn setup(seed: u64, size: &Sizing) -> BatchScan {
        let inputs = Inputs::generate(seed, size);
        let engine = Engine::new(PARALLELISM);
        let how = Partitioning::Grid { dims: size.scan_grid_dims };
        let data = SpatialData::build(&engine, inputs.rows.clone(), how);
        let rows = inputs.rows.len() as u64;
        warm_up(size.warmup_ops, |_| {
            one_pass(&data, &inputs.queries);
            Ok(rows)
        });
        let before = engine.mark();
        BatchScan { inputs, engine, data, oracle: Vec::new(), before, ops_counted: 0 }
    }
}

impl Workload for BatchScan {
    fn prepare_oracle(&mut self, _size: &Sizing) {
        self.oracle = self
            .inputs
            .queries
            .iter()
            .map(|q| {
                self.inputs.rows.iter().filter(|r| layers::eval(&q.pred, &r.0, &q.object)).count()
            })
            .collect();
    }

    fn run(&mut self, seconds: f64) -> Timed {
        let scanned = (self.inputs.rows.len() * self.inputs.queries.len()) as u64;
        let timed = closed_loop(seconds, |_| {
            let got = one_pass(&self.data, &self.inputs.queries);
            if got == self.oracle {
                Ok(scanned)
            } else {
                Err(format!("filter counts {got:?}, the oracle has {:?}", self.oracle))
            }
        });
        self.ops_counted += timed.attempted;
        timed
    }

    fn input_checksum(&self) -> u64 {
        self.inputs.checksum()
    }

    fn oracle_len(&self) -> usize {
        // an oracle of all-zero counts would accept a program that finds nothing
        if self.oracle.iter().all(|&c| c > 0) {
            self.oracle.len()
        } else {
            0
        }
    }

    fn corrupt_oracle(&mut self) {
        if let Some(c) = self.oracle.first_mut() {
            *c += 1;
        }
    }

    fn sample(&self, max: usize) -> Vec<Event> {
        // both halves: uniform and land/sea
        let rows = &self.inputs.rows;
        let head = rows.iter().take(max / 2);
        head.chain(rows.iter().skip(rows.len() / 2).take(max - max / 2))
            .map(layers::row_to_event)
            .collect()
    }

    fn counters(&mut self, _ledger: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
        engine_counters(&self.engine.since(&self.before), self.ops_counted)
    }

    fn model(&self, ledger: &BTreeMap<String, f64>) -> Vec<Term> {
        let delta = self.engine.since(&self.before);
        let ops = self.ops_counted.max(1) as f64;
        let scanned = delta.rows_scanned_columnar as f64 / ops;
        let tasks = delta.tasks_launched as f64 / ops;
        let get = |k: &str| ledger.get(k).copied().unwrap_or(0.0);
        let threads = PARALLELISM as f64;
        let matched = self.oracle.iter().sum::<usize>() as f64;
        vec![
            Term::new("result rows cloned", matched, get("core.row_clone_ns") / 1e6, threads),
            Term::new(
                "core.columnar.filter",
                scanned,
                1e3 / get("core.columnar.filter_rows_per_s").max(1.0),
                threads,
            ),
            Term::new(
                "geo predicate (refine)",
                scanned * get("core.columnar.refined_frac"),
                get("geo.intersects_pt_poly_ns") / 1e6,
                threads,
            ),
            Term::new("engine.task.dispatch", tasks, get("engine.task.dispatch_us") / 1e3, threads),
        ]
    }

    fn teardown(self: Box<Self>) {}
}
