//! `batch_join` — the paper's Figure 4 headline, closed loop, one driver.
//!
//! Clustered points are BSP-partitioned and cached in set-up; one op is
//! one `self_join(withinDistance(d))` with the live index, counted. The
//! work is geometry predicates, STR-tree build + probe and the core join;
//! the codec and the transport are never entered.

use super::{
    checksum_rows, closed_loop, lattice_hotspots, reference_join, salted, warm_up, Literals, Term,
    Timed, Workload,
};
use crate::layers::{
    self, Engine, EngineMark, Event, EventRow, Generator, Partitioning, STPredicate, SpatialData,
};
use crate::sizing::{Sizing, PARALLELISM, SPACE_SIDE};
use std::collections::BTreeMap;

pub struct Inputs {
    pub rows: Vec<EventRow>,
}

impl Inputs {
    pub fn generate(seed: u64, size: &Sizing) -> Inputs {
        let events = lattice_hotspots(
            &mut Generator::new(salted(seed, 1)),
            &mut Literals::new(salted(seed, 11)),
            size.join_points,
            size.join_clusters,
            size.join_sigma,
            SPACE_SIDE,
        );
        Inputs { rows: layers::to_rows(&events) }
    }

    pub fn checksum(&self) -> u64 {
        checksum_rows(&self.rows)
    }
}

pub struct BatchJoin {
    inputs: Inputs,
    engine: Engine,
    data: SpatialData,
    pred: STPredicate,
    /// Ordered result pairs `(a, b)` with `pred(a, b)`, `a = b` included.
    oracle_pairs: Option<usize>,
    before: EngineMark,
    ops_counted: u64,
}

impl BatchJoin {
    pub fn setup(seed: u64, size: &Sizing) -> BatchJoin {
        let inputs = Inputs::generate(seed, size);
        let engine = Engine::new(PARALLELISM);
        let how = Partitioning::Bsp { max_cost: (size.join_points / 64).max(16), side_length: 4.0 };
        let data = SpatialData::build(&engine, inputs.rows.clone(), how);
        let pred = STPredicate::within_distance(size.join_distance);
        warm_up(size.warmup_ops, |_| Ok(data.self_join_count(pred) as u64));
        let before = engine.mark();
        BatchJoin { inputs, engine, data, pred, oracle_pairs: None, before, ops_counted: 0 }
    }
}

impl Workload for BatchJoin {
    fn prepare_oracle(&mut self, size: &Sizing) {
        let rows = &self.inputs.rows;
        let mut pairs = 0usize;
        reference_join(rows, rows, &self.pred, size.join_distance, |_, _| pairs += 1);
        self.oracle_pairs = Some(pairs);
    }

    fn run(&mut self, seconds: f64) -> Timed {
        let n = self.inputs.rows.len() as u64;
        let expected = self.oracle_pairs.expect("oracle prepared before the timed section");
        let timed = closed_loop(seconds, |_| {
            let got = self.data.self_join_count(self.pred);
            if got == expected {
                Ok(n)
            } else {
                Err(format!("self-join returned {got} pairs, the oracle has {expected}"))
            }
        });
        self.ops_counted += timed.attempted;
        timed
    }

    fn input_checksum(&self) -> u64 {
        self.inputs.checksum()
    }

    fn oracle_len(&self) -> usize {
        self.oracle_pairs.unwrap_or(0)
    }

    fn corrupt_oracle(&mut self) {
        self.oracle_pairs = self.oracle_pairs.map(|p| p + 1);
    }

    fn sample(&self, max: usize) -> Vec<Event> {
        self.inputs.rows.iter().take(max).map(layers::row_to_event).collect()
    }

    fn counters(&mut self, _ledger: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
        super::engine_counters(&self.engine.since(&self.before), self.ops_counted)
    }

    fn model(&self, ledger: &BTreeMap<String, f64>) -> Vec<Term> {
        let delta = self.engine.since(&self.before);
        let ops = self.ops_counted.max(1) as f64;
        // every join task pairs one left partition with one right one
        let tasks = delta.tasks_launched as f64 / ops;
        let per_pair = self.inputs.rows.len() as f64 / self.data.num_partitions().max(1) as f64;
        let touched = tasks * per_pair;
        let results = self.oracle_pairs.unwrap_or(0) as f64;
        let get = |k: &str| ledger.get(k).copied().unwrap_or(0.0);
        let threads = PARALLELISM as f64;
        let candidates = results * get("index.query_candidates_per_hit").max(1.0);
        vec![
            // every result pair clones both of its rows
            Term::new("result rows cloned", 2.0 * results, get("core.row_clone_ns") / 1e6, threads),
            // each task indexes its right partition and probes with its left one
            Term::new("index.build", touched, get("index.build_ns_per_entry") / 1e6, threads),
            Term::new("index.query", touched, get("index.query_ns") / 1e6, threads),
            Term::new(
                "geo.distance (refine)",
                candidates,
                get("geo.distance_euclid_ns") / 1e6,
                threads,
            ),
            Term::new("engine.task.dispatch", tasks, get("engine.task.dispatch_us") / 1e3, threads),
        ]
    }

    fn teardown(self: Box<Self>) {}
}
