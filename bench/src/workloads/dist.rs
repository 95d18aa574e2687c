//! `dist` — two remote shuffles per op through forked worker processes,
//! closed loop, one driver.
//!
//! A pool of two workers (this binary re-executed) runs, per op, the A1
//! containedBy filter and then the F4 per-cell self-join, each as a
//! `run_shuffle` with `ShuffleMode::Remote` over a grid(4) routing. It is
//! the same filter/join semantics as the batch workloads through the
//! other implementation: JSON rows through `Value`, STK1 frames, task
//! dispatch, peer fetch and the row-path `st_filter`. Pool spawn and
//! handshake land in `setup_s`; the pool is reused across ops.

use super::{
    checksum_rows, closed_loop, lattice_hotspots, salted, warm_up, CodecFit, Literals, Term, Timed,
    Workload,
};
use crate::layers::{
    self, DistJob, Event, EventRow, Generator, Pool, PoolCounters, STObject, STPredicate,
};
use crate::scratch_dir;
use crate::sizing::{Sizing, PARALLELISM, SPACE_SIDE, TIME_RANGE};
use std::collections::BTreeMap;

pub struct Inputs {
    pub rows: Vec<EventRow>,
    pub filter_query: STObject,
    pub join_pred: STPredicate,
}

impl Inputs {
    pub fn generate(seed: u64, size: &Sizing) -> Inputs {
        let mut lit = Literals::new(salted(seed, 10));
        let events = lattice_hotspots(
            &mut Generator::new(salted(seed, 9)),
            &mut lit,
            size.dist_rows,
            size.join_clusters,
            size.join_sigma,
            SPACE_SIDE,
        );
        let rows = layers::to_rows(&events);
        let side = SPACE_SIDE * size.dist_filter_frac.sqrt();
        let x0 = lit.range(0.0, SPACE_SIDE - side);
        let y0 = lit.range(0.0, SPACE_SIDE - side);
        let filter_query =
            layers::timed_region(layers::rect(x0, y0, x0 + side, y0 + side), 0, TIME_RANGE);
        let join_pred = STPredicate::within_distance(size.dist_join_distance);
        Inputs { rows, filter_query, join_pred }
    }

    pub fn checksum(&self) -> u64 {
        let mut c = super::Checksum::default();
        c.word(checksum_rows(&self.rows));
        c.text(&layers::describe(&self.filter_query));
        c.finish()
    }
}

struct Oracle {
    filter_ids: Vec<u64>,
    join_pairs: Vec<(u64, u64)>,
}

pub struct Dist {
    inputs: Inputs,
    size: Sizing,
    job: DistJob,
    pool: Option<Pool>,
    oracle: Option<Oracle>,
    stats_before: PoolCounters,
    ops_counted: u64,
    job_ms: (Vec<f64>, Vec<f64>),
}

/// What one pipeline pass returned, and how long each job took.
struct Pass {
    filter_ids: Vec<u64>,
    join_pairs: Vec<(u64, u64)>,
    a1_ms: f64,
    f4_ms: f64,
}

fn pass(job: &DistJob, pool: &mut Pool) -> Result<Pass, String> {
    let t0 = std::time::Instant::now();
    let filter_ids = job.run_a1(pool)?;
    let a1_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = std::time::Instant::now();
    let join_pairs = job.run_f4(pool)?;
    Ok(Pass { filter_ids, join_pairs, a1_ms, f4_ms: t1.elapsed().as_secs_f64() * 1e3 })
}

impl Dist {
    pub fn setup(seed: u64, size: &Sizing) -> Dist {
        let inputs = Inputs::generate(seed, size);
        let job = DistJob::new(
            &inputs.rows,
            size.dist_map_tasks,
            size.dist_grid_dims,
            &inputs.filter_query,
            inputs.join_pred,
        );
        let mut pool = Pool::spawn(PARALLELISM, &scratch_dir("pool-store"));
        let rows = inputs.rows.len() as u64;
        warm_up(size.warmup_ops, |_| pass(&job, &mut pool).map(|_| rows));
        let stats_before = pool.counters();
        Dist {
            inputs,
            size: size.clone(),
            job,
            pool: Some(pool),
            oracle: None,
            stats_before,
            ops_counted: 0,
            job_ms: (Vec::new(), Vec::new()),
        }
    }

    fn pool_delta(&self) -> PoolCounters {
        self.pool.as_ref().expect("pool lives until teardown").counters().since(&self.stats_before)
    }
}

impl Workload for Dist {
    /// Plain iteration: the predicate over every row for A1, and the
    /// reference per-cell join over the rows grouped by grid cell for F4.
    fn prepare_oracle(&mut self, _size: &Sizing) {
        let rows = &self.inputs.rows;
        let mut filter_ids: Vec<u64> = rows
            .iter()
            .filter(|r| layers::eval(&STPredicate::ContainedBy, &r.0, &self.inputs.filter_query))
            .map(|r| r.1 .0)
            .collect();
        filter_ids.sort_unstable();
        let mut join_pairs: Vec<(u64, u64)> = self
            .job
            .cells(rows)
            .iter()
            .flat_map(|cell| layers::self_join_pairs(cell, self.inputs.join_pred))
            .collect();
        join_pairs.sort_unstable();
        self.oracle = Some(Oracle { filter_ids, join_pairs });
    }

    fn run(&mut self, seconds: f64) -> Timed {
        let rows = self.inputs.rows.len() as u64;
        let oracle = self.oracle.as_ref().expect("oracle prepared before the timed section");
        let pool = self.pool.as_mut().expect("pool lives until teardown");
        let (job, job_ms) = (&self.job, &mut self.job_ms);
        let timed = closed_loop(seconds, |_| {
            let got = pass(job, pool)?;
            job_ms.0.push(got.a1_ms);
            job_ms.1.push(got.f4_ms);
            if got.filter_ids != oracle.filter_ids {
                return Err(format!(
                    "A1 kept {} rows, the oracle keeps {}",
                    got.filter_ids.len(),
                    oracle.filter_ids.len()
                ));
            }
            if got.join_pairs != oracle.join_pairs {
                return Err(format!(
                    "F4 found {} pairs, the oracle has {}",
                    got.join_pairs.len(),
                    oracle.join_pairs.len()
                ));
            }
            // each job ships every row through its shuffle
            Ok(2 * rows)
        });
        self.ops_counted += timed.attempted;
        timed
    }

    fn input_checksum(&self) -> u64 {
        self.inputs.checksum()
    }

    fn oracle_len(&self) -> usize {
        match &self.oracle {
            Some(o) if !o.filter_ids.is_empty() && !o.join_pairs.is_empty() => {
                o.filter_ids.len() + o.join_pairs.len()
            }
            _ => 0,
        }
    }

    fn corrupt_oracle(&mut self) {
        if let Some(o) = &mut self.oracle {
            o.filter_ids[0] ^= 1 << 40;
        }
    }

    fn sample(&self, max: usize) -> Vec<Event> {
        self.inputs.rows.iter().take(max).map(layers::row_to_event).collect()
    }

    fn counters(&mut self, _ledger: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
        let d = self.pool_delta();
        let ops = self.ops_counted.max(1) as f64;
        let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
        BTreeMap::from([
            ("engine.pool.job_ms.a1", median(&self.job_ms.0)),
            ("engine.pool.job_ms.f4", median(&self.job_ms.1)),
            ("engine.pool.bytes_tx_per_op", d.bytes_tx as f64 / ops),
            ("engine.pool.bytes_rx_per_op", d.bytes_rx as f64 / ops),
            ("engine.pool.fetched_bytes_per_op", d.fetched_bytes as f64 / ops),
            ("engine.pool.retries_per_op", d.retries as f64 / ops),
        ])
    }

    /// Where one pipeline pass should spend its time if every layer cost
    /// what the ledger measured in isolation. Worker-side terms are spread
    /// over the two workers; codec terms use the size-dependent fit, since
    /// a pass codes many small blobs rather than one large one.
    fn model(&self, ledger: &BTreeMap<String, f64>) -> Vec<Term> {
        let d = self.pool_delta();
        let ops = self.ops_counted.max(1) as f64;
        let get = |k: &str| ledger.get(k).copied().unwrap_or(0.0);
        let workers = PARALLELISM as f64;
        let rows = self.inputs.rows.len() as f64;
        let (tasks, tx, rx, fetched) = (
            d.tasks_dispatched as f64 / ops,
            d.bytes_tx as f64 / ops,
            d.bytes_rx as f64 / ops,
            d.fetched_bytes as f64 / ops,
        );
        let pairs = self.oracle.as_ref().map_or(0, |o| o.join_pairs.len()) as f64;
        // two jobs per pass; every reduce task fetches one bucket per map task
        let map_blobs = 2.0 * self.job.map_tasks() as f64;
        let buckets = 2.0 * (self.job.num_partitions() * self.job.map_tasks()) as f64;
        let results = 2.0 * self.job.num_partitions() as f64;
        let encode = CodecFit::from_ledger(ledger, "encode", &self.size);
        let decode = CodecFit::from_ledger(ledger, "decode", &self.size);
        let frame_ms_per_byte = 1e3 / (get("engine.frame.mb_s") * 1e6).max(1e-9);
        let fetch_ms_per_byte = 1e3 / (get("engine.fetch.mb_s") * 1e6).max(1e-9);
        vec![
            Term::new("engine.pool.task_rtt", tasks, get("engine.pool.task_rtt_ms"), workers),
            Term::new("engine.frame (bytes tx+rx)", tx + rx, frame_ms_per_byte, 1.0),
            Term::new(
                "codec.decode (map input)",
                map_blobs,
                decode.blob_ms(tx / map_blobs),
                workers,
            ),
            Term::new(
                "codec.encode (buckets)",
                buckets,
                encode.blob_ms(fetched / buckets),
                workers,
            ),
            Term::new(
                "engine.fetch.rtt (per bucket)",
                buckets,
                get("engine.fetch.rtt_us") / 1e3,
                workers,
            ),
            Term::new("engine.fetch (bytes)", fetched, fetch_ms_per_byte, workers),
            Term::new(
                "codec.decode (buckets)",
                buckets,
                decode.blob_ms(fetched / buckets),
                workers,
            ),
            Term::new(
                "core.dist.st_filter",
                rows,
                1e3 / get("core.dist.st_filter_rows_per_s").max(1.0),
                workers,
            ),
            Term::new(
                "core.dist.self_join_pairs",
                pairs,
                1e3 / get("core.dist.self_join_pairs_per_s").max(1.0),
                workers,
            ),
            Term::new("codec.encode (results)", results, encode.blob_ms(rx / results), workers),
            Term::new("codec.decode (results)", results, decode.blob_ms(rx / results), 1.0),
        ]
    }

    fn teardown(mut self: Box<Self>) {
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}
