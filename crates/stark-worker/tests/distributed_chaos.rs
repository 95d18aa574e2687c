//! Distributed chaos: kill one of N real worker processes mid-job and
//! prove the supervisor's recovery is invisible in the results.
//!
//! Every test runs a spatial pipeline twice — single-process reference
//! vs a [`WorkerPool`] of forked `stark-worker` processes with a
//! one-shot `KillWorker` transport fault — and pins three invariants:
//!
//! 1. results are **byte-identical** to the fault-free reference,
//! 2. `tasks_reassigned == injected` (each injected loss costs exactly
//!    one reassignment, never more),
//! 3. exactly one worker was lost.
//!
//! The kill lands mid-shuffle (stage-1 task frame) in the filter and
//! partitioner-balance tests and mid-checkpoint in another; the property
//! test additionally draws the data seed, worker count and predicate
//! from proptest. Set `STARK_CHAOS_SEED=<u64>` to replay the end-to-end
//! tests with a different dataset seed (CI pins one).

use proptest::prelude::*;
use stark::distributed::{self_join_pairs, to_arg, EventRow, SelfJoinArg, StFilterArg};
use stark::{BspPartitioner, DataSummary, GridPartitioner, STPredicate, SpatialPartitioner};
use stark_engine::plan::{
    decode_rows, encode_rows, PlanFragment, PlanInput, PlanOp, PlanSink, TaskOutput,
};
use stark_engine::supervisor::DistTask;
use stark_engine::{
    Fault, FaultPlan, ShuffleMode, ShuffleSpec, TaskResult, WorkerPool, WorkerPoolConfig,
};
use stark_eventsim::EventGenerator;
use stark_geo::Envelope;
use std::sync::Arc;

const DEFAULT_CHAOS_SEED: u64 = 0xC4A05;

/// Built by cargo in this test's own profile — no directory search.
const WORKER: &str = env!("CARGO_BIN_EXE_stark-worker");

fn chaos_seed() -> u64 {
    match std::env::var("STARK_CHAOS_SEED") {
        Ok(s) => s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"),
        Err(_) => DEFAULT_CHAOS_SEED,
    }
}

fn space() -> Envelope {
    Envelope::from_bounds(0.0, 0.0, 1000.0, 1000.0)
}

/// `n` clustered spatio-temporal events, deterministic in `seed`.
fn events(seed: u64, n: usize) -> Vec<EventRow> {
    let mut g = EventGenerator::new(seed);
    g.clustered_points(n, 10, 8.0, &space()).iter().map(|e| e.to_pair()).collect()
}

fn summary_of(data: &[EventRow]) -> DataSummary {
    data.iter().map(|(o, _)| (o.envelope(), o.centroid())).collect()
}

fn grid_for(data: &[EventRow]) -> GridPartitioner {
    GridPartitioner::build(4, &summary_of(data))
}

/// A partitioner as the workers resolve it: registered name, serialized
/// form, partition count.
type Routing = (&'static str, serde_json::Value, usize);

fn grid_routing(grid: &GridPartitioner) -> Routing {
    ("grid", to_arg(grid), grid.num_partitions())
}

fn kill_pool(workers: usize) -> (WorkerPool, Arc<FaultPlan>) {
    let chaos = Arc::new(FaultPlan::once(Fault::KillWorker));
    let mut cfg = WorkerPoolConfig::new(WORKER);
    cfg.workers = workers;
    cfg.faults = Some(chaos.clone());
    (WorkerPool::spawn(cfg).expect("spawn chaos pool"), chaos)
}

/// Shuffle `data` through the `routing` partitioner inside the workers,
/// then run `ops`+`sink` per partition over the fetched buckets. The
/// fault plan (if any) strikes the first map-stage dispatch:
/// mid-shuffle.
fn two_stage(
    pool: &mut WorkerPool,
    data: &[EventRow],
    (partitioner, partitioner_arg, num_partitions): Routing,
    tasks: usize,
    ops: Vec<PlanOp>,
    sink: PlanSink,
) -> Vec<TaskResult> {
    let chunk = data.len().div_ceil(tasks.max(1)).max(1);
    let map_tasks: Vec<DistTask> = data
        .chunks(chunk)
        .map(|rows| {
            DistTask::with_rows(
                PlanFragment {
                    schema: "event".into(),
                    input: PlanInput::Inline,
                    ops: Vec::new(),
                    sink: PlanSink::Collect, // replaced by run_shuffle
                },
                encode_rows(rows).expect("encode chunk"),
            )
        })
        .collect();
    let spec = ShuffleSpec {
        mode: ShuffleMode::Remote,
        partitioner: partitioner.into(),
        partitioner_arg,
        num_partitions,
        prefix: "dc/s0".into(),
        reduce_ops: ops,
        reduce_sink: sink,
    };
    pool.run_shuffle(&map_tasks, &spec).expect("shuffle job")
}

fn sorted_ids(results: &[TaskResult]) -> Vec<u64> {
    let mut ids: Vec<u64> = results
        .iter()
        .flat_map(|r| {
            decode_rows::<EventRow>(r.payload.as_deref().expect("collect payload"))
                .expect("decode rows")
        })
        .map(|(_, (id, _))| id)
        .collect();
    ids.sort_unstable();
    ids
}

fn assert_exactly_one_kill(pool: &WorkerPool, chaos: &FaultPlan) {
    let stats = pool.stats();
    assert_eq!(chaos.injected(), 1, "one-shot chaos must have struck");
    assert_eq!(
        stats.tasks_reassigned,
        chaos.injected(),
        "each injected loss must cost exactly one reassignment"
    );
    assert_eq!(stats.workers_lost, 1);
}

/// A query box over the densest quarter of the space, timed to cover the
/// generator's whole time range (timed rows only match timed queries).
fn query() -> stark::STObject {
    stark::STObject::from_wkt_interval(
        "POLYGON((250 250, 750 250, 750 750, 250 750, 250 250))",
        0,
        2_000_000,
    )
    .unwrap()
}

#[test]
fn worker_kill_mid_shuffle_keeps_the_filter_byte_identical() {
    let data = events(chaos_seed(), 2_000);
    let grid = grid_for(&data);
    let q = query();
    let mut reference: Vec<u64> = data
        .iter()
        .filter(|(o, _)| STPredicate::ContainedBy.eval(o, &q))
        .map(|(_, (id, _))| *id)
        .collect();
    reference.sort_unstable();
    assert!(!reference.is_empty(), "the query box must select something");

    let (mut pool, chaos) = kill_pool(4);
    let filter = PlanOp::Filter {
        op: "st_filter".into(),
        arg: to_arg(&StFilterArg { query: q, predicate: STPredicate::ContainedBy }),
    };
    let results =
        two_stage(&mut pool, &data, grid_routing(&grid), 8, vec![filter], PlanSink::Collect);
    assert_eq!(sorted_ids(&results), reference, "recovery must be invisible in the results");
    assert_exactly_one_kill(&pool, &chaos);
    pool.shutdown();
}

/// A2 across the process boundary: rows routed inside the workers all
/// arrive, and the cost-based BSP partitioner balances the clustered
/// events better than the fixed grid, with a worker killed mid-shuffle
/// in both runs.
#[test]
fn worker_kill_mid_shuffle_keeps_bsp_better_balanced_than_grid() {
    let data = events(chaos_seed(), 2_000);
    let bsp = BspPartitioner::build(data.len() / 64, 4.0, &summary_of(&data));
    // max partition size over mean partition size
    let imbalance = |routing: Routing| {
        let (mut pool, chaos) = kill_pool(4);
        let results = two_stage(&mut pool, &data, routing, 8, Vec::new(), PlanSink::Count);
        assert_exactly_one_kill(&pool, &chaos);
        pool.shutdown();
        let counts: Vec<u64> = results
            .iter()
            .map(|r| match r.output {
                TaskOutput::Count(c) => c,
                ref other => panic!("expected a partition count, got {other:?}"),
            })
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), data.len() as u64, "routing lost rows");
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        max * counts.len() as f64 / data.len() as f64
    };
    let grid = imbalance(grid_routing(&grid_for(&data)));
    let bsp = imbalance(("bsp", to_arg(&bsp), bsp.num_partitions()));
    assert!(bsp < grid, "bsp imbalance {bsp:.2} should be under grid imbalance {grid:.2}");
}

#[test]
fn worker_kill_mid_checkpoint_leaves_recoverable_blobs() {
    let data = events(chaos_seed() ^ 0x9E37, 1_200);
    let chunk = data.len().div_ceil(6);
    let chunks: Vec<&[EventRow]> = data.chunks(chunk).collect();

    let (mut pool, chaos) = kill_pool(3);
    let tasks: Vec<DistTask> = chunks
        .iter()
        .enumerate()
        .map(|(p, rows)| {
            DistTask::with_rows(
                PlanFragment {
                    schema: "event".into(),
                    input: PlanInput::Inline,
                    ops: Vec::new(),
                    sink: PlanSink::Checkpoint { key: "dc/ck".into(), partition: p },
                },
                encode_rows(rows).expect("encode chunk"),
            )
        })
        .collect();
    let results = pool.execute(&tasks).expect("checkpoint stage");

    // Every partition blob a worker wrote must round-trip byte-identical
    // to the rows the driver shipped — including the reassigned one.
    for (p, (rows, result)) in chunks.iter().zip(&results).enumerate() {
        let key = match &result.output {
            TaskOutput::Checkpointed { key, rows: n, .. } => {
                assert_eq!(*n, rows.len() as u64, "partition {p} row count");
                key.clone()
            }
            other => panic!("expected checkpoint output, got {other:?}"),
        };
        let blob = pool.store().get_bytes(&key).expect("read checkpoint blob");
        let back: Vec<EventRow> = decode_rows(&blob).expect("decode checkpoint blob");
        assert_eq!(&back, rows, "partition {p} blob diverged");
    }
    assert_exactly_one_kill(&pool, &chaos);
    pool.shutdown();
}

proptest! {
    // Forking real processes is expensive; a few drawn cases suffice on
    // top of the fixed-seed end-to-end tests above.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Killing 1 of N workers never changes the self-join result, for
    /// any data seed, worker count and join radius.
    #[test]
    fn killing_one_of_n_workers_never_changes_self_join_results(
        seed in 0u64..1_000_000,
        workers in 2usize..=4,
        radius in 2.0f64..12.0,
    ) {
        let data = events(seed, 600);
        let grid = grid_for(&data);
        let pred = STPredicate::within_distance(radius);

        // Single-process reference: same grid routing, same per-partition
        // join, plain iterators.
        let mut by_part: Vec<Vec<EventRow>> = vec![Vec::new(); grid.num_partitions()];
        for row in &data {
            by_part[grid.partition_of(&row.0)].push(row.clone());
        }
        let mut reference: Vec<(u64, u64)> =
            by_part.iter().flat_map(|rows| self_join_pairs(rows, pred)).collect();
        reference.sort_unstable();

        let (mut pool, chaos) = kill_pool(workers);
        let sink = PlanSink::CollectWith {
            op: "self_join_pairs".into(),
            arg: to_arg(&SelfJoinArg { predicate: pred }),
        };
        let results = two_stage(&mut pool, &data, grid_routing(&grid), workers * 2, Vec::new(), sink);
        let mut pairs: Vec<(u64, u64)> = results
            .iter()
            .flat_map(|r| match &r.output {
                TaskOutput::Json(v) => {
                    let pairs: Vec<(u64, u64)> =
                        serde::Deserialize::from_value(v).expect("decode pairs");
                    pairs
                }
                other => panic!("expected JSON pairs, got {other:?}"),
            })
            .collect();
        pairs.sort_unstable();

        prop_assert_eq!(pairs, reference);
        prop_assert_eq!(chaos.injected(), 1);
        prop_assert_eq!(pool.stats().tasks_reassigned, 1);
        prop_assert_eq!(pool.stats().workers_lost, 1);
        pool.shutdown();
    }
}
