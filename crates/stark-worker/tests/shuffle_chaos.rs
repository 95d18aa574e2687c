//! Shuffle chaos: fetch-side faults against the peer-to-peer remote
//! shuffle, with real `stark-worker` processes serving buckets to each
//! other.
//!
//! The invariants pinned here:
//!
//! 1. the remote shuffle is **byte-identical** to the same plan run
//!    in-process (rows routed by the same partitioner in map-task
//!    order, reduce fragment run per partition) on the A1 filter and the
//!    F4 self-join over grid-routed events, faults or no faults;
//! 2. killing a worker after it produced map outputs yields the
//!    byte-identical final result with `map_outputs_regenerated ==
//!    map_outputs_lost` — every lost output is re-produced via lineage
//!    exactly once, at a bumped epoch;
//! 3. for any injected fault sequence below the retry budget the job
//!    converges byte-identical to the clean run with `fetch_retries`
//!    equal to the injected strike count (each struck transfer costs
//!    exactly one retry, never more);
//! 4. a dispatch fault and a fetch fault from one [`FaultPlan`] in the
//!    same job each recover through their own path: the killed map
//!    task is reassigned once, the lost outputs are regenerated once.
//!
//! Set `STARK_CHAOS_SEED=<u64>` to replay with a different dataset seed
//! (CI pins one).

use proptest::prelude::*;
use stark::distributed::{event_registry, to_arg, EventRow, SelfJoinArg, StFilterArg};
use stark::{GridPartitioner, STPredicate, SpatialPartitioner};
use stark_engine::plan::{decode_rows, encode_rows, PlanFragment, PlanInput, PlanOp, PlanSink};
use stark_engine::supervisor::DistTask;
use stark_engine::{
    Fault, FaultPlan, FaultRule, Scope, ShuffleMode, ShuffleSpec, TaskResult, WorkerPool,
    WorkerPoolConfig,
};
use stark_eventsim::EventGenerator;
use stark_geo::{Envelope, Geometry};
use std::sync::Arc;
use std::time::Duration;

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

fn grid_for(data: &[EventRow]) -> GridPartitioner {
    let summary: stark::DataSummary =
        data.iter().map(|(o, _)| (o.envelope(), o.centroid())).collect();
    GridPartitioner::build(4, &summary)
}

/// A fetch rule striking at most `strikes` requests for map task 0's
/// buckets. Strikes are counted per serving process, so scoping them to
/// the one worker serving those buckets pins the total exactly.
fn task0_rule(fault: Fault, strikes: u64) -> FaultRule {
    let rule = FaultRule::new(fault, Scope::Key("task-00000/".into()));
    FaultRule { strikes: Some(strikes), ..rule }
}

fn shuffle_pool(workers: usize, faults: Option<Arc<FaultPlan>>) -> WorkerPool {
    let mut cfg = WorkerPoolConfig::new(WORKER);
    cfg.workers = workers;
    cfg.faults = faults;
    cfg.respawn_backoff = Duration::from_millis(10);
    WorkerPool::spawn(cfg).expect("spawn shuffle pool")
}

/// Map tasks shipping `data` in `tasks` inline chunks; the pool supplies
/// the shuffle sinks.
fn map_tasks_for(data: &[EventRow], tasks: usize) -> Vec<DistTask> {
    let chunk = data.len().div_ceil(tasks.max(1)).max(1);
    data.chunks(chunk)
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
        .collect()
}

fn grid_spec(
    grid: &GridPartitioner,
    prefix: &str,
    ops: Vec<PlanOp>,
    sink: PlanSink,
) -> ShuffleSpec {
    ShuffleSpec {
        mode: ShuffleMode::Remote,
        partitioner: "grid".into(),
        partitioner_arg: to_arg(grid),
        num_partitions: grid.num_partitions(),
        prefix: prefix.into(),
        reduce_ops: ops,
        reduce_sink: sink,
    }
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

/// A query box over the densest quarter of the space, timed to cover the
/// generator's whole time range.
fn query() -> stark::STObject {
    stark::STObject::from_wkt_interval(
        "POLYGON((250 250, 750 250, 750 750, 250 750, 250 250))",
        0,
        2_000_000,
    )
    .unwrap()
}

fn st_filter_op() -> PlanOp {
    PlanOp::Filter {
        op: "st_filter".into(),
        arg: to_arg(&StFilterArg { query: query(), predicate: STPredicate::ContainedBy }),
    }
}

fn self_join_sink(radius: f64) -> PlanSink {
    PlanSink::CollectWith {
        op: "self_join_pairs".into(),
        arg: to_arg(&SelfJoinArg { predicate: STPredicate::within_distance(radius) }),
    }
}

/// The in-process plan a shuffle must reproduce: each map task's rows
/// (decoded through the registry, as a worker would) routed through the
/// same grid partitioner in map-task order, then the reduce fragment run
/// per partition over the concatenation, with inline input.
fn in_process_shuffle(
    maps: &[DistTask],
    grid: &GridPartitioner,
    spec: &ShuffleSpec,
) -> Vec<TaskResult> {
    let registry = event_registry();
    let mut parts: Vec<Vec<EventRow>> = vec![Vec::new(); spec.num_partitions];
    for task in maps {
        let map = PlanFragment { sink: PlanSink::Collect, ..task.fragment.clone() };
        let mapped = registry.execute(&map, task.payload.as_deref(), None).expect("map side");
        for row in decode_rows::<EventRow>(mapped.payload.as_deref().expect("collect payload"))
            .expect("decode map rows")
        {
            parts[grid.partition_of(&row.0)].push(row);
        }
    }
    parts
        .iter()
        .map(|rows| {
            let reduce = PlanFragment {
                schema: "event".into(),
                input: PlanInput::Inline,
                ops: spec.reduce_ops.clone(),
                sink: spec.reduce_sink.clone(),
            };
            let payload = encode_rows(rows).expect("encode partition");
            registry.execute(&reduce, Some(&payload), None).expect("reduce side")
        })
        .collect()
}

fn assert_results_identical(reference: &[TaskResult], remote: &[TaskResult], label: &str) {
    assert_eq!(reference.len(), remote.len(), "{label}: partition count");
    for (p, (s, r)) in reference.iter().zip(remote).enumerate() {
        assert_eq!(s.output, r.output, "{label}: partition {p} output diverged");
        assert_eq!(s.payload, r.payload, "{label}: partition {p} payload diverged");
    }
}

#[test]
fn remote_shuffle_is_byte_identical_to_the_in_process_plan_on_s14_workloads() {
    let data = events(chaos_seed(), 2_000);
    let grid = grid_for(&data);
    let maps = map_tasks_for(&data, 8);
    let mut pool = shuffle_pool(4, None);

    for (label, spec) in [
        // A1: spatio-temporal containment filter per partition.
        ("A1 filter", grid_spec(&grid, "sc/a1", vec![st_filter_op()], PlanSink::Collect)),
        // F4: within-distance self-join per partition.
        ("F4 self-join", grid_spec(&grid, "sc/f4", Vec::new(), self_join_sink(5.0))),
    ] {
        let remote = pool.run_shuffle(&maps, &spec).expect(label);
        assert_results_identical(&in_process_shuffle(&maps, &grid, &spec), &remote, label);
    }

    let stats = pool.stats();
    assert!(stats.shuffle_bytes_fetched_remote > 0, "remote mode must fetch peer-to-peer");
    assert_eq!(stats.fetch_retries, 0);
    assert_eq!(stats.fetch_failures, 0);
    assert_eq!(stats.map_outputs_lost, 0);
    assert_eq!(stats.map_outputs_regenerated, 0);
    pool.shutdown();
}

/// `(id, x bits, y bits)` of point rows, sorted by id.
fn point_bits(rows: &[EventRow]) -> Vec<(u64, u64, u64)> {
    let mut bits: Vec<(u64, u64, u64)> = rows
        .iter()
        .map(|(o, (id, _))| match o.geo() {
            Geometry::Point(p) => (*id, p.x().to_bits(), p.y().to_bits()),
            other => panic!("expected a point, got {other:?}"),
        })
        .collect();
    bits.sort_unstable();
    bits
}

/// Coordinates a text codec does not keep bit for bit (`-0.0`, written
/// `-0` and read back as `+0.0`; a NaN payload), and ±∞, cross the map
/// tasks' inline frames, the peer fetches and the collect frames with
/// their exact bits.
#[test]
fn edge_float_coordinates_keep_their_bits_through_a_remote_shuffle() {
    let mut data = events(chaos_seed(), 200);
    let grid = grid_for(&data);
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let edges = [
        (-0.0, 500.0),
        (500.0, -0.0),
        (f64::INFINITY, 10.0),
        (10.0, f64::NEG_INFINITY),
        (nan, 700.0),
        (-0.0, nan),
    ];
    for (i, (x, y)) in edges.into_iter().enumerate() {
        data.push((stark::STObject::point_at(x, y, 5), (1_000_000 + i as u64, "edge".into())));
    }
    let maps = map_tasks_for(&data, 4);
    let spec = grid_spec(&grid, "sc/edge", Vec::new(), PlanSink::Collect);
    let mut pool = shuffle_pool(2, None);
    let remote = pool.run_shuffle(&maps, &spec).expect("remote shuffle of edge floats");
    assert!(pool.stats().shuffle_bytes_fetched_remote > 0, "rows must cross a peer fetch");
    pool.shutdown();

    assert_results_identical(&in_process_shuffle(&maps, &grid, &spec), &remote, "edge floats");
    let collected: Vec<EventRow> = remote
        .iter()
        .flat_map(|r| decode_rows::<EventRow>(r.payload.as_deref().unwrap()).unwrap())
        .collect();
    assert_eq!(point_bits(&collected), point_bits(&data));
}

#[test]
fn killing_a_serving_worker_regenerates_exactly_the_lost_outputs() {
    let data = events(chaos_seed() ^ 0x5A17, 2_000);
    let grid = grid_for(&data);
    let maps = map_tasks_for(&data, 8);

    // Fault-free reference.
    let mut reference: Vec<u64> = data
        .iter()
        .filter(|(o, _)| STPredicate::ContainedBy.eval(o, &query()))
        .map(|(_, (id, _))| *id)
        .collect();
    reference.sort_unstable();
    assert!(!reference.is_empty(), "the query box must select something");

    // The first fetch of a task-0 bucket kills the worker serving it;
    // regenerated outputs land at epoch 1, past the rule's one-attempt
    // gate, so recovery traffic is never struck again.
    let chaos = FaultPlan::new(0, vec![task0_rule(Fault::KillServingWorker, 1)]);
    let mut pool = shuffle_pool(4, Some(Arc::new(chaos)));
    let results = pool
        .run_shuffle(&maps, &grid_spec(&grid, "sc/kill", vec![st_filter_op()], PlanSink::Collect))
        .expect("remote shuffle with kill chaos");

    assert_eq!(sorted_ids(&results), reference, "recovery must be invisible in the results");
    let stats = pool.stats();
    assert!(stats.workers_lost >= 1, "the serving worker must have died");
    assert!(stats.fetch_failures >= 1, "the kill must surface as a fetch failure");
    assert!(stats.map_outputs_lost >= 1, "the dead worker's outputs must be lost");
    assert_eq!(
        stats.map_outputs_regenerated, stats.map_outputs_lost,
        "lineage must regenerate exactly the lost outputs"
    );
    assert!(
        pool.shuffle_epoch("sc/kill").unwrap() >= 1,
        "regeneration must bump the shuffle epoch so stale fetches are rejected"
    );
    pool.shutdown();
}

#[test]
fn a_dispatch_kill_and_a_fetch_kill_in_one_job_each_recover_once() {
    let data = events(chaos_seed() ^ 0xC0DE, 2_000);
    let grid = grid_for(&data);
    let maps = map_tasks_for(&data, 8);
    let spec = grid_spec(&grid, "sc/compound", vec![st_filter_op()], PlanSink::Collect);

    let mut clean_pool = shuffle_pool(4, None);
    let clean = clean_pool.run_shuffle(&maps, &spec).expect("clean remote shuffle");
    clean_pool.shutdown();

    // One plan, two sites: the first dispatch kills its worker in the
    // map stage, and the first fetch of a task-0 bucket kills the worker
    // serving it in the reduce stage.
    let plan = Arc::new(FaultPlan::new(
        chaos_seed(),
        vec![FaultRule::once(Fault::KillWorker), task0_rule(Fault::KillServingWorker, 1)],
    ));
    let mut pool = shuffle_pool(4, Some(plan.clone()));
    let struck = pool.run_shuffle(&maps, &spec).expect("remote shuffle under both kills");

    assert_results_identical(&clean, &struck, "compound faults");
    let stats = pool.stats();
    assert_eq!(plan.injected(), 1, "the driver strikes one dispatch; workers count fetch strikes");
    assert_eq!(
        stats.tasks_reassigned,
        plan.injected(),
        "only the dispatch kill costs a reassignment"
    );
    assert_eq!(
        stats.map_outputs_regenerated, stats.map_outputs_lost,
        "lineage must regenerate exactly the lost outputs"
    );
    assert!(stats.workers_lost >= 2, "both kills must have taken a worker down");
    pool.shutdown();
}

proptest! {
    // Forking real processes is expensive; a few drawn cases suffice on
    // top of the fixed-seed end-to-end tests above.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any fetch fault policy and any strike count below the
    /// client's retry budget, the job converges byte-identical to the
    /// clean run and `fetch_retries` equals the injected strike count.
    #[test]
    fn faults_below_the_retry_budget_cost_exactly_one_retry_each(
        seed in 0u64..1_000_000,
        policy_idx in 0usize..3,
        strikes in 0u64..=3,
    ) {
        let fault = [Fault::RefuseFetch, Fault::DropBucket, Fault::CorruptBucket][policy_idx];
        let data = events(seed, 600);
        let grid = grid_for(&data);
        let maps = map_tasks_for(&data, 6);

        let mut clean_pool = shuffle_pool(3, None);
        let clean = clean_pool
            .run_shuffle(
                &maps,
                &grid_spec(&grid, "sc/prop", vec![st_filter_op()], PlanSink::Collect),
            )
            .expect("clean remote shuffle");
        clean_pool.shutdown();

        let chaos = FaultPlan::new(0, vec![task0_rule(fault, strikes)]);
        let mut pool = shuffle_pool(3, Some(Arc::new(chaos)));
        let struck = pool
            .run_shuffle(
                &maps,
                &grid_spec(&grid, "sc/prop", vec![st_filter_op()], PlanSink::Collect),
            )
            .expect("struck remote shuffle");

        for (p, (c, s)) in clean.iter().zip(&struck).enumerate() {
            prop_assert_eq!(&c.output, &s.output, "partition {} output diverged", p);
            prop_assert_eq!(&c.payload, &s.payload, "partition {} payload diverged", p);
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.fetch_retries, strikes, "one retry per strike, never more");
        prop_assert_eq!(stats.fetch_failures, 0, "strikes below the budget never escalate");
        prop_assert_eq!(stats.map_outputs_lost, 0);
        prop_assert_eq!(stats.map_outputs_regenerated, 0);
        prop_assert_eq!(stats.workers_lost, 0);
        pool.shutdown();
    }
}
