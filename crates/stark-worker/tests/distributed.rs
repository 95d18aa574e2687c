//! Multi-process execution tests: a [`WorkerPool`] forking real
//! `stark-worker` processes over TCP, with dispatch and fetch faults.
//!
//! Every dispatch-fault test pins the two supervision invariants:
//! results are byte-identical to a fault-free run, and `tasks_reassigned`
//! equals the number of injected faults (a rule's `attempts = 1` gate
//! means a reassigned attempt is never struck again).

use stark_engine::plan::{
    decode_rows, encode_rows, int_arg, int_registry, shuffle_bucket_key, PlanFragment, PlanInput,
    PlanOp, PlanSink, TaskOutput,
};
use stark_engine::supervisor::DistTask;
use stark_engine::{
    Fault, FaultPlan, FaultRule, FetchConfig, Scope, ShuffleEnv, ShuffleMode, ShuffleSpec,
    TaskResult, WorkerPool, WorkerPoolConfig,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Built by cargo in this test's own profile — no directory search.
const WORKER: &str = env!("CARGO_BIN_EXE_stark-worker");

fn pool_config(workers: usize) -> WorkerPoolConfig {
    let mut cfg = WorkerPoolConfig::new(WORKER);
    cfg.workers = workers;
    cfg
}

/// `Collect` fragment: inline rows through `(x + k) keep-even`.
fn add_even_task(rows: &[i64], k: i64) -> DistTask {
    let fragment = PlanFragment {
        schema: "i64".into(),
        input: PlanInput::Inline,
        ops: vec![
            PlanOp::Map { op: "add".into(), arg: int_arg("k", k) },
            PlanOp::Filter { op: "even".into(), arg: serde_json::Value::Null },
        ],
        sink: PlanSink::Collect,
    };
    DistTask::with_rows(fragment, encode_rows(rows).unwrap())
}

fn collected_rows(result: &stark_engine::TaskResult) -> Vec<i64> {
    assert!(matches!(result.output, TaskOutput::Rows { .. }), "{:?}", result.output);
    decode_rows(result.payload.as_ref().expect("collect ships rows")).unwrap()
}

/// What `add_even_task` computes, single-process.
fn add_even_local(rows: &[i64], k: i64) -> Vec<i64> {
    rows.iter().map(|x| x + k).filter(|x| x % 2 == 0).collect()
}

#[test]
fn pool_executes_a_stage_of_collect_tasks() {
    let mut pool = WorkerPool::spawn(pool_config(4)).unwrap();
    let inputs: Vec<Vec<i64>> = (0..8).map(|t| (t * 10..t * 10 + 10).collect()).collect();
    let tasks: Vec<DistTask> = inputs.iter().map(|rows| add_even_task(rows, 3)).collect();
    let results = pool.execute(&tasks).unwrap();

    assert_eq!(results.len(), 8);
    for (input, result) in inputs.iter().zip(&results) {
        assert_eq!(collected_rows(result), add_even_local(input, 3));
    }
    let stats = pool.stats();
    assert_eq!(stats.workers_spawned, 4);
    assert_eq!(stats.tasks_completed, 8);
    assert_eq!(stats.tasks_reassigned, 0);
    // the heartbeat cadence (25ms) may be longer than the whole job
    std::thread::sleep(Duration::from_millis(80));
    assert!(pool.stats().heartbeats > 0, "workers should have heartbeated");
    pool.shutdown();
}

#[test]
fn checkpoint_sink_writes_recoverable_blobs_remotely() {
    let mut pool = WorkerPool::spawn(pool_config(2)).unwrap();
    let rows: Vec<i64> = (0..40).collect();
    let task = DistTask::with_rows(
        PlanFragment {
            schema: "i64".into(),
            input: PlanInput::Inline,
            ops: vec![PlanOp::Map { op: "mul".into(), arg: int_arg("k", 2) }],
            sink: PlanSink::Checkpoint { key: "ck/job7".into(), partition: 3 },
        },
        encode_rows(&rows).unwrap(),
    );
    let result = pool.execute(std::slice::from_ref(&task)).unwrap().remove(0);
    match result.output {
        TaskOutput::Checkpointed { ref key, rows: n, bytes } => {
            assert_eq!(key, "ck/job7/part-00003");
            assert_eq!(n, 40);
            assert!(bytes > 0);
        }
        other => panic!("expected checkpoint output, got {other:?}"),
    }
    // The blob a worker wrote is readable as a local checkpoint blob.
    let back: Vec<i64> =
        decode_rows(&pool.store().get_bytes("ck/job7/part-00003").unwrap()).unwrap();
    assert_eq!(back, (0..40).map(|x| x * 2).collect::<Vec<i64>>());
    pool.shutdown();
}

/// Runs one job under an injected one-shot fault and asserts results are
/// byte-identical to the fault-free reference, with exactly one
/// reassignment.
fn assert_recovers_from(fault: Fault, task_timeout: Option<Duration>) {
    let inputs: Vec<Vec<i64>> = (0..10).map(|t| (t * 7..t * 7 + 30).collect()).collect();
    let tasks: Vec<DistTask> = inputs.iter().map(|rows| add_even_task(rows, 5)).collect();

    let chaos = Arc::new(FaultPlan::once(fault));
    let mut cfg = pool_config(4);
    cfg.faults = Some(chaos.clone());
    if let Some(t) = task_timeout {
        cfg.task_timeout = t;
    }
    let mut pool = WorkerPool::spawn(cfg).unwrap();
    let results = pool.execute(&tasks).unwrap();

    for (input, result) in inputs.iter().zip(&results) {
        assert_eq!(collected_rows(result), add_even_local(input, 5));
    }
    let stats = pool.stats();
    assert_eq!(chaos.injected(), 1, "one-shot chaos must have struck");
    assert_eq!(
        stats.tasks_reassigned,
        chaos.injected(),
        "every injected transport fault costs exactly one reassignment"
    );
    assert_eq!(stats.workers_lost, 1);
    assert_eq!(stats.tasks_completed, tasks.len() as u64);
    pool.shutdown();
}

#[test]
fn worker_killed_mid_task_is_detected_and_reassigned() {
    assert_recovers_from(Fault::KillWorker, None);
}

#[test]
fn corrupt_task_frame_fail_stops_the_worker_and_recovers() {
    assert_recovers_from(Fault::CorruptFrame, None);
}

#[test]
fn dropped_task_frame_recovers_via_task_deadline() {
    assert_recovers_from(Fault::DropFrame, Some(Duration::from_millis(400)));
}

#[test]
fn truncated_task_frame_recovers_via_task_deadline() {
    assert_recovers_from(Fault::TruncateFrame, Some(Duration::from_millis(400)));
}

#[test]
fn delayed_task_frame_completes_without_loss() {
    let inputs: Vec<Vec<i64>> = (0..4).map(|t| vec![t, t + 1, t + 2]).collect();
    let tasks: Vec<DistTask> = inputs.iter().map(|rows| add_even_task(rows, 2)).collect();
    let chaos = Arc::new(FaultPlan::once(Fault::DelayFrame(Duration::from_millis(50))));
    let mut cfg = pool_config(2);
    cfg.faults = Some(chaos.clone());
    let mut pool = WorkerPool::spawn(cfg).unwrap();
    let results = pool.execute(&tasks).unwrap();
    for (input, result) in inputs.iter().zip(&results) {
        assert_eq!(collected_rows(result), add_even_local(input, 2));
    }
    assert_eq!(chaos.injected(), 1);
    assert_eq!(pool.stats().tasks_reassigned, 0, "a delay is not a loss");
    pool.shutdown();
}

#[test]
fn respawned_seat_restores_capacity_for_the_next_job() {
    let inputs: Vec<Vec<i64>> = (0..8).map(|t| (t..t + 20).collect()).collect();
    let tasks: Vec<DistTask> = inputs.iter().map(|rows| add_even_task(rows, 1)).collect();

    let mut cfg = pool_config(3);
    cfg.faults = Some(Arc::new(FaultPlan::once(Fault::KillWorker)));
    cfg.respawn_backoff = Duration::from_millis(10);
    let mut pool = WorkerPool::spawn(cfg).unwrap();

    // Job 1 loses a worker; healing restores the seat (the fault plan
    // is exhausted after its single strike), and job 2 sees a full pool.
    let first = pool.execute(&tasks).unwrap();
    assert_eq!(pool.heal(Duration::from_secs(5)), 3, "heal must restore the dead seat");
    let second = pool.execute(&tasks).unwrap();
    for (input, result) in inputs.iter().zip(&second) {
        assert_eq!(collected_rows(result), add_even_local(input, 1));
    }
    assert_eq!(first.len(), second.len());

    let stats = pool.stats();
    assert_eq!(stats.workers_lost, 1);
    assert!(stats.workers_respawned >= 1, "the dead seat must come back");
    assert_eq!(pool.live_workers(), 3);
    pool.shutdown();
}

/// `(x + 1) mod 4` shuffle over six inline map tasks, reduce = sort.
fn shuffle_inputs() -> Vec<Vec<i64>> {
    (0..6).map(|t| (t * 100..t * 100 + 50).collect()).collect()
}

fn shuffle_map_tasks(inputs: &[Vec<i64>]) -> Vec<DistTask> {
    inputs
        .iter()
        .map(|rows| {
            DistTask::with_rows(
                PlanFragment {
                    schema: "i64".into(),
                    input: PlanInput::Inline,
                    ops: vec![PlanOp::Map { op: "add".into(), arg: int_arg("k", 1) }],
                    // replaced by run_shuffle
                    sink: PlanSink::Collect,
                },
                encode_rows(rows).unwrap(),
            )
        })
        .collect()
}

fn shuffle_spec(prefix: &str) -> ShuffleSpec {
    ShuffleSpec {
        mode: ShuffleMode::Remote,
        partitioner: "mod".into(),
        partitioner_arg: int_arg("parts", 4),
        num_partitions: 4,
        prefix: prefix.into(),
        reduce_ops: vec![PlanOp::MapPartitions { op: "sort".into(), arg: serde_json::Value::Null }],
        reduce_sink: PlanSink::Collect,
    }
}

/// What the shuffle computes, single-process.
fn shuffle_expected(inputs: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let mut expected: Vec<Vec<i64>> = vec![Vec::new(); 4];
    for rows in inputs {
        for x in rows {
            let y = x + 1;
            expected[y.rem_euclid(4) as usize].push(y);
        }
    }
    for part in &mut expected {
        part.sort_unstable();
    }
    expected
}

/// The in-process plan a shuffle must reproduce: each map task's rows
/// (map ops applied by the registry) routed through the same `mod 4`
/// partitioner in map-task order, then the reduce fragment run per
/// partition over the concatenation, with inline input.
fn in_process_shuffle(map_tasks: &[DistTask], spec: &ShuffleSpec) -> Vec<TaskResult> {
    let registry = int_registry();
    let mut parts: Vec<Vec<i64>> = vec![Vec::new(); spec.num_partitions];
    for task in map_tasks {
        let map = PlanFragment { sink: PlanSink::Collect, ..task.fragment.clone() };
        let mapped = registry.execute(&map, task.payload.as_deref(), None).unwrap();
        for x in collected_rows(&mapped) {
            parts[x.rem_euclid(spec.num_partitions as i64) as usize].push(x);
        }
    }
    parts
        .iter()
        .map(|rows| {
            let reduce = PlanFragment {
                schema: "i64".into(),
                input: PlanInput::Inline,
                ops: spec.reduce_ops.clone(),
                sink: spec.reduce_sink.clone(),
            };
            registry.execute(&reduce, Some(&encode_rows(rows).unwrap()), None).unwrap()
        })
        .collect()
}

#[test]
fn shuffle_matches_the_in_process_plan_byte_for_byte() {
    let inputs = shuffle_inputs();
    let map_tasks = shuffle_map_tasks(&inputs);
    let expected = shuffle_expected(&inputs);
    let spec = shuffle_spec("rs/clean");
    let reference = in_process_shuffle(&map_tasks, &spec);

    let mut pool = WorkerPool::spawn(pool_config(3)).unwrap();
    let remote = pool.run_shuffle(&map_tasks, &spec).unwrap();

    for p in 0..4 {
        assert_eq!(collected_rows(&reference[p]), expected[p], "reference partition {p}");
        assert_eq!(reference[p].output, remote[p].output, "partition {p} output diverged");
        assert_eq!(
            reference[p].payload, remote[p].payload,
            "partition {p} must be byte-identical to the in-process plan"
        );
    }
    let stats = pool.stats();
    assert!(stats.shuffle_bytes_fetched_remote > 0, "remote mode must fetch peer-to-peer");
    assert_eq!(stats.fetch_retries, 0, "no chaos, no retries");
    assert_eq!(stats.fetch_failures, 0);
    assert_eq!(stats.map_outputs_lost, 0);
    assert_eq!(stats.map_outputs_regenerated, 0);
    assert_eq!(pool.shuffle_epoch("rs/clean"), Some(0), "clean run never bumps the epoch");
    pool.shutdown();
}

#[test]
fn torn_fetches_recover_with_one_retry_per_strike() {
    let inputs = shuffle_inputs();
    let map_tasks = shuffle_map_tasks(&inputs);
    let expected = shuffle_expected(&inputs);

    let mut cfg = pool_config(3);
    // strikes are counted per serving process, so scope the fault to the
    // one worker serving task-0 buckets to pin the total at 2
    let rule = FaultRule::new(Fault::DropBucket, Scope::Key("task-00000/".into()));
    cfg.faults = Some(Arc::new(FaultPlan::new(0, vec![FaultRule { strikes: Some(2), ..rule }])));
    let mut pool = WorkerPool::spawn(cfg).unwrap();
    let results = pool.run_shuffle(&map_tasks, &shuffle_spec("rs/torn")).unwrap();

    for p in 0..4 {
        assert_eq!(collected_rows(&results[p]), expected[p], "partition {p}");
    }
    let stats = pool.stats();
    assert_eq!(stats.fetch_retries, 2, "each torn transfer costs exactly one resume");
    assert_eq!(stats.fetch_failures, 0, "strikes stay under the retry budget");
    assert_eq!(stats.map_outputs_lost, 0);
    assert_eq!(stats.workers_lost, 0);
    pool.shutdown();
}

#[test]
fn killed_serving_worker_regenerates_its_outputs_via_lineage() {
    let inputs = shuffle_inputs();
    let map_tasks = shuffle_map_tasks(&inputs);
    let expected = shuffle_expected(&inputs);

    let mut cfg = pool_config(3);
    // Exactly one worker dies: the first fetch of a task-0 bucket kills
    // its server; regenerated outputs live at epoch 1, past the rule's
    // one-attempt gate.
    let kill = FaultRule::once(Fault::KillServingWorker);
    let kill = FaultRule { scope: Scope::Key("task-00000/".into()), ..kill };
    cfg.faults = Some(Arc::new(FaultPlan::new(0, vec![kill])));
    cfg.respawn_backoff = Duration::from_millis(10);
    let mut pool = WorkerPool::spawn(cfg).unwrap();
    let results = pool.run_shuffle(&map_tasks, &shuffle_spec("rs/kill")).unwrap();

    for p in 0..4 {
        assert_eq!(
            collected_rows(&results[p]),
            expected[p],
            "partition {p} must be byte-identical after lineage recovery"
        );
    }
    let stats = pool.stats();
    assert!(stats.workers_lost >= 1, "the serving worker must have died");
    assert!(stats.fetch_failures >= 1, "the kill must surface as a fetch failure");
    assert!(stats.map_outputs_lost >= 1, "the dead worker's outputs are lost");
    assert_eq!(
        stats.map_outputs_regenerated, stats.map_outputs_lost,
        "every lost output is regenerated exactly once"
    );
    assert!(
        pool.shuffle_epoch("rs/kill").unwrap() >= 1,
        "regeneration must bump the shuffle epoch"
    );
    pool.shutdown();
}

/// Asserts that no live worker of `pool` serves any bucket of the stage
/// `prefix` any more. Release is unacknowledged, so each key is polled
/// for a short while before the test gives up.
fn assert_stage_released(pool: &WorkerPool, prefix: &str, map_tasks: usize, parts: usize) {
    let client =
        ShuffleEnv::with_config(FetchConfig { max_retries: 0, ..Default::default() }, None);
    let addrs = pool.shuffle_addrs();
    assert_eq!(addrs.len(), pool.live_workers(), "every live seat serves buckets");
    let deadline = Instant::now() + Duration::from_secs(5);
    for addr in &addrs {
        for key in
            (0..map_tasks).flat_map(|t| (0..parts).map(move |p| shuffle_bucket_key(prefix, t, p)))
        {
            loop {
                match client.fetch(addr, &key, 0) {
                    Err(f) if f.reason.contains("not registered") => break,
                    other => {
                        let served = other.map(|bytes| bytes.len());
                        assert!(Instant::now() < deadline, "{addr} still has {key}: {served:?}");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }
    }
}

#[test]
fn run_shuffle_releases_its_buckets_however_it_returns() {
    let inputs = shuffle_inputs();
    let map_tasks = shuffle_map_tasks(&inputs);
    let mut pool = WorkerPool::spawn(pool_config(3)).unwrap();

    let results = pool.run_shuffle(&map_tasks, &shuffle_spec("rs/ok")).unwrap();
    assert_eq!(collected_rows(&results[0]), shuffle_expected(&inputs)[0]);
    assert_stage_released(&pool, "rs/ok", map_tasks.len(), 4);

    // a reduce side that fails after every map output was written
    let failing = ShuffleSpec {
        reduce_ops: vec![PlanOp::Map { op: "no-such-op".into(), arg: serde_json::Value::Null }],
        ..shuffle_spec("rs/err")
    };
    let err = pool.run_shuffle(&map_tasks, &failing).unwrap_err();
    assert!(err.to_string().contains("no-such-op"), "{err}");
    assert_stage_released(&pool, "rs/err", map_tasks.len(), 4);
    pool.shutdown();
}

/// Resident set size of a process in KiB, from `/proc`.
fn rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Runs one counting shuffle stage per index in `stages`, each under its
/// own prefix.
fn run_count_stages(pool: &mut WorkerPool, map_tasks: &[DistTask], stages: Range<usize>) {
    for i in stages {
        let spec = ShuffleSpec {
            reduce_ops: Vec::new(),
            reduce_sink: PlanSink::Count,
            ..shuffle_spec(&format!("mem/{i}"))
        };
        assert_eq!(pool.run_shuffle(map_tasks, &spec).unwrap().len(), 4);
    }
}

#[test]
fn many_shuffle_stages_do_not_grow_worker_memory() {
    let mut pool = WorkerPool::spawn(pool_config(2)).unwrap();
    let inputs: Vec<Vec<i64>> =
        (0..4).map(|t| (0..3_000).map(|i| 1_000_000_000_000 + t * 3_000 + i).collect()).collect();
    let map_tasks = shuffle_map_tasks(&inputs);
    let stage_bytes: usize = map_tasks.iter().map(|t| t.payload.as_ref().unwrap().len()).sum();
    let rss =
        |pool: &WorkerPool| -> Option<u64> { pool.worker_pids().into_iter().map(rss_kib).sum() };

    // warm up allocator arenas and pooled connections
    run_count_stages(&mut pool, &map_tasks, 0..10);
    let Some(before) = rss(&pool) else { return }; // no /proc: nothing to measure
    run_count_stages(&mut pool, &map_tasks, 10..110);
    let after = rss(&pool).expect("workers still alive");
    // kept buckets would add each stage's whole output to some worker
    let kept_kib = (100 * stage_bytes / 1024) as u64;
    assert!(
        after.saturating_sub(before) < kept_kib / 4,
        "worker RSS grew {before} → {after} KiB over 100 stages ({kept_kib} KiB if kept)"
    );
    pool.shutdown();
}

#[test]
fn unknown_op_fails_the_task_without_killing_the_worker() {
    let mut pool = WorkerPool::spawn(pool_config(2)).unwrap();
    let bad = DistTask::with_rows(
        PlanFragment {
            schema: "i64".into(),
            input: PlanInput::Inline,
            ops: vec![PlanOp::Map { op: "no-such-op".into(), arg: serde_json::Value::Null }],
            sink: PlanSink::Count,
        },
        encode_rows(&[1i64, 2]).unwrap(),
    );
    let err = pool.execute(std::slice::from_ref(&bad)).unwrap_err();
    assert!(err.to_string().contains("no-such-op"), "{err}");
    assert_eq!(pool.stats().workers_lost, 0, "a plan error is not a worker loss");

    // The pool is still serviceable after the failed job.
    let ok = pool.execute(&[add_even_task(&[1, 2, 3, 4], 0)]).unwrap();
    assert_eq!(collected_rows(&ok[0]), vec![2, 4]);
    pool.shutdown();
}
