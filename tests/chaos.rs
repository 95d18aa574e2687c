//! Deterministic chaos harness: every pipeline the paper exercises must
//! return fault-free results while a seeded [`FaultPlan`] kills,
//! delays or transiently fails tasks underneath it.
//!
//! The property tests draw injector seeds, fault rates, policies *and
//! whether speculative execution races duplicates* from proptest; the
//! end-to-end tests run the A1 pruning pipeline under a fixed 10%
//! transient fault rate, and under a delay-heavy straggler rate with
//! speculation enabled. Set `STARK_CHAOS_SEED=<u64>` to replay the
//! end-to-end tests with a different injector seed (CI pins one, so
//! failures reproduce locally with a single env var).

use proptest::prelude::*;
use stark::{GridPartitioner, JoinConfig, STObject, STPredicate, SpatialRdd, SpatialRddExt};
use stark_engine::{Context, EngineConfig, Fault, FaultPlan, FaultRule, ObjectStore, Scope};
use stark_eventsim::EventGenerator;
use stark_geo::{DistanceFn, Envelope};
use std::sync::Arc;
use std::time::Duration;

const DEFAULT_CHAOS_SEED: u64 = 0xC4A05;

/// Injector seed for the end-to-end test: `STARK_CHAOS_SEED` when set
/// (the CI chaos job pins it), else a fixed default. The bool reports
/// whether the seed was overridden.
fn chaos_seed() -> (u64, bool) {
    match std::env::var("STARK_CHAOS_SEED") {
        Ok(s) => (s.trim().parse().expect("STARK_CHAOS_SEED must be a u64"), true),
        Err(_) => (DEFAULT_CHAOS_SEED, false),
    }
}

fn chaos_ctx(injector: Option<Arc<FaultPlan>>) -> Context {
    chaos_ctx_spec(injector, false)
}

/// Like [`chaos_ctx`], with speculative execution optionally enabled —
/// the retry and result invariants must hold either way. Set
/// `STARK_MEMORY_BUDGET=<bytes>` to cap the context's memory budget
/// (the CI memory-chaos job pins a tight one), so every invariant in
/// this file is additionally exercised under spill-and-evict pressure.
fn chaos_ctx_spec(injector: Option<Arc<FaultPlan>>, speculate: bool) -> Context {
    let memory_budget = std::env::var("STARK_MEMORY_BUDGET")
        .ok()
        .map(|s| s.trim().parse().expect("STARK_MEMORY_BUDGET must be a u64"));
    Context::with_config(EngineConfig {
        parallelism: 4,
        max_task_retries: 3,
        fault_injector: injector,
        speculation: speculate,
        speculation_quantile: 0.5,
        speculation_multiplier: 1.5,
        memory_budget,
        ..Default::default()
    })
}

/// A recoverable injector drawn from proptest inputs. Returns the
/// injector and whether its policy triggers retries (Delay injects
/// latency and MemoryPressure shrinks the effective budget; neither
/// fails the task).
fn drawn_injector(seed: u64, rate: f64, policy_sel: u8) -> (Arc<FaultPlan>, bool) {
    let rule = |fault| FaultRule::new(fault, Scope::Probability(rate));
    let (rule, retries) = match policy_sel {
        0 => (rule(Fault::Transient), true),
        1 => (FaultRule { attempts: 2, ..rule(Fault::Transient) }, true),
        // shrink the effective budget to ~16 KiB mid-job: shuffles
        // spill and caches evict, but no task may fail
        2 => (rule(Fault::MemoryPressure(16 * 1024)), false),
        _ => (rule(Fault::Delay(Duration::from_micros(50))), false),
    };
    (Arc::new(FaultPlan::new(seed, vec![rule])), retries)
}

/// Retry bookkeeping that holds for every recoverable policy: transient
/// faults retry once per injection, delays never retry, and nothing
/// fails permanently.
fn assert_retry_invariants(ctx: &Context, chaos: &FaultPlan, retries_expected: bool) {
    let m = ctx.metrics();
    assert_eq!(m.tasks_failed_permanently, 0, "recoverable faults must never exhaust retries");
    if retries_expected {
        assert_eq!(
            m.tasks_retried,
            chaos.injected(),
            "every injected transient fault costs exactly one retry"
        );
        assert_eq!(m.partitions_recomputed, m.tasks_retried);
    } else {
        assert_eq!(m.tasks_retried, 0, "delays must not trigger retries");
    }
}

fn space() -> Envelope {
    Envelope::from_bounds(0.0, 0.0, 100.0, 100.0)
}

fn dataset(n: usize, seed: u64) -> Vec<(STObject, (u64, String))> {
    EventGenerator::new(seed)
        .clustered_points(n, 6, 3.0, &space())
        .into_iter()
        .map(|e| e.to_pair())
        .collect()
}

fn grid_partitioned(
    ctx: &Context,
    data: Vec<(STObject, (u64, String))>,
    parts: usize,
    dims: usize,
) -> SpatialRdd<(u64, String)> {
    let srdd = ctx.parallelize(data, parts).spatial();
    let summary = srdd.summarize();
    srdd.partition_by(Arc::new(GridPartitioner::build(dims, &summary)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// collect under injected faults is the identity, same as fault-free.
    #[test]
    fn collect_is_fault_oblivious(
        fault_seed in any::<u64>(),
        rate in 0.02f64..0.5,
        policy_sel in 0u8..4,
        speculate in any::<bool>(),
        data in proptest::collection::vec(any::<i32>(), 1..400),
        parts in 1usize..9,
    ) {
        let (chaos, retries_expected) = drawn_injector(fault_seed, rate, policy_sel);
        let ctx = chaos_ctx_spec(Some(Arc::clone(&chaos)), speculate);
        let got = ctx.parallelize(data.clone(), parts).map(|x| x as i64 * 7 - 3).collect();
        let expect: Vec<i64> = data.iter().map(|&x| x as i64 * 7 - 3).collect();
        prop_assert_eq!(got, expect);
        assert_retry_invariants(&ctx, &chaos, retries_expected);
    }

    /// partition_by (a full shuffle) preserves the multiset under faults.
    #[test]
    fn shuffle_is_fault_oblivious(
        fault_seed in any::<u64>(),
        rate in 0.02f64..0.5,
        policy_sel in 0u8..4,
        speculate in any::<bool>(),
        data in proptest::collection::vec(any::<i32>(), 1..300),
        dst_parts in 1usize..9,
    ) {
        let (chaos, retries_expected) = drawn_injector(fault_seed, rate, policy_sel);
        let ctx = chaos_ctx_spec(Some(Arc::clone(&chaos)), speculate);
        let r = ctx
            .parallelize(data.clone(), 4)
            .partition_by(dst_parts, |x| x.unsigned_abs() as usize);
        let mut got = r.collect();
        let mut expect = data;
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
        assert_retry_invariants(&ctx, &chaos, retries_expected);
    }

    /// A budget far smaller than a cached dataset forces pressure
    /// eviction mid-job while a transient injector retries tasks
    /// underneath: the output must stay identical to the unbounded
    /// fault-free run, every eviction must be accounted, and evicted
    /// partitions must recompute from lineage on later reads.
    #[test]
    fn cache_eviction_under_pressure_is_output_invariant(
        fault_seed in any::<u64>(),
        rate in 0.02f64..0.3,
        data in proptest::collection::vec(any::<i32>(), 64..400),
    ) {
        let expect: Vec<i64> = data.iter().map(|&x| x as i64 * 11 + 5).collect();
        // a third of the cached dataset (8 bytes per mapped element)
        let budget = ((data.len() * 8) as u64 / 3).max(64);
        let chaos = Arc::new(FaultPlan::new(fault_seed, vec![FaultRule::new(Fault::Transient, Scope::Probability(rate))]));
        let ctx = Context::with_config(EngineConfig {
            parallelism: 4,
            max_task_retries: 3,
            fault_injector: Some(Arc::clone(&chaos)),
            memory_budget: Some(budget),
            ..Default::default()
        });
        let cached = ctx.parallelize(data, 8).map(|x| x as i64 * 11 + 5).cache();
        prop_assert_eq!(cached.collect(), expect.clone());
        prop_assert_eq!(cached.collect(), expect, "evicted partitions must recompute identically");
        let m = ctx.metrics();
        prop_assert!(
            m.partitions_evicted_for_pressure > 0,
            "a third of the dataset cannot cache without evictions: {:?}", m
        );
        prop_assert!(m.bytes_reserved_peak <= budget + (400 * 8),
            "pressure may overshoot by at most one partition: {:?}", m);
        assert_retry_invariants(&ctx, &chaos, true);
    }

    /// The partitioned spatial join returns the fault-free pair set —
    /// through the STR-tree (`intersects`) and the point grid kernel
    /// (`withinDistance`), collected and counted (the count never builds
    /// its pairs, but runs through the same retrying executor).
    #[test]
    fn spatial_join_is_fault_oblivious(
        fault_seed in any::<u64>(),
        rate in 0.02f64..0.4,
        policy_sel in 0u8..4,
        speculate in any::<bool>(),
        data_seed in 0u64..1000,
    ) {
        let pair_ids = |ctx: &Context| {
            let part = grid_partitioned(ctx, dataset(250, data_seed), 5, 4);
            let right = ctx.parallelize(dataset(200, data_seed + 1), 4).spatial();
            let mut out = Vec::new();
            for pred in [STPredicate::Intersects, STPredicate::within_distance(4.0)] {
                let joined = part.join(&right, pred, JoinConfig::live_index(4));
                let mut ids: Vec<(u64, u64)> = joined
                    .collect()
                    .into_iter()
                    .map(|((_, (l, _)), (_, (r, _)))| (l, r))
                    .collect();
                ids.sort_unstable();
                assert_eq!(joined.count(), ids.len(), "{pred}: count vs collect");
                out.push(ids);
            }
            out
        };
        let expect = pair_ids(&chaos_ctx(None));
        let (chaos, retries_expected) = drawn_injector(fault_seed, rate, policy_sel);
        let ctx = chaos_ctx_spec(Some(Arc::clone(&chaos)), speculate);
        prop_assert_eq!(pair_ids(&ctx), expect);
        assert_retry_invariants(&ctx, &chaos, retries_expected);
    }

    /// kNN through the partitioned path returns bitwise-equal distances
    /// and the same neighbour ids under faults.
    #[test]
    fn knn_is_fault_oblivious(
        fault_seed in any::<u64>(),
        rate in 0.02f64..0.4,
        policy_sel in 0u8..4,
        speculate in any::<bool>(),
        data_seed in 0u64..1000,
    ) {
        let neighbours = |ctx: &Context| {
            let part = grid_partitioned(ctx, dataset(600, data_seed), 6, 4);
            part.knn(&STObject::point(50.0, 50.0), 15, DistanceFn::Euclidean)
                .into_iter()
                .map(|(d, (_, (id, _)))| (d.to_bits(), id))
                .collect::<Vec<(u64, u64)>>()
        };
        let expect = neighbours(&chaos_ctx(None));
        let (chaos, retries_expected) = drawn_injector(fault_seed, rate, policy_sel);
        let ctx = chaos_ctx_spec(Some(Arc::clone(&chaos)), speculate);
        prop_assert_eq!(neighbours(&ctx), expect);
        assert_retry_invariants(&ctx, &chaos, retries_expected);
    }
}

/// The A1 pruning pipeline (grid(8) partitioning + containedBy filter)
/// serialised to JSON bytes — "byte-identical" is literal here.
fn a1_result_bytes(ctx: &Context, checkpoint: Option<&ObjectStore>) -> Vec<u8> {
    let part = grid_partitioned(ctx, dataset(3000, 77), 8, 8);
    let query =
        STObject::from_wkt_interval("POLYGON((20 20, 70 20, 70 70, 20 70, 20 20))", 0, 1 << 40)
            .unwrap();
    let collected = match checkpoint {
        None => part.filter(&query, STPredicate::ContainedBy).collect(),
        Some(store) => {
            // mid-pipeline checkpoint: persist the shuffled layout, then
            // resume the pipeline from the truncated lineage
            let cp = part.rdd().checkpoint(store, "a1-mid").expect("checkpoint write failed");
            assert!(
                cp.explain().starts_with("Checkpoint["),
                "checkpoint must truncate lineage, got {}",
                cp.explain()
            );
            cp.spatial().filter(&query, STPredicate::ContainedBy).collect()
        }
    };
    serde_json::to_vec(&collected).expect("result must serialise")
}

/// End-to-end: the full A1 pipeline under a seeded 10% task-failure
/// rate returns byte-identical results to a clean run — with and
/// without a mid-pipeline checkpoint.
#[test]
fn a1_pipeline_chaos_run_is_byte_identical() {
    let (seed, overridden) = chaos_seed();
    let clean = a1_result_bytes(&chaos_ctx(None), None);
    assert!(!clean.is_empty());

    // chaos, recovery purely via lineage recomputation
    let chaos = Arc::new(FaultPlan::transient(seed, 0.10));
    let ctx = chaos_ctx(Some(Arc::clone(&chaos)));
    let faulty = a1_result_bytes(&ctx, None);
    assert_eq!(clean, faulty, "chaos run diverged from the clean run (seed {seed})");
    if !overridden {
        assert!(chaos.injected() > 0, "default seed must actually inject faults");
    }
    assert_retry_invariants(&ctx, &chaos, true);

    // chaos again, with a mid-pipeline checkpoint absorbing the lineage
    let dir = std::env::temp_dir().join(format!("stark-chaos-{}", std::process::id()));
    let store = ObjectStore::open(dir.join("store")).expect("object store");
    let chaos_ck = Arc::new(FaultPlan::transient(seed, 0.10));
    let ctx_ck = chaos_ctx(Some(Arc::clone(&chaos_ck)));
    let faulty_ck = a1_result_bytes(&ctx_ck, Some(&store));
    assert_eq!(clean, faulty_ck, "checkpointed chaos run diverged (seed {seed})");
    assert_retry_invariants(&ctx_ck, &chaos_ck, true);
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end straggler run: the A1 pipeline under a delay-heavy fault
/// rate (20% of first attempts stall 40ms) with speculative execution
/// racing duplicates against the stragglers. Speculation must not
/// change a byte of the output, must not masquerade as retries, and —
/// under the default seed — must actually fire and win.
#[test]
fn a1_pipeline_with_speculation_stays_byte_identical() {
    let (seed, _) = chaos_seed();
    let clean = a1_result_bytes(&chaos_ctx(None), None);

    let chaos = Arc::new(FaultPlan::new(
        seed,
        vec![FaultRule::new(Fault::Delay(Duration::from_millis(40)), Scope::Probability(0.20))],
    ));
    let ctx = chaos_ctx_spec(Some(Arc::clone(&chaos)), true);
    let speculative = a1_result_bytes(&ctx, None);
    assert_eq!(clean, speculative, "speculative chaos run diverged (seed {seed})");

    let m = ctx.metrics();
    assert_retry_invariants(&ctx, &chaos, false);
    assert_eq!(m.deadline_exceeded_jobs, 0);
    if seed == DEFAULT_CHAOS_SEED {
        assert!(chaos.injected() > 0, "default seed must actually stall tasks");
        assert!(m.tasks_speculated >= 1, "a 40ms stall must look straggly: {m:?}");
        assert!(m.speculative_wins >= 1, "an unstalled duplicate must win: {m:?}");
        assert!(m.tasks_cancelled >= 1, "the losing original must be cancelled: {m:?}");
    }
}
