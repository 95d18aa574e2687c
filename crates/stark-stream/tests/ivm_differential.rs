//! Differential pinning of the incremental view-maintenance path: for
//! any randomly generated event stream — out-of-order timestamps, late
//! arrivals beyond the allowed lateness, scripted shed batches,
//! mid-stream retractions (including retractions of records that were
//! shed and never delivered), transient engine faults — the incremental
//! pipeline must produce byte-identical per-window results, the same
//! standing join state after every batch, the same standing-query
//! results, and the same watermark as the recompute pipeline.
//!
//! Shedding is *scripted* (pre-applied to the generated delta script)
//! rather than raced through the live `ShedPolicy` machinery, so both
//! runs consume the identical byte stream and the comparison is exact;
//! the live-shedding accounting invariants are covered by a separate
//! deterministic-invariant test below. Fault injection reuses the
//! `STARK_CHAOS_SEED` convention: transient faults strike the recompute
//! path's engine jobs within the task retry budget, so they recover —
//! and the output must still match the untouched incremental run.

use proptest::prelude::*;
use stark::{DataSummary, GridPartitioner, STObject, STPredicate, SpatialPartitioner};
use stark_engine::{Context, EngineConfig, FaultPlan};
use stark_geo::{Coord, Envelope};
use stark_stream::{
    ContinuousQueryEngine, Delta, DeltaVecSource, GeneratorSource, JoinEmission, JoinSpec,
    LatePolicy, MemorySink, MemorySinkState, PipelineMode, QueryOutput, ShedPolicy, Sink, Source,
    StandingQuery, StatelessOp, StreamConfig, StreamContext, StreamJob, StreamReport, WindowSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const LATENESS: i64 = 60;

fn space() -> Envelope {
    Envelope::from_bounds(0.0, 0.0, 100.0, 100.0)
}

fn partitioner() -> Arc<dyn SpatialPartitioner> {
    let summary: DataSummary = [(0.0, 0.0), (100.0, 100.0)]
        .iter()
        .map(|&(x, y)| (Envelope::from_point(Coord::new(x, y)), Coord::new(x, y)))
        .collect();
    Arc::new(GridPartitioner::build(4, &summary))
}

fn chaos_seed() -> u64 {
    std::env::var("STARK_CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(805_381)
}

/// One generated record: position, jitter (can exceed the allowed
/// lateness → genuinely late), whether to retract it two batches after
/// delivery, and a shed-control byte.
type RawEvent = (f64, f64, u8, bool, u8);

/// Turns the raw proptest tuples into a delta script: inserts chunked
/// into batches with scripted shedding applied (whole-batch drops and
/// every-2nd thinning), and retractions scheduled two batches after
/// each flagged record's delivery — *whether or not* its insert
/// survived shedding, so retract-of-never-delivered stays exercised.
fn build_script(raw: &[RawEvent], batch_size: usize) -> Vec<Delta<u64>> {
    let records: Vec<(STObject, u64)> = raw
        .iter()
        .enumerate()
        .map(|(i, (x, y, jit, _, _))| {
            let t = i as i64 * 20 - *jit as i64;
            (STObject::point_at(*x, *y, t), i as u64)
        })
        .collect();
    let chunks: Vec<&[(STObject, u64)]> = records.chunks(batch_size).collect();
    let n_batches = chunks.len();
    let mut script: Vec<Delta<u64>> = Vec::with_capacity(n_batches);
    for (b, chunk) in chunks.iter().enumerate() {
        let shed_code = raw[b * batch_size].4 % 8;
        let inserts: Vec<(STObject, u64)> = match shed_code {
            0 => Vec::new(), // whole batch shed
            1 => chunk.iter().step_by(2).cloned().collect(),
            _ => chunk.to_vec(),
        };
        script.push(Delta::from_inserts(inserts));
    }
    for (i, (_, _, _, retract, _)) in raw.iter().enumerate() {
        if !retract {
            continue;
        }
        let delivered_in = i / batch_size;
        let at = (delivered_in + 2).min(n_batches - 1);
        script[at].retracts.push(records[i].clone());
    }
    script
}

/// Comparable join pair: record values are unique per event, so the
/// value pair identifies the joined records exactly.
fn pair_key(pair: &((STObject, u64), (STObject, u64))) -> (u64, u64) {
    ((pair.0).1, (pair.1).1)
}

fn sorted_query_values(out: &QueryOutput<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = match out {
        QueryOutput::Matches(m) => m.iter().map(|(_, v)| *v).collect(),
        QueryOutput::Neighbors(n) => n.iter().map(|(_, (_, v))| *v).collect(),
    };
    v.sort_unstable();
    v
}

struct RunConfig {
    sliding: bool,
    side_output: bool,
    inject_faults: bool,
    lateness: i64,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { sliding: false, side_output: false, inject_faults: false, lateness: LATENESS }
    }
}

/// Runs one pipeline over the script and returns its report + sink.
fn run_pipeline(
    mode: PipelineMode,
    script: &[Delta<u64>],
    cfg: &RunConfig,
) -> (StreamReport, MemorySinkState<u64>) {
    let engine = if cfg.inject_faults {
        // Transient faults within the engine's own task retry budget:
        // the recompute path's pane-aggregation jobs get struck and
        // recover; the incremental path runs no engine jobs at all.
        Context::with_config(EngineConfig {
            parallelism: 2,
            max_task_retries: 3,
            fault_injector: Some(Arc::new(FaultPlan::transient(chaos_seed(), 0.3))),
            ..Default::default()
        })
    } else {
        Context::with_parallelism(2)
    };
    let sc = StreamContext::with_config(
        engine,
        StreamConfig {
            batch_records: 64,
            channel_capacity: 2,
            parallelism: 2,
            max_batch_retries: 2,
            ..Default::default()
        },
    );
    let spec = if cfg.sliding { WindowSpec::sliding(100, 50) } else { WindowSpec::tumbling(100) };
    let policy = if cfg.side_output { LatePolicy::SideOutput } else { LatePolicy::Drop };
    let region =
        STObject::from_wkt_interval("POLYGON((5 5, 95 5, 95 95, 5 95, 5 5))", -10_000, 1 << 40)
            .unwrap();
    let join = JoinSpec::new(
        "near-pairs",
        Arc::new(|_: &STObject, v: &u64| v.is_multiple_of(2)),
        Arc::new(|_: &STObject, v: &u64| !v.is_multiple_of(2)),
        STPredicate::within_distance(10.0),
        partitioner(),
        8,
    );
    let sink = MemorySink::new();
    let job = StreamJob::new()
        .with_mode(mode)
        .with_op(StatelessOp::filter(region.clone(), STPredicate::Intersects))
        .with_op(StatelessOp::map(|o, v: u64| (o, v.wrapping_add(1000))))
        .with_windows(spec, cfg.lateness, policy)
        .with_grid_aggregation(4, space())
        .with_join(join)
        .with_queries(
            ContinuousQueryEngine::indexed(partitioner(), 8)
                .with_query(StandingQuery::filter("region", region, STPredicate::Intersects))
                .with_query(StandingQuery::within_distance(
                    "near-center",
                    STObject::point(50.0, 50.0),
                    20.0,
                )),
        )
        .with_sink(sink.clone());
    let report = sc.run(DeltaVecSource::new(script.to_vec()), job);
    let state = sink.state().clone();
    (report, state)
}

/// The accumulated standing join result after each batch, derived from
/// whatever the pipeline emitted (full re-emissions replace, deltas
/// apply), as sorted multisets of value pairs.
fn standing_join_by_batch(state: &MemorySinkState<u64>) -> Vec<(u64, Vec<(u64, u64)>)> {
    let mut standing: Vec<(u64, u64)> = Vec::new();
    let mut out = Vec::new();
    for (batch, emission) in &state.joins {
        match emission {
            JoinEmission::Full(pairs) => {
                standing = pairs.iter().map(pair_key).collect();
            }
            JoinEmission::Delta { inserts, retracts } => {
                for r in retracts {
                    let key = pair_key(r);
                    let i = standing
                        .iter()
                        .position(|k| *k == key)
                        .expect("incremental join retracted a pair that was never asserted");
                    standing.swap_remove(i);
                }
                standing.extend(inserts.iter().map(pair_key));
            }
        }
        let mut snapshot = standing.clone();
        snapshot.sort_unstable();
        out.push((*batch, snapshot));
    }
    out
}

fn assert_equivalent(
    rec: &(StreamReport, MemorySinkState<u64>),
    inc: &(StreamReport, MemorySinkState<u64>),
) {
    let (rec_report, rec_state) = rec;
    let (inc_report, inc_state) = inc;

    // identical stream-level accounting
    assert_eq!(rec_report.total_records(), inc_report.total_records());
    assert_eq!(rec_report.late_dropped(), inc_report.late_dropped());
    assert_eq!(rec_report.records_retracted(), inc_report.records_retracted());
    assert_eq!(rec_report.final_watermark, inc_report.final_watermark);
    assert_eq!(rec_report.batches_failed(), 0, "transient faults must recover");
    assert_eq!(inc_report.batches_failed(), 0);

    // byte-identical per-window output, in firing order
    assert_eq!(rec_state.windows.len(), inc_state.windows.len(), "window count differs");
    for (r, i) in rec_state.windows.iter().zip(&inc_state.windows) {
        assert_eq!((r.start, r.end, r.count), (i.start, i.end, i.count));
        assert_eq!(r.grid, i.grid, "grid cells differ for window [{}, {})", r.start, r.end);
        assert_eq!(r.hotspot_clusters, i.hotspot_clusters);
    }

    // same late side-output, in arrival order
    let late = |s: &MemorySinkState<u64>| s.late.iter().map(|(_, v)| *v).collect::<Vec<_>>();
    assert_eq!(late(rec_state), late(inc_state));

    // the standing join agrees after every single batch
    assert_eq!(standing_join_by_batch(rec_state), standing_join_by_batch(inc_state));

    // standing queries agree per batch
    assert_eq!(rec_state.query_results.len(), inc_state.query_results.len());
    for ((rb, rres), (ib, ires)) in rec_state.query_results.iter().zip(&inc_state.query_results) {
        assert_eq!(rb, ib);
        assert_eq!(rres.len(), ires.len());
        for (r, i) in rres.iter().zip(ires) {
            assert_eq!(r.name, i.name);
            assert_eq!(sorted_query_values(&r.output), sorted_query_values(&i.output));
        }
    }

    // the pure-recompute path must never emit corrections: any nonzero
    // count would be silent double-emission
    assert_eq!(rec_report.retractions_emitted(), 0);
    assert!(rec_state.retractions.is_empty());
    // incremental expiry retractions: exactly one per expired window,
    // each matching an emitted window aggregate
    let expired = inc_state.retractions.len();
    let mut starts: Vec<i64> = inc_state.retractions.iter().map(|r| r.start).collect();
    starts.sort_unstable();
    starts.dedup();
    assert_eq!(starts.len(), expired, "duplicate retraction for a window");
    for r in &inc_state.retractions {
        let w = inc_state
            .windows
            .iter()
            .find(|w| w.start == r.start && w.end == r.end)
            .expect("retraction without a matching window emission");
        assert_eq!(w.count, r.count);
    }
    let join_retracts: u64 = inc_state.joins.iter().map(|(_, e)| e.retracted() as u64).sum();
    assert_eq!(inc_report.retractions_emitted(), expired as u64 + join_retracts);
}

fn events_strategy() -> impl Strategy<Value = Vec<RawEvent>> {
    proptest::collection::vec(
        (0.0..100.0f64, 0.0..100.0f64, 0u8..90, any::<bool>(), any::<u8>()),
        24..160,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_equals_recompute(
        raw in events_strategy(),
        batch_size in 4usize..24,
        sliding in any::<bool>(),
        side_output in any::<bool>(),
        inject_faults in any::<bool>(),
    ) {
        let script = build_script(&raw, batch_size);
        let cfg = RunConfig { sliding, side_output, inject_faults, ..RunConfig::default() };
        let rec = run_pipeline(PipelineMode::Recompute, &script, &cfg);
        let inc = run_pipeline(PipelineMode::Incremental, &script, &cfg);
        assert_equivalent(&rec, &inc);
    }
}

/// A hand-written worst-case script: duplicate records, a retraction of
/// a record that was never delivered, a duplicate retraction, and a
/// late retraction — every no-op edge the membership checks guard.
#[test]
fn retraction_edge_cases_agree() {
    let rec_at = |t: i64, v: u64| (STObject::point_at(50.0, 50.0, t), v);
    let script: Vec<Delta<u64>> = vec![
        // twins: two records equal in every component
        Delta::from_inserts(vec![rec_at(10, 1), rec_at(10, 1), rec_at(30, 2)]),
        // retract one twin only; retract a record never delivered
        Delta::new(vec![rec_at(250, 3)], vec![rec_at(10, 1), rec_at(15, 99)]),
        // duplicate retraction of the already-retracted twin, plus a
        // retraction that is now late (watermark has advanced past it)
        Delta::new(vec![rec_at(500, 4)], vec![rec_at(10, 1), rec_at(30, 2)]),
        Delta::from_inserts(vec![rec_at(700, 5)]),
    ];
    let cfg = RunConfig::default();
    let rec = run_pipeline(PipelineMode::Recompute, &script, &cfg);
    let inc = run_pipeline(PipelineMode::Incremental, &script, &cfg);
    assert_equivalent(&rec, &inc);
    // window [0, 100) keeps the surviving twin AND record 2: the batch-3
    // retraction of rec(30, 2) arrives behind watermark 190 and is
    // discarded as late by both paths
    let w0 = inc.1.windows.iter().find(|w| w.start == 0).expect("window [0,100) fired");
    assert_eq!(w0.count, 2, "one twin retracted; the other twin and record 2 survive");
}

/// A standing join alone over an insert-only drifting-hotspot stream
/// (the shape the `stream` benchmark workload replays): both modes hold
/// the same non-empty pairs after every batch, and neither ever emits a
/// retraction.
#[test]
fn insert_only_join_agrees_without_retractions() {
    let mut source = GeneratorSource::new(42, space(), 6, 1_000, 250).with_drifting_hotspot(0.25);
    let mut script: Vec<Delta<u64>> = Vec::new();
    while let Some(batch) = source.next_batch(300) {
        script.push(Delta::from_inserts(batch.into_iter().map(|(o, (id, _))| (o, id)).collect()));
    }
    let run = |mode: PipelineMode| {
        let sc = StreamContext::with_config(
            Context::with_parallelism(2),
            StreamConfig {
                batch_records: 300,
                channel_capacity: 2,
                parallelism: 2,
                ..Default::default()
            },
        );
        let join = JoinSpec::new(
            "near-pairs",
            Arc::new(|_: &STObject, v: &u64| v.is_multiple_of(2)),
            Arc::new(|_: &STObject, v: &u64| !v.is_multiple_of(2)),
            STPredicate::within_distance(1.0),
            partitioner(),
            8,
        );
        let sink = MemorySink::new();
        let job = StreamJob::new().with_mode(mode).with_join(join).with_sink(sink.clone());
        let report = sc.run(DeltaVecSource::new(script.clone()), job);
        let state = sink.state().clone();
        (report, state)
    };
    let (rec_report, rec_state) = run(PipelineMode::Recompute);
    let (inc_report, inc_state) = run(PipelineMode::Incremental);

    assert_eq!(rec_report.total_records(), 1_800);
    assert_eq!(inc_report.total_records(), 1_800);
    let standing = standing_join_by_batch(&inc_state);
    assert_eq!(standing_join_by_batch(&rec_state), standing);
    assert!(standing.last().is_some_and(|(_, pairs)| !pairs.is_empty()), "the join found no pairs");
    for (report, state) in [(&rec_report, &rec_state), (&inc_report, &inc_state)] {
        assert_eq!(report.retractions_emitted(), 0, "insert-only stream");
        assert!(state.joins.iter().all(|(_, e)| e.retracted() == 0));
    }
}

/// Long retention: every batch retracts the batch [`LONG_RETENTION`]
/// back, the shape of the `stream` benchmark's retention ring (6
/// batches there), so the standing join and query state carry sixty
/// batches and each batch both grows and shrinks it. With the default
/// lateness the retractions arrive late for the windows and only the
/// join and the queries apply them; with a lateness wider than the
/// stream they reach open windows too. Recompute runs under the seeded
/// transient faults.
#[test]
fn sixty_batch_retention_agrees_with_recompute() {
    const LONG_RETENTION: usize = 60;
    let mut script: Vec<Delta<u64>> = Vec::new();
    let mut ring: std::collections::VecDeque<Vec<(STObject, u64)>> = Default::default();
    for b in 0..LONG_RETENTION as u64 + 20 {
        let inserts: Vec<(STObject, u64)> = (0..6)
            .map(|i| {
                let k = b * 6 + i;
                let (x, y) = ((k * 37 % 97) as f64 + 1.5, (k * 61 % 89) as f64 + 2.5);
                (STObject::point_at(x, y, k as i64 * 20 - (k * 7 % 50) as i64), k)
            })
            .collect();
        ring.push_back(inserts.clone());
        let retracts = if ring.len() > LONG_RETENTION {
            ring.pop_front().unwrap_or_default()
        } else {
            Vec::new()
        };
        script.push(Delta::new(inserts, retracts));
    }
    for lateness in [LATENESS, 1_000_000] {
        let cfg =
            RunConfig { sliding: true, inject_faults: true, lateness, ..RunConfig::default() };
        let rec = run_pipeline(PipelineMode::Recompute, &script, &cfg);
        let inc = run_pipeline(PipelineMode::Incremental, &script, &cfg);
        assert_equivalent(&rec, &inc);
        assert!(
            inc.1.joins.iter().any(|(_, e)| e.retracted() > 0),
            "the retention ring must retract joined pairs"
        );
        if lateness > LATENESS {
            assert!(inc.0.records_retracted() > 0, "retractions must reach open windows");
        }
    }
}

/// Live shedding on the incremental path: nondeterministic races make a
/// cross-path comparison impossible, so pin the accounting invariants
/// instead — every record is shed, windowed, or late; no retraction
/// accounting appears for an insert-only stream.
#[test]
fn incremental_path_accounts_for_live_shedding() {
    struct SlowSink(Duration);
    impl Sink<(u64, String)> for SlowSink {
        fn on_batch(&mut self, _m: &stark_stream::BatchMetrics) {
            std::thread::sleep(self.0);
        }
    }
    let sc = StreamContext::with_config(
        Context::with_parallelism(2),
        StreamConfig {
            batch_records: 100,
            channel_capacity: 2,
            parallelism: 2,
            shed_policy: ShedPolicy::Sample { keep_1_in_n: 4 },
            shed_lag_threshold: Some(1),
            ..Default::default()
        },
    );
    let source = stark_stream::GeneratorSource::new(17, space(), 12, 100, 0);
    let sink = MemorySink::new();
    let job = StreamJob::new()
        .incremental()
        .with_windows(WindowSpec::tumbling(250), 10_000, LatePolicy::Drop)
        .with_grid_aggregation(4, space())
        .with_sink(sink.clone())
        .with_sink(SlowSink(Duration::from_millis(15)));
    let report = sc.run(source, job);

    let windowed: u64 = sink.state().windows.iter().map(|w| w.count).sum();
    assert_eq!(report.total_records(), 1200 - report.records_shed);
    assert_eq!(windowed, 1200 - report.records_shed, "shed + windowed must cover every record");
    assert!(report.records_shed > 0, "a 15ms/batch consumer must saturate and shed");
    assert_eq!(report.records_retracted(), 0, "insert-only stream");
    let marks: Vec<i64> = report.batches.iter().filter_map(|b| b.watermark).collect();
    assert!(marks.windows(2).all(|w| w[0] <= w[1]), "watermark regressed: {marks:?}");
    // grid totals match pane counts on the maintained aggregates too
    for w in sink.state().windows.iter() {
        let grid_total: u64 = w.grid.iter().map(|c| c.count).sum();
        assert_eq!(grid_total, w.count);
    }
}

/// Scripted-shedding equivalence across every `ShedPolicy` shape: the
/// script pre-applies DropOldest-style whole-batch drops and
/// Sample-style thinning, so the differential property above already
/// covers them; this pins one deterministic instance of each
/// explicitly, with retractions aimed at the shed records.
#[test]
fn scripted_shed_variants_agree() {
    let raw: Vec<RawEvent> = (0..96)
        .map(|i| {
            let x = (i * 37 % 100) as f64;
            let y = (i * 61 % 100) as f64;
            // shed codes cycle: batch drops, thinning, and clean batches
            (x, y, (i % 5) as u8 * 20, i % 3 == 0, (i % 8) as u8)
        })
        .collect();
    for batch_size in [6usize, 12] {
        let script = build_script(&raw, batch_size);
        let shed_any = script.iter().any(|d| d.inserts.is_empty() && !d.retracts.is_empty())
            || script.iter().any(|d| d.inserts.len() < batch_size);
        assert!(shed_any, "script must actually shed something");
        let cfg = RunConfig { sliding: true, side_output: true, ..RunConfig::default() };
        let rec = run_pipeline(PipelineMode::Recompute, &script, &cfg);
        let inc = run_pipeline(PipelineMode::Incremental, &script, &cfg);
        assert_equivalent(&rec, &inc);
        assert!(
            rec.0.records_retracted() > 0,
            "retractions of delivered records must actually apply"
        );
    }
}

/// Both execution paths agree with a BTreeMap oracle computed offline
/// from the script: the per-window surviving-record counts.
#[test]
fn both_paths_agree_with_offline_oracle() {
    let raw: Vec<RawEvent> = (0..120)
        .map(|i| (((i * 13) % 100) as f64, ((i * 29) % 100) as f64, 0, i % 4 == 0, 2))
        .collect();
    let script = build_script(&raw, 10);
    // a lateness wider than the whole stream keeps every 2-batch-delayed
    // retraction timely, so the oracle can apply retracts unconditionally
    let cfg = RunConfig { lateness: 1_000_000, ..RunConfig::default() };
    let inc = run_pipeline(PipelineMode::Incremental, &script, &cfg);
    let rec = run_pipeline(PipelineMode::Recompute, &script, &cfg);
    assert_equivalent(&rec, &inc);

    // offline oracle: jitter 0 → nothing late; replay the script's
    // inserts minus its retracts (the op-chain filter keeps everything
    // inside (5,95), map shifts values only), count per tumbling window
    let region = Envelope::from_bounds(5.0, 5.0, 95.0, 95.0);
    let mut surviving: Vec<(STObject, u64)> = Vec::new();
    for d in &script {
        for r in &d.retracts {
            if let Some(i) = surviving.iter().position(|(o, v)| o == &r.0 && *v == r.1) {
                surviving.remove(i);
            }
        }
        surviving.extend(d.inserts.iter().cloned());
    }
    let mut want: BTreeMap<i64, u64> = BTreeMap::new();
    for (o, _) in &surviving {
        let c = o.centroid();
        if region.contains_coord(&c) {
            let t = stark_stream::event_time(o).unwrap();
            *want.entry(t.div_euclid(100) * 100).or_insert(0) += 1;
        }
    }
    want.retain(|_, n| *n > 0);
    let got: BTreeMap<i64, u64> =
        inc.1.windows.iter().filter(|w| w.count > 0).map(|w| (w.start, w.count)).collect();
    assert_eq!(got, want);
}
