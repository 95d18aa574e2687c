//! The experiments of the paper's evaluation (and of the `spatialbm`
//! micro benchmark suite it points to), each regenerating one table or
//! figure. See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.

use crate::table::{secs, timed, Table};
use crate::workloads::{self, Payload};
use stark::cluster::{dbscan, dbscan_local, DbscanParams};
use stark::{
    balance_stats, BspPartitioner, GridPartitioner, IndexedSpatialRdd, JoinConfig, STPredicate,
    SpatialPartitioner, SpatialRddExt,
};
use stark_baselines::{
    broadcast_join, geospark_join, spatialspark_join, GeoSparkConfig, RegionScheme,
};
use stark_engine::{
    Context, EngineConfig, Fault, FaultPlan, FaultRule, ObjectStore, Scope, TaskError,
};
use stark_geo::{Coord, DistanceFn};
use std::sync::Arc;

/// F4 — Figure 4: self-join execution time per system, without
/// partitioning and with each system's best partitioner (GeoSpark:
/// Voronoi, SpatialSpark: Tile, STARK: BSP).
pub fn figure4(ctx: &Context, n: usize) -> Table {
    let mut t = Table::new(
        format!("Figure 4: self-join, {n} points (execution time [s])"),
        &["system", "no partitioning [s]", "best partitioner", "partitioned [s]", "results"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let data = workloads::figure4_points(ctx, n, parts).cache();
    data.count(); // materialise input outside the timings
    let pred = STPredicate::Intersects;

    // --- GeoSpark-like: requires spatial partitioning (N/A without) ----
    let sample: Vec<Coord> = data.collect().iter().map(|(o, _)| o.centroid()).collect();
    let voronoi = RegionScheme::voronoi(64, &sample, 11);
    let (gs_count, gs_time) =
        timed(|| geospark_join(&data, &data, &voronoi, pred, GeoSparkConfig::default()).count());
    t.push(vec![
        "GeoSpark-like".into(),
        "N/A".into(),
        "voronoi".into(),
        secs(gs_time),
        gs_count.to_string(),
    ]);

    // --- SpatialSpark-like -------------------------------------------
    // The unpartitioned baseline is a plain all-pairs cartesian+filter —
    // O(n²), so it is only run up to 100k points (at larger scales the
    // cell is marked; the 50k–100k runs already show the quadratic blow-up
    // the paper's "No Partitioning" bar reports).
    let ss_plain = if n <= 100_000 {
        let (count, time) = timed(|| broadcast_join(&data, &data, pred).count());
        Some((count, time))
    } else {
        None
    };
    let tile = RegionScheme::grid(8, &workloads::space());
    let (ss_count, ss_time) = timed(|| spatialspark_join(&data, &data, &tile, pred, 5).count());
    if let Some((c, _)) = ss_plain {
        assert_eq!(c, ss_count, "SpatialSpark-like result mismatch");
    }
    t.push(vec![
        "SpatialSpark-like".into(),
        ss_plain.map(|(_, d)| secs(d)).unwrap_or_else(|| "skipped (O(n^2))".into()),
        "tile".into(),
        secs(ss_time),
        ss_count.to_string(),
    ]);

    // --- STARK ---------------------------------------------------------
    let srdd = data.spatial();
    let (st_plain_count, st_plain_time) =
        timed(|| srdd.self_join(pred, JoinConfig::default()).count());
    let summary = srdd.summarize();
    let bsp = Arc::new(BspPartitioner::build((n / 64).max(16), 4.0, &summary));
    let partitioned = srdd.partition_by(bsp);
    let (st_count, st_time) = timed(|| partitioned.self_join(pred, JoinConfig::default()).count());
    assert_eq!(st_plain_count, st_count, "STARK result mismatch");
    assert_eq!(gs_count, st_count, "GeoSpark-like vs STARK result mismatch");
    t.push(vec![
        "STARK".into(),
        secs(st_plain_time),
        "bsp".into(),
        secs(st_time),
        st_count.to_string(),
    ]);
    t
}

/// T1 — the Section 3 feature comparison, rendered as a matrix. Each
/// "yes" for this reproduction is backed by an API exercised in tests.
pub fn features() -> Table {
    let mut t = Table::new(
        "Feature comparison (paper §3, textual)",
        &["feature", "GeoSpark-like", "SpatialSpark-like", "STARK"],
    );
    let rows: &[(&str, &str, &str, &str)] = &[
        ("spatial filter predicates", "yes", "yes", "yes"),
        ("spatio-TEMPORAL predicates", "no", "no", "yes"),
        ("kNN search", "yes", "no", "yes"),
        ("density-based clustering", "no", "no", "yes (DBSCAN)"),
        ("spatial partitioning", "grid/voronoi", "tile", "grid + cost-based BSP"),
        ("duplicate-free join", "no (dedup shuffle)", "yes (ref-point)", "yes (by design)"),
        ("partition pruning via extents", "no", "no", "yes"),
        ("live indexing", "yes", "yes", "yes"),
        ("persistent indexing", "no", "no", "yes"),
        ("integrated DSL on plain datasets", "no", "no", "yes"),
        ("scripting language (Piglet)", "no", "no", "yes"),
        ("kNN join", "no", "no", "yes"),
        ("co-location mining", "no", "no", "yes"),
        ("temporal partitioning/pruning", "no", "no", "yes (extension)"),
    ];
    for (f, a, b, c) in rows {
        t.push(vec![f.to_string(), a.to_string(), b.to_string(), c.to_string()]);
    }
    t
}

/// S1 — spatialbm range filter: partitioner × index mode.
pub fn filter(ctx: &Context, n: usize) -> Table {
    let mut t = Table::new(
        format!("spatialbm S1: range filter (containedBy), {n} points"),
        &["partitioner", "index", "time [s]", "pruned partitions", "results"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let data = workloads::uniform_points(ctx, n, parts).cache();
    data.count();
    let query = workloads::query_polygon(0.05);
    let pred = STPredicate::ContainedBy;

    let srdd = data.spatial();
    let summary = srdd.summarize();
    let partitioners: Vec<(&str, Option<Arc<dyn SpatialPartitioner>>)> = vec![
        ("none", None),
        ("grid", Some(Arc::new(GridPartitioner::build(8, &summary)))),
        ("bsp", Some(Arc::new(BspPartitioner::build((n / 64).max(16), 10.0, &summary)))),
    ];

    for (pname, partitioner) in partitioners {
        let base = match &partitioner {
            Some(p) => srdd.partition_by(p.clone()),
            None => srdd.clone(),
        };
        // no index
        let before = ctx.metrics();
        let (count, time) = timed(|| base.filter(&query, pred).count());
        let pruned = ctx.metrics().diff(&before).partitions_pruned;
        t.push(vec![
            pname.into(),
            "none".into(),
            secs(time),
            pruned.to_string(),
            count.to_string(),
        ]);
        // live index (build + query, as live indexing does)
        let before = ctx.metrics();
        let (count_idx, time_idx) = timed(|| base.live_index(5).filter(&query, pred).count());
        let pruned_idx = ctx.metrics().diff(&before).partitions_pruned;
        assert_eq!(count, count_idx, "index changed the result");
        t.push(vec![
            pname.into(),
            "live(5)".into(),
            secs(time_idx),
            pruned_idx.to_string(),
            count_idx.to_string(),
        ]);
    }
    t
}

/// S2 — spatialbm distance join across strategies.
pub fn join(ctx: &Context, n: usize) -> Table {
    let mut t = Table::new(
        format!("spatialbm S2: distance join (d=2.0), {n} x {n} points"),
        &["strategy", "time [s]", "results"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let left = workloads::uniform_points(ctx, n, parts).cache();
    let right = workloads::figure4_points(ctx, n, parts).cache();
    left.count();
    right.count();
    let pred = STPredicate::within_distance(2.0);

    let lspat = left.spatial();
    let summary = lspat.summarize();
    let grid: Arc<dyn SpatialPartitioner> = Arc::new(GridPartitioner::build(8, &summary));
    let lpart = lspat.partition_by(grid);

    let (c1, t1) = timed(|| lpart.join(&right.spatial(), pred, JoinConfig::nested_loop()).count());
    t.push(vec!["stark grid + nested loop".into(), secs(t1), c1.to_string()]);

    let (c2, t2) = timed(|| lpart.join(&right.spatial(), pred, JoinConfig::live_index(5)).count());
    t.push(vec!["stark grid + live index".into(), secs(t2), c2.to_string()]);

    let scheme = RegionScheme::grid(8, &workloads::space());
    let (c3, t3) =
        timed(|| geospark_join(&left, &right, &scheme, pred, GeoSparkConfig::default()).count());
    t.push(vec!["geospark-like (replicate+dedup)".into(), secs(t3), c3.to_string()]);

    let (c4, t4) = timed(|| spatialspark_join(&left, &right, &scheme, pred, 5).count());
    t.push(vec!["spatialspark-like (tile+refpoint)".into(), secs(t4), c4.to_string()]);

    assert_eq!(c1, c2);
    assert_eq!(c1, c3);
    assert_eq!(c1, c4);
    t
}

/// S3 — spatialbm kNN for k ∈ {1, 10, 100}: plain vs live-indexed.
pub fn knn(ctx: &Context, n: usize) -> Table {
    let mut t = Table::new(
        format!("spatialbm S3: k nearest neighbours, {n} points"),
        &["k", "plain [s]", "live index [s]", "agreement"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let data = workloads::uniform_points(ctx, n, parts).cache();
    data.count();
    let srdd = data.spatial();
    let indexed = srdd.live_index(8);
    indexed.count(); // materialise trees before timing queries
    let q = stark::STObject::point(500.0, 500.0);

    for k in [1usize, 10, 100] {
        let (plain, tp) = timed(|| srdd.knn(&q, k, DistanceFn::Euclidean));
        let (idx, ti) = timed(|| indexed.knn(&q, k, DistanceFn::Euclidean));
        let agree = plain.len() == idx.len()
            && plain.iter().zip(&idx).all(|(a, b)| (a.0 - b.0).abs() < 1e-9);
        t.push(vec![
            k.to_string(),
            secs(tp),
            secs(ti),
            if agree { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

/// S4 — spatialbm DBSCAN scaling on the skewed world workload.
pub fn dbscan_scaling(ctx: &Context, sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "spatialbm S4: DBSCAN (eps=1.0, minPts=8), skewed world events",
        &["n", "distributed [s]", "single-thread [s]", "clusters", "noise"],
    );
    for &n in sizes {
        let parts = (ctx.parallelism() * 2).max(8);
        let data = workloads::world_points(ctx, n, parts).cache();
        data.count();
        let params = DbscanParams::new(1.0, 8);

        let srdd = data.spatial();
        let (result, td) = timed(|| dbscan(&srdd, params).collect());
        let clusters = result
            .iter()
            .filter_map(|(_, _, c)| *c)
            .collect::<std::collections::BTreeSet<u64>>()
            .len();
        let noise = result.iter().filter(|(_, _, c)| c.is_none()).count();

        let local_data = data.collect();
        let ((), tl) = timed(|| {
            let _ = dbscan_local(&local_data, &params);
        });
        t.push(vec![n.to_string(), secs(td), secs(tl), clusters.to_string(), noise.to_string()]);
    }
    t
}

/// A1 — ablation: partition pruning on/off across query selectivities.
pub fn pruning(ctx: &Context, n: usize) -> Table {
    let mut t = Table::new(
        format!("A1: partition pruning ablation, {n} points, grid(8)"),
        &["query area", "pruning", "time [s]", "tasks", "pruned", "results"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let data = workloads::uniform_points(ctx, n, parts);
    let srdd = data.spatial();
    let part = srdd.partition_by(Arc::new(GridPartitioner::build(8, &srdd.summarize())));
    part.count(); // materialise the shuffle

    for fraction in [0.01, 0.05, 0.25, 1.0] {
        let query = workloads::query_polygon(fraction);
        // pruning ON: the STARK filter path
        let before = ctx.metrics();
        let (count_on, time_on) = timed(|| part.filter(&query, STPredicate::ContainedBy).count());
        let d = ctx.metrics().diff(&before);
        t.push(vec![
            format!("{:.0}%", fraction * 100.0),
            "on".into(),
            secs(time_on),
            d.tasks_launched.to_string(),
            d.partitions_pruned.to_string(),
            count_on.to_string(),
        ]);
        // pruning OFF: same partitioned data, plain filter on every task
        let q2 = query.clone();
        let before = ctx.metrics();
        let (count_off, time_off) = timed(|| {
            part.rdd().filter(move |(o, _)| STPredicate::ContainedBy.eval(o, &q2)).count()
        });
        let d = ctx.metrics().diff(&before);
        assert_eq!(count_on, count_off, "pruning changed the result");
        t.push(vec![
            format!("{:.0}%", fraction * 100.0),
            "off".into(),
            secs(time_off),
            d.tasks_launched.to_string(),
            d.partitions_pruned.to_string(),
            count_off.to_string(),
        ]);
    }
    t
}

/// A2 — ablation: grid vs BSP load balance under the land/sea skew.
pub fn balance(ctx: &Context, n: usize) -> Table {
    let mut t = Table::new(
        format!("A2: partitioner balance under skew, {n} world events"),
        &["partitioner", "partitions", "non-empty", "max", "std dev", "filter time [s]"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let data = workloads::world_points(ctx, n, parts);
    let srdd = data.spatial();
    let summary = srdd.summarize();

    let bsp = BspPartitioner::build((n / 64).max(8), 1.0, &summary);
    let target_parts = bsp.num_partitions();
    let grid_dims = (target_parts as f64).sqrt().ceil() as usize;
    let partitioners: Vec<(&str, Arc<dyn SpatialPartitioner>)> = vec![
        ("grid", Arc::new(GridPartitioner::build(grid_dims, &summary))),
        ("bsp", Arc::new(bsp)),
    ];

    // a European query window, inside the dense region
    let query = stark::STObject::from_wkt_interval(
        "POLYGON((0 40, 20 40, 20 55, 0 55, 0 40))",
        0,
        1_000_000,
    )
    .unwrap();

    for (name, p) in partitioners {
        let partitioned = srdd.partition_by(p);
        let counts = partitioned.rdd().count_per_partition();
        let stats = balance_stats(&counts);
        let (_, time) = timed(|| partitioned.filter(&query, STPredicate::ContainedBy).count());
        t.push(vec![
            name.into(),
            stats.partitions.to_string(),
            stats.non_empty.to_string(),
            stats.max.to_string(),
            format!("{:.1}", stats.std_dev),
            secs(time),
        ]);
    }
    t
}

/// A3 — ablation: index modes — none vs live vs persistent (amortised
/// over repeated queries, the scenario persistent indexing targets).
pub fn index_modes(ctx: &Context, n: usize, queries: usize) -> Table {
    let mut t = Table::new(
        format!("A3: index modes, {n} points, {queries} repeated queries"),
        &["mode", "build/load [s]", "total query time [s]"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let data = workloads::uniform_points(ctx, n, parts).cache();
    data.count();
    let srdd = data.spatial();
    let part = srdd.partition_by(Arc::new(GridPartitioner::build(8, &srdd.summarize())));
    part.count();
    let query = workloads::query_polygon(0.02);
    let pred = STPredicate::ContainedBy;

    // no index: every query scans
    let (_, tq) = timed(|| {
        for _ in 0..queries {
            part.filter(&query, pred).count();
        }
    });
    t.push(vec!["none".into(), "0.000".into(), secs(tq)]);

    // live: build once (cached trees), query repeatedly
    let (indexed, tb) = timed(|| {
        let idx = part.live_index(5);
        idx.count(); // force tree construction
        idx
    });
    let (_, tq) = timed(|| {
        for _ in 0..queries {
            indexed.filter(&query, pred).count();
        }
    });
    t.push(vec!["live(5)".into(), secs(tb), secs(tq)]);

    // persistent: persist once, then (as another program would) load+query
    let dir = std::env::temp_dir().join(format!("stark-bench-idx-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ObjectStore::open(&dir).expect("object store");
    indexed.persist(&store, "bench-index").expect("persist");
    let (loaded, tl) =
        timed(|| IndexedSpatialRdd::<Payload>::load(ctx, &store, "bench-index").expect("load"));
    let (_, tq) = timed(|| {
        for _ in 0..queries {
            loaded.filter(&query, pred).count();
        }
    });
    t.push(vec!["persistent(load)".into(), secs(tl), secs(tq)]);
    let _ = std::fs::remove_dir_all(&dir);
    t
}

/// S5 — spatialbm: scaling of the core partitioned operations with the
/// dataset size (partitioning itself, selective filter, self-join).
pub fn scaling(ctx: &Context, sizes: &[usize]) -> Table {
    let mut t = Table::new(
        "spatialbm S5: STARK scaling with dataset size (BSP partitioning)",
        &["n", "partition [s]", "filter 5% [s]", "self-join [s]", "join results"],
    );
    for &n in sizes {
        let parts = (ctx.parallelism() * 2).max(8);
        let data = workloads::figure4_points(ctx, n, parts).cache();
        data.count();
        let srdd = data.spatial();
        let summary = srdd.summarize();
        let bsp: Arc<dyn SpatialPartitioner> =
            Arc::new(BspPartitioner::build((n / 64).max(16), 4.0, &summary));
        let (partitioned, tp) = timed(|| {
            let p = srdd.partition_by(bsp.clone());
            p.count();
            p
        });
        let query = workloads::query_polygon(0.05);
        let (_, tf) = timed(|| partitioned.filter(&query, STPredicate::ContainedBy).count());
        let (join_results, tj) =
            timed(|| partitioned.self_join(STPredicate::Intersects, JoinConfig::default()).count());
        t.push(vec![n.to_string(), secs(tp), secs(tf), secs(tj), join_results.to_string()]);
    }
    t
}

/// A4 — extension ablation: temporal partitioning and pruning. The paper
/// notes STARK "only considers the spatial component for partitioning";
/// this measures what the temporal extension buys for time-selective
/// queries over spatially uniform data.
pub fn temporal(ctx: &Context, n: usize) -> Table {
    let mut t = Table::new(
        format!("A4: temporal partitioning ablation, {n} events, time-selective query"),
        &["partitioner", "time [s]", "tasks", "pruned", "results"],
    );
    let parts = (ctx.parallelism() * 2).max(8);
    let data = workloads::uniform_points(ctx, n, parts).cache();
    data.count();
    let srdd = data.spatial();

    // whole-space window covering 5% of the time axis
    let s = workloads::space();
    let query = stark::STObject::from_wkt_interval(
        &format!(
            "POLYGON(({} {}, {} {}, {} {}, {} {}, {} {}))",
            s.min_x() - 1.0,
            s.min_y() - 1.0,
            s.max_x() + 1.0,
            s.min_y() - 1.0,
            s.max_x() + 1.0,
            s.max_y() + 1.0,
            s.min_x() - 1.0,
            s.max_y() + 1.0,
            s.min_x() - 1.0,
            s.min_y() - 1.0
        ),
        0,
        50_000,
    )
    .expect("query");

    // spatial partitioning: no help for an all-space query
    let grid = srdd.partition_by(Arc::new(GridPartitioner::build(8, &srdd.summarize())));
    grid.count();
    let before = ctx.metrics();
    let (count_g, time_g) = timed(|| grid.filter(&query, STPredicate::ContainedBy).count());
    let d = ctx.metrics().diff(&before);
    t.push(vec![
        "grid(8) (spatial only)".into(),
        secs(time_g),
        d.tasks_launched.to_string(),
        d.partitions_pruned.to_string(),
        count_g.to_string(),
    ]);

    // temporal partitioning: prunes the time slices outside the window
    let times: Vec<Option<stark::Temporal>> =
        srdd.rdd().collect().iter().map(|(o, _)| o.time().copied()).collect();
    let temporal = srdd.partition_by(Arc::new(stark::TemporalPartitioner::build(64, &times)));
    temporal.count();
    let before = ctx.metrics();
    let (count_t, time_t) = timed(|| temporal.filter(&query, STPredicate::ContainedBy).count());
    let d = ctx.metrics().diff(&before);
    assert_eq!(count_g, count_t, "partitioning changed the result");
    t.push(vec![
        "temporal(64)".into(),
        secs(time_t),
        d.tasks_launched.to_string(),
        d.partitions_pruned.to_string(),
        count_t.to_string(),
    ]);
    t
}

/// S6 — streaming throughput/latency: a micro-batch stream of regional
/// event bursts (a hotspot drifting across the space) with event-time
/// windows and three standing queries (range filter, withinDistance,
/// kNN monitor), across batch sizes and with the continuous-query state
/// either incrementally indexed or linear-scanned. The localised batches
/// are where incremental maintenance pays: each batch rebuilds only the
/// partition trees under the hotspot.
pub fn stream(ctx: &Context, batch_sizes: &[usize], batches: usize) -> Table {
    use stark_stream::{
        ContinuousQueryEngine, GeneratorSource, LatePolicy, StandingQuery, StreamConfig,
        StreamContext, StreamJob, WindowSpec,
    };

    let mut t = Table::new(
        format!("S6: streaming, {batches} micro-batches per run, indexed vs scan"),
        &[
            "batch size",
            "query state",
            "records",
            "mean batch [ms]",
            "max batch [ms]",
            "events/sec",
            "rebuilt parts (total)",
            "late dropped",
        ],
    );

    let space = workloads::space();
    let summary = vec![
        (
            stark_geo::Envelope::from_point(Coord::new(space.min_x(), space.min_y())),
            Coord::new(space.min_x(), space.min_y()),
        ),
        (
            stark_geo::Envelope::from_point(Coord::new(space.max_x(), space.max_y())),
            Coord::new(space.max_x(), space.max_y()),
        ),
    ];
    let partitioner: Arc<dyn SpatialPartitioner> = Arc::new(GridPartitioner::build(6, &summary));
    let region = workloads::query_polygon(0.15);
    let center = Coord::new(space.center().x, space.center().y);

    let ms = |d: std::time::Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    for &batch_size in batch_sizes {
        for indexed in [true, false] {
            let engine = if indexed {
                ContinuousQueryEngine::indexed(partitioner.clone(), 16)
            } else {
                ContinuousQueryEngine::unindexed()
            }
            .with_query(StandingQuery::filter("region", region.clone(), STPredicate::Intersects))
            .with_query(StandingQuery::within_distance(
                "near-center",
                stark::STObject::point(center.x, center.y),
                space.width() * 0.05,
            ))
            .with_query(StandingQuery::knn(
                "monitor",
                stark::STObject::point(center.x * 0.5, center.y * 0.5),
                20,
            ));
            let sc = StreamContext::with_config(
                ctx.clone(),
                StreamConfig {
                    batch_records: batch_size,
                    channel_capacity: 4,
                    parallelism: ctx.parallelism().max(1),
                    ..Default::default()
                },
            );
            let source =
                GeneratorSource::new(42, space, batches, 1_000, 250).with_drifting_hotspot(0.25);
            let job = StreamJob::new()
                .with_windows(WindowSpec::tumbling(2_000), 100, LatePolicy::Drop)
                .with_grid_aggregation(10, space)
                .with_queries(engine);
            let report = sc.run(source, job);
            let rebuilt: usize = report.batches.iter().map(|b| b.partitions_rebuilt).sum();
            t.push(vec![
                batch_size.to_string(),
                if indexed { "incremental index" } else { "linear scan" }.into(),
                report.total_records().to_string(),
                ms(report.mean_latency()),
                ms(report.max_latency()),
                format!("{:.0}", report.events_per_sec()),
                rebuilt.to_string(),
                report.late_dropped().to_string(),
            ]);
        }
    }
    t
}

/// S8 — chaos ablation: the A1 pruning pipeline (grid(8) partitioning +
/// containedBy filter) under a seeded 10% transient task-fault rate,
/// with fault tolerance progressively enabled — clean baseline, faults
/// with retry disabled, lineage-based retry, and retry plus a
/// mid-pipeline checkpoint. Reports injected-fault and retry counts and
/// wall-clock overhead against the clean baseline.
pub fn chaos(parallelism: usize, n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!("S8: chaos ablation, {n} points, grid(8), 10% transient faults (seed {seed})"),
        &[
            "config",
            "completed",
            "results",
            "time [s]",
            "injected",
            "retried",
            "failed perm",
            "recomputed",
            "ckpt bytes",
            "overhead",
        ],
    );
    let store_dir = std::env::temp_dir().join(format!("stark-s8-{}", std::process::id()));
    let store = ObjectStore::open(store_dir.join("store")).expect("open S8 object store");

    // The whole pipeline runs under catch_unwind so the retry-off
    // configuration reports its permanent failure as a table row instead
    // of crashing the harness.
    let run_pipeline = |ctx: &Context, ck: Option<&ObjectStore>| -> Result<usize, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let parts = (ctx.parallelism() * 2).max(8);
            let data = workloads::uniform_points(ctx, n, parts);
            let srdd = data.spatial();
            let part = srdd.partition_by(Arc::new(GridPartitioner::build(8, &srdd.summarize())));
            let query = workloads::query_polygon(0.25);
            let base = match ck {
                Some(store) => part.rdd().checkpoint(store, "s8-mid").expect("S8 checkpoint"),
                None => part.rdd().clone(),
            };
            base.filter(move |(o, _)| STPredicate::ContainedBy.eval(o, &query))
                .try_collect()
                .map(|v| v.len())
                .map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "pipeline panicked".into());
            Err(msg)
        })
    };

    struct Config {
        name: &'static str,
        faults: bool,
        retries: u32,
        checkpoint: bool,
    }
    let configs = [
        Config { name: "clean baseline", faults: false, retries: 3, checkpoint: false },
        Config { name: "faults, retry off", faults: true, retries: 0, checkpoint: false },
        Config { name: "faults, retry", faults: true, retries: 3, checkpoint: false },
        Config { name: "faults, retry + checkpoint", faults: true, retries: 3, checkpoint: true },
    ];
    // Warm-up pass outside the timings so the clean baseline doesn't
    // absorb allocator/page-fault costs the later rows skip.
    let warmup = Context::with_config(EngineConfig { parallelism, ..EngineConfig::default() });
    run_pipeline(&warmup, None).expect("warm-up run must succeed");

    // The retry-off configuration fails by design; keep its expected
    // panic from spraying a backtrace across the table.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut baseline: Option<std::time::Duration> = None;
    for c in configs {
        let injector = c.faults.then(|| Arc::new(FaultPlan::transient(seed, 0.10)));
        let ctx = Context::with_config(EngineConfig {
            parallelism,
            max_task_retries: c.retries,
            fault_injector: injector.clone(),
            ..EngineConfig::default()
        });
        let (outcome, time) = timed(|| run_pipeline(&ctx, c.checkpoint.then_some(&store)));
        let m = ctx.metrics();
        let completed = outcome.is_ok();
        if completed && baseline.is_none() {
            baseline = Some(time);
        }
        let overhead = match (&baseline, completed) {
            (Some(base), true) => {
                format!("{:.2}x", time.as_secs_f64() / base.as_secs_f64().max(1e-9))
            }
            _ => "-".into(),
        };
        t.push(vec![
            c.name.into(),
            if completed { "yes" } else { "NO" }.into(),
            outcome.map(|r| r.to_string()).unwrap_or_else(|_| "-".into()),
            secs(time),
            injector.map(|i| i.injected()).unwrap_or(0).to_string(),
            m.tasks_retried.to_string(),
            m.tasks_failed_permanently.to_string(),
            m.partitions_recomputed.to_string(),
            m.checkpoint_bytes.to_string(),
            overhead,
        ]);
    }
    std::panic::set_hook(default_hook);
    let _ = std::fs::remove_dir_all(&store_dir);
    t
}

/// S9 — straggler ablation: the A1 pruning pipeline (grid(8)
/// partitioning + containedBy filter) under a seeded 15% *delay* fault
/// rate — first task attempts stall, modelling a slow node rather than
/// a crashed one — with the straggler defences toggled: clean baseline,
/// stalls waited out, speculative duplicates racing the stragglers, and
/// a job-deadline sweep (one deadline tighter than the stall, one
/// generous). Reports speculation/cancellation counters and wall-clock
/// against the defenceless run.
pub fn stragglers(parallelism: usize, n: usize, seed: u64) -> Table {
    // Speculation needs idle workers to scout for stragglers (the
    // single-worker sweep never races duplicates), so the ablation runs
    // at 4 workers minimum even on small machines — the stalls are
    // sleeps, not compute, so oversubscription doesn't distort the rows.
    let parallelism = parallelism.max(4);
    let stall = std::time::Duration::from_millis(120);
    let mut t = Table::new(
        format!(
            "S9: straggler ablation, {n} points, grid(8), 15% delay faults x120ms (seed {seed})"
        ),
        &[
            "config",
            "completed",
            "results",
            "time [s]",
            "injected",
            "speculated",
            "spec wins",
            "cancelled",
            "deadline jobs",
            "vs no-defence",
        ],
    );

    // Under catch_unwind so the too-tight-deadline configuration reports
    // its typed failure as a table row instead of crashing the harness.
    // Infallible actions surface cancellation as a `TaskError` panic
    // payload, so that downcast comes first.
    let run_pipeline = |ctx: &Context| -> Result<usize, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let parts = (ctx.parallelism() * 4).max(16);
            let data = workloads::uniform_points(ctx, n, parts);
            let srdd = data.spatial();
            let part = srdd.partition_by(Arc::new(GridPartitioner::build(8, &srdd.summarize())));
            let query = workloads::query_polygon(0.25);
            part.rdd()
                .filter(move |(o, _)| STPredicate::ContainedBy.eval(o, &query))
                .try_collect()
                .map(|v| v.len())
                .map_err(|e| e.to_string())
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<TaskError>()
                .map(|e| e.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "pipeline panicked".into());
            Err(msg)
        })
    };

    struct Config {
        name: &'static str,
        faults: bool,
        speculation: bool,
        deadline: Option<std::time::Duration>,
    }
    let configs = [
        Config { name: "clean baseline", faults: false, speculation: false, deadline: None },
        Config {
            name: "delay faults, no defence",
            faults: true,
            speculation: false,
            deadline: None,
        },
        Config {
            name: "delay faults, speculation",
            faults: true,
            speculation: true,
            deadline: None,
        },
        Config {
            name: "delay faults, 30ms deadline",
            faults: true,
            speculation: false,
            deadline: Some(std::time::Duration::from_millis(30)),
        },
        Config {
            name: "delay faults, 10s deadline",
            faults: true,
            speculation: false,
            deadline: Some(std::time::Duration::from_secs(10)),
        },
    ];
    // Warm-up pass outside the timings so the clean baseline doesn't
    // absorb allocator/page-fault costs the later rows skip.
    let warmup = Context::with_config(EngineConfig { parallelism, ..EngineConfig::default() });
    run_pipeline(&warmup).expect("warm-up run must succeed");

    // The tight-deadline configuration fails by design; keep its
    // expected panic from spraying a backtrace across the table.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut no_defence: Option<std::time::Duration> = None;
    for c in configs {
        let injector = c.faults.then(|| {
            Arc::new(FaultPlan::new(
                seed,
                vec![FaultRule::new(Fault::Delay(stall), Scope::Probability(0.15))],
            ))
        });
        let ctx = Context::with_config(EngineConfig {
            parallelism,
            fault_injector: injector.clone(),
            speculation: c.speculation,
            speculation_quantile: 0.5,
            speculation_multiplier: 1.5,
            job_deadline: c.deadline,
            ..EngineConfig::default()
        });
        let (outcome, time) = timed(|| run_pipeline(&ctx));
        let m = ctx.metrics();
        let completed = outcome.is_ok();
        if completed && c.faults && !c.speculation && c.deadline.is_none() && no_defence.is_none() {
            no_defence = Some(time);
        }
        let vs = match (&no_defence, completed && c.faults) {
            (Some(base), true) => {
                format!("{:.2}x", time.as_secs_f64() / base.as_secs_f64().max(1e-9))
            }
            _ => "-".into(),
        };
        t.push(vec![
            c.name.into(),
            if completed { "yes" } else { "NO" }.into(),
            outcome.map(|r| r.to_string()).unwrap_or_else(|_| "-".into()),
            secs(time),
            injector.map(|i| i.injected()).unwrap_or(0).to_string(),
            m.tasks_speculated.to_string(),
            m.speculative_wins.to_string(),
            m.tasks_cancelled.to_string(),
            m.deadline_exceeded_jobs.to_string(),
            vs,
        ]);
    }
    std::panic::set_hook(default_hook);
    t
}

/// S10 — memory-governance ablation: a shuffle-and-cache pipeline
/// (grid(8) partitioning, cached layout, two pruning queries) run
/// unbounded to measure its reserved-bytes peak, then re-run under a
/// budget of a quarter of that peak — shuffle buckets spill to the
/// object store and cached partitions evict LRU-first — and finally
/// under [`Fault::MemoryPressure`] chaos strikes that shrink the
/// effective budget mid-job. Output must be identical in every row.
pub fn memory(parallelism: usize, n: usize, seed: u64) -> Table {
    let mut t = Table::new(
        format!("S10: memory ablation, {n} points, grid(8), budget = peak/4 (seed {seed})"),
        &[
            "config",
            "results",
            "checksum",
            "time [s]",
            "peak bytes",
            "spilled bytes",
            "spill blobs",
            "evicted",
            "injected",
        ],
    );

    // Shuffle (spill pressure) feeding a cache reused by two queries
    // (eviction pressure); the checksum folds ids in collect order, so
    // "identical" below means order-identical, not just same multiset.
    let run_pipeline = |ctx: &Context| -> (usize, u64) {
        let parts = (ctx.parallelism() * 2).max(8);
        let data = workloads::uniform_points(ctx, n, parts);
        let srdd = data.spatial();
        let part = srdd.partition_by(Arc::new(GridPartitioner::build(8, &srdd.summarize())));
        let cached = part.rdd().cache();
        let inner = workloads::query_polygon(0.25);
        let outer = workloads::query_polygon(0.60);
        let r1 = cached.filter(move |(o, _)| STPredicate::ContainedBy.eval(o, &inner)).collect();
        let r2 = cached.filter(move |(o, _)| STPredicate::ContainedBy.eval(o, &outer)).collect();
        let checksum = r1
            .iter()
            .chain(r2.iter())
            .map(|(_, (id, _))| *id)
            .fold(0u64, |acc, id| acc.wrapping_mul(0x100_0000_01b3).wrapping_add(id));
        (r1.len() + r2.len(), checksum)
    };

    // Warm-up pass outside the timings so the unbounded baseline doesn't
    // absorb allocator/page-fault costs the later rows skip.
    let warmup = Context::with_config(EngineConfig { parallelism, ..EngineConfig::default() });
    run_pipeline(&warmup);

    struct Config {
        name: &'static str,
        budget: Option<u64>,
        pressure: bool,
    }
    // The unbounded row must run first: it measures the peak the
    // budgeted rows are derived from.
    let configs = [
        Config { name: "unbounded", budget: None, pressure: false },
        Config { name: "budget = peak/4 (spill)", budget: Some(0), pressure: false },
        Config { name: "memory-pressure chaos", budget: None, pressure: true },
    ];
    let mut peak: u64 = 0;
    for c in configs {
        let budget = c.budget.map(|_| (peak / 4).max(1));
        let injector =
            c.pressure.then(|| Arc::new(FaultPlan::memory_pressure(seed, 0.10, peak / 4)));
        let ctx = Context::with_config(EngineConfig {
            parallelism,
            fault_injector: injector.clone(),
            memory_budget: budget,
            ..EngineConfig::default()
        });
        let ((results, checksum), time) = timed(|| run_pipeline(&ctx));
        let m = ctx.metrics();
        if peak == 0 {
            peak = m.bytes_reserved_peak;
        }
        t.push(vec![
            c.name.into(),
            results.to_string(),
            format!("{checksum:016x}"),
            secs(time),
            m.bytes_reserved_peak.to_string(),
            m.bytes_spilled.to_string(),
            m.spill_blobs_written.to_string(),
            m.partitions_evicted_for_pressure.to_string(),
            injector.map(|i| i.injected()).unwrap_or(0).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::with_parallelism(4)
    }

    #[test]
    fn chaos_ablation_rows_tell_the_recovery_story() {
        let t = chaos(4, 4000, 0xC4A05);
        assert_eq!(t.rows.len(), 4);
        // clean baseline completes without any injections or retries
        assert_eq!(t.rows[0][1], "yes");
        assert_eq!(t.rows[0][4], "0");
        assert_eq!(t.rows[0][5], "0");
        // both retry configurations absorb every injected fault
        for row in [&t.rows[2], &t.rows[3]] {
            assert_eq!(row[1], "yes", "retry row must complete: {row:?}");
            assert_eq!(row[2], t.rows[0][2], "results must match the clean run");
            assert_eq!(row[6], "0", "nothing may fail permanently with retries on");
            let injected: u64 = row[4].parse().unwrap();
            let retried: u64 = row[5].parse().unwrap();
            assert!(injected > 0, "seeded 10% rate must inject at this scale");
            assert_eq!(retried, injected);
        }
        // the checkpoint row actually wrote blobs
        let ck_bytes: u64 = t.rows[3][8].parse().unwrap();
        assert!(ck_bytes > 0);
        assert_eq!(t.rows[2][8], "0");
    }

    #[test]
    fn straggler_ablation_speculation_beats_the_stall() {
        let t = stragglers(4, 4000, 0xC4A05);
        assert_eq!(t.rows.len(), 5);
        // clean baseline: no injections, no speculation, no cancellations
        assert_eq!(t.rows[0][1], "yes");
        assert_eq!(t.rows[0][4], "0");
        assert_eq!(t.rows[0][5], "0");
        // stalls strike and are waited out without defences
        assert_eq!(t.rows[1][1], "yes");
        let injected: u64 = t.rows[1][4].parse().unwrap();
        assert!(injected > 0, "seeded 15% delay rate must inject at this scale");
        assert_eq!(t.rows[1][2], t.rows[0][2], "stalls must not change results");
        // speculation launches duplicates and one beats the stalled
        // original, with identical results (wall-clock ratios are left to
        // `bench/`: on a shared box they are load-dependent)
        assert_eq!(t.rows[2][1], "yes");
        assert_eq!(t.rows[2][2], t.rows[0][2], "speculation must not change results");
        assert!(t.rows[2][5].parse::<u64>().unwrap() >= 1, "duplicates must launch: {t:?}");
        assert!(t.rows[2][6].parse::<u64>().unwrap() >= 1, "a duplicate must win: {t:?}");
        // a deadline tighter than the stall fails typed (recorded in the
        // engine metric), never hangs...
        assert_eq!(t.rows[3][1], "NO");
        assert!(t.rows[3][8].parse::<u64>().unwrap() >= 1, "deadline job must be counted: {t:?}");
        // ...and a generous deadline completes the very same pipeline
        assert_eq!(t.rows[4][1], "yes");
        assert_eq!(t.rows[4][2], t.rows[0][2], "deadline must not change results");
        assert_eq!(t.rows[4][8], "0");
    }

    #[test]
    fn memory_ablation_spills_evicts_and_stays_identical() {
        let t = memory(4, 4000, 0xC4A05);
        assert_eq!(t.rows.len(), 3);
        // output is identical — count and order-sensitive checksum —
        // across unbounded, spilling, and pressure-chaos rows
        for row in &t.rows[1..] {
            assert_eq!(row[1], t.rows[0][1], "result count diverged: {row:?}");
            assert_eq!(row[2], t.rows[0][2], "checksum diverged: {row:?}");
        }
        // the unbounded row accounts its peak but never spills or evicts
        assert!(t.rows[0][4].parse::<u64>().unwrap() > 0);
        assert_eq!(t.rows[0][5], "0");
        assert_eq!(t.rows[0][7], "0");
        // a quarter of the peak forces the shuffle to spill (the pinned
        // shuffle output leaves no headroom for the cache, so the cache
        // degrades to recompute rather than evicting)
        assert!(t.rows[1][5].parse::<u64>().unwrap() > 0, "tight budget must spill: {t:?}");
        assert!(t.rows[1][6].parse::<u64>().unwrap() > 0);
        // the chaos row actually strikes, and its mid-job budget shrink
        // claws back already-cached partitions
        assert!(t.rows[2][8].parse::<u64>().unwrap() > 0, "pressure chaos must inject: {t:?}");
        assert!(t.rows[2][7].parse::<u64>().unwrap() > 0, "pressure strikes must evict: {t:?}");
    }

    #[test]
    fn scaling_experiment_runs() {
        let t = scaling(&ctx(), &[500, 1000]);
        assert_eq!(t.rows.len(), 2);
        // self-join results scale with n (identity pairs at minimum)
        let r0: usize = t.rows[0][4].parse().unwrap();
        let r1: usize = t.rows[1][4].parse().unwrap();
        assert!(r0 >= 500 && r1 >= 1000);
    }

    #[test]
    fn temporal_ablation_prunes_time_slices() {
        let t = temporal(&ctx(), 4000);
        assert_eq!(t.rows.len(), 2);
        let grid_pruned: u64 = t.rows[0][3].parse().unwrap();
        let temporal_pruned: u64 = t.rows[1][3].parse().unwrap();
        // spatial partitions cannot prune an all-space query (beyond the
        // odd empty cell); the temporal partitioner prunes nearly all
        // time slices
        assert!(grid_pruned < 8, "grid pruned {grid_pruned}");
        assert!(temporal_pruned >= 40, "expected most time slices pruned: {temporal_pruned}");
        assert!(temporal_pruned > grid_pruned);
        assert_eq!(t.rows[0][4], t.rows[1][4], "results must agree");
    }

    #[test]
    fn figure4_small_scale_shape() {
        let t = figure4(&ctx(), 2000);
        assert_eq!(t.rows.len(), 3);
        // all three systems agree on the result count
        let counts: std::collections::BTreeSet<&String> = t.rows.iter().map(|r| &r[4]).collect();
        assert_eq!(counts.len(), 1, "result counts differ: {t:?}");
        assert_eq!(t.rows[0][1], "N/A");
    }

    #[test]
    fn features_table_is_complete() {
        let t = features();
        assert!(t.rows.len() >= 10);
        assert!(t.render().contains("persistent indexing"));
    }

    #[test]
    fn filter_experiment_consistency() {
        let t = filter(&ctx(), 3000);
        assert_eq!(t.rows.len(), 6);
        let counts: std::collections::BTreeSet<&String> = t.rows.iter().map(|r| &r[4]).collect();
        assert_eq!(counts.len(), 1, "result counts differ across modes");
        // partitioned runs prune
        let pruned: u64 = t.rows[2][3].parse().unwrap();
        assert!(pruned > 0);
    }

    #[test]
    fn join_experiment_consistency() {
        // result-count equality is asserted inside
        let t = join(&ctx(), 800);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn knn_experiment_agrees() {
        let t = knn(&ctx(), 2000);
        assert!(t.rows.iter().all(|r| r[3] == "yes"), "{t:?}");
    }

    #[test]
    fn dbscan_experiment_runs() {
        let t = dbscan_scaling(&ctx(), &[1500]);
        assert_eq!(t.rows.len(), 1);
        let clusters: usize = t.rows[0][3].parse().unwrap();
        assert!(clusters >= 1);
    }

    #[test]
    fn pruning_ablation_prunes() {
        let t = pruning(&ctx(), 3000);
        assert_eq!(t.rows.len(), 8);
        // the most selective query prunes the most
        let pruned_1pct: u64 = t.rows[0][4].parse().unwrap();
        let pruned_100pct: u64 = t.rows[6][4].parse().unwrap();
        assert!(pruned_1pct > pruned_100pct);
        // off rows never prune
        assert!(t.rows.iter().filter(|r| r[1] == "off").all(|r| r[4] == "0"));
    }

    #[test]
    fn balance_ablation_bsp_beats_grid() {
        let t = balance(&ctx(), 4000);
        let grid_max: usize = t.rows[0][3].parse().unwrap();
        let bsp_max: usize = t.rows[1][3].parse().unwrap();
        assert!(bsp_max < grid_max, "bsp {bsp_max} vs grid {grid_max}");
    }

    #[test]
    fn index_modes_runs() {
        let t = index_modes(&ctx(), 2000, 3);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn stream_covers_sizes_and_both_modes() {
        let t = stream(&ctx(), &[100, 200, 400], 3);
        assert_eq!(t.rows.len(), 6); // 3 batch sizes × {indexed, scan}
                                     // the indexed runs rebuild partitions; the scans never do
        for pair in t.rows.chunks(2) {
            assert_eq!(pair[0][1], "incremental index");
            assert!(pair[0][6].parse::<usize>().unwrap() > 0);
            assert_eq!(pair[1][6], "0");
            // both modes process every record
            assert_eq!(pair[0][2], pair[1][2]);
        }
    }
}
