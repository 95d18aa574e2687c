//! Cross-crate integration tests: engine ↔ core ↔ index ↔ baselines ↔
//! eventsim, exercised through public APIs only.

use stark::cluster::{dbscan, dbscan_local, DbscanParams};
use stark::{
    BspPartitioner, GridPartitioner, IndexedSpatialRdd, JoinConfig, STObject, STPredicate,
    SpatialPartitioner, SpatialRddExt,
};
use stark_baselines::{
    broadcast_join, geospark_join, spatialspark_join, GeoSparkConfig, RegionScheme,
};
use stark_engine::{Context, ObjectStore};
use stark_eventsim::{read_events_csv, write_events_csv, EventGenerator};
use stark_geo::{Coord, DistanceFn, Envelope};
use std::collections::BTreeSet;
use std::sync::Arc;

fn ctx() -> Context {
    Context::with_parallelism(4)
}

fn dataset(n: usize, seed: u64) -> Vec<(STObject, (u64, String))> {
    EventGenerator::new(seed)
        .clustered_points(n, 6, 3.0, &Envelope::from_bounds(0.0, 0.0, 100.0, 100.0))
        .into_iter()
        .map(|e| e.to_pair())
        .collect()
}

/// Every execution strategy must return the same filter result.
#[test]
fn filter_strategies_agree() {
    let ctx = ctx();
    let data = ctx.parallelize(dataset(3000, 1), 7);
    let query =
        STObject::from_wkt_interval("POLYGON((20 20, 60 20, 60 60, 20 60, 20 20))", 0, 1_000_000)
            .unwrap();

    let srdd = data.spatial();
    let baseline: BTreeSet<u64> = srdd
        .filter(&query, STPredicate::ContainedBy)
        .collect()
        .into_iter()
        .map(|(_, (id, _))| id)
        .collect();
    assert!(!baseline.is_empty());

    let summary = srdd.summarize();
    let configs: Vec<(&str, Arc<dyn SpatialPartitioner>)> = vec![
        ("grid", Arc::new(GridPartitioner::build(5, &summary))),
        ("bsp", Arc::new(BspPartitioner::build(200, 2.0, &summary))),
    ];
    for (name, p) in configs {
        let part = srdd.partition_by(p);
        let got: BTreeSet<u64> = part
            .filter(&query, STPredicate::ContainedBy)
            .collect()
            .into_iter()
            .map(|(_, (id, _))| id)
            .collect();
        assert_eq!(got, baseline, "partitioner {name} (plain filter)");

        let idx: BTreeSet<u64> = part
            .live_index(5)
            .contained_by(&query)
            .collect()
            .into_iter()
            .map(|(_, (id, _))| id)
            .collect();
        assert_eq!(idx, baseline, "partitioner {name} (live index)");
    }
}

/// All four join implementations (STARK, STARK+index, GeoSpark-like,
/// SpatialSpark-like) must produce the same pair set.
#[test]
fn join_strategies_agree() {
    let ctx = ctx();
    let left = ctx.parallelize(dataset(700, 2), 5);
    let right = ctx.parallelize(dataset(700, 3), 6);
    let pred = STPredicate::within_distance(1.5);

    type Pair = ((STObject, (u64, String)), (STObject, (u64, String)));
    let pair_ids = |v: Vec<Pair>| {
        let mut ids: Vec<(u64, u64)> =
            v.into_iter().map(|((_, (a, _)), (_, (b, _)))| (a, b)).collect();
        ids.sort_unstable();
        ids
    };

    let lspat = left.spatial();
    let stark_plain =
        pair_ids(lspat.join(&right.spatial(), pred, JoinConfig::nested_loop()).collect());
    assert!(!stark_plain.is_empty());

    let part = lspat.partition_by(Arc::new(GridPartitioner::build(4, &lspat.summarize())));
    let stark_part =
        pair_ids(part.join(&right.spatial(), pred, JoinConfig::live_index(5)).collect());
    assert_eq!(stark_part, stark_plain);

    let scheme = RegionScheme::grid(4, &Envelope::from_bounds(0.0, 0.0, 100.0, 100.0));
    let gs: Vec<(u64, u64)> = stark_baselines::id_pairs(&geospark_join(
        &left,
        &right,
        &scheme,
        pred,
        GeoSparkConfig::default(),
    ))
    .into_iter()
    .collect();
    // geospark ids are dataset indexes == our payload ids by construction
    assert_eq!(gs, stark_plain);

    let ss = pair_ids(spatialspark_join(&left, &right, &scheme, pred, 5).collect());
    assert_eq!(ss, stark_plain);

    let bc = pair_ids(broadcast_join(&left, &right, pred).collect());
    assert_eq!(bc, stark_plain);
}

/// kNN through every execution path returns the same distances.
#[test]
fn knn_paths_agree() {
    let ctx = ctx();
    let data = ctx.parallelize(dataset(2000, 4), 8);
    let q = STObject::point(50.0, 50.0);

    let srdd = data.spatial();
    let plain = srdd.knn(&q, 25, DistanceFn::Euclidean);
    let part = srdd.partition_by(Arc::new(BspPartitioner::build(100, 1.0, &srdd.summarize())));
    let part_knn = part.knn(&q, 25, DistanceFn::Euclidean);
    let idx_knn = part.live_index(6).knn(&q, 25, DistanceFn::Euclidean);

    assert_eq!(plain.len(), 25);
    for (a, b) in plain.iter().zip(&part_knn) {
        assert!((a.0 - b.0).abs() < 1e-9);
    }
    for (a, b) in plain.iter().zip(&idx_knn) {
        assert!((a.0 - b.0).abs() < 1e-9);
    }
}

/// Distributed DBSCAN agrees with the single-threaded oracle through the
/// whole stack (generator → engine → partitioner → clustering).
#[test]
fn dbscan_end_to_end() {
    let ctx = ctx();
    let pairs = dataset(1200, 5);
    let rdd = ctx.parallelize(pairs.clone(), 9).spatial();
    let part = rdd.partition_by(Arc::new(GridPartitioner::build(4, &rdd.summarize())));
    let params = DbscanParams::new(1.2, 6);

    let distributed = dbscan(&part, params).collect();
    assert_eq!(distributed.len(), pairs.len());

    // DBSCAN is deterministic for noise and for the grouping of *core*
    // points; border points may legitimately attach to either adjacent
    // cluster depending on visit order, so the comparison excludes them.
    let (ref_labels, ref_cores) = dbscan_local(&pairs, &params);
    let ref_noise: BTreeSet<u64> = pairs
        .iter()
        .zip(&ref_labels)
        .filter(|(_, l)| l.is_none())
        .map(|((_, (id, _)), _)| *id)
        .collect();
    let dist_noise: BTreeSet<u64> =
        distributed.iter().filter(|(_, _, c)| c.is_none()).map(|(_, (id, _), _)| *id).collect();
    assert_eq!(dist_noise, ref_noise);

    let core_ids: BTreeSet<u64> =
        pairs.iter().zip(&ref_cores).filter(|(_, c)| **c).map(|((_, (id, _)), _)| *id).collect();
    assert!(!core_ids.is_empty());

    // grouping agreement (up to relabelling) over core points
    let ref_map: std::collections::HashMap<u64, usize> =
        pairs.iter().zip(&ref_labels).filter_map(|((_, (id, _)), l)| l.map(|l| (*id, l))).collect();
    let mut pairing: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let mut reverse: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
    for (_, (id, _), label) in &distributed {
        if !core_ids.contains(id) {
            continue;
        }
        let dl = label.expect("core point must be clustered");
        let rl = ref_map[id];
        match pairing.get(&dl) {
            Some(&exp) => assert_eq!(exp, rl, "cluster mismatch for core id {id}"),
            None => {
                assert!(reverse.insert(rl, dl).is_none(), "split cluster {rl}");
                pairing.insert(dl, rl);
            }
        }
    }
    // every labelled border point is labelled in the oracle too
    for (_, (id, _), label) in &distributed {
        assert_eq!(label.is_some(), ref_map.contains_key(id), "membership mismatch for id {id}");
    }
}

/// CSV → engine → partition → persist index → reload in a fresh context
/// (the paper's Figure 2 workflow: store, load, partition, index, query).
#[test]
fn figure2_workflow_roundtrip() {
    let ctx = ctx();
    let dir = std::env::temp_dir().join(format!("stark-it-fig2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // store raw data to "HDFS"
    let events =
        EventGenerator::new(6).uniform_points(800, &Envelope::from_bounds(0.0, 0.0, 50.0, 50.0));
    let csv = dir.join("events.csv");
    write_events_csv(&csv, &events).unwrap();

    // load, convert, partition, index, persist
    let loaded = read_events_csv(&csv).unwrap();
    assert_eq!(loaded, events);
    let pairs: Vec<(STObject, (u64, String))> = loaded.into_iter().map(|e| e.to_pair()).collect();
    let rdd = ctx.parallelize(pairs, 6).spatial();
    let part = rdd.partition_by(Arc::new(GridPartitioner::build(4, &rdd.summarize())));
    let indexed = part.live_index(5);
    let store = ObjectStore::open(dir.join("store")).unwrap();
    indexed.persist(&store, "events").unwrap();

    // query through the index in the same program
    let q =
        STObject::from_wkt_interval("POLYGON((10 10, 30 10, 30 30, 10 30, 10 10))", 0, 1_000_000)
            .unwrap();
    let here = indexed.contained_by(&q).count();

    // a "second program": fresh context, loaded index
    let ctx2 = Context::with_parallelism(2);
    let reloaded: IndexedSpatialRdd<(u64, String)> =
        IndexedSpatialRdd::load(&ctx2, &store, "events").unwrap();
    assert_eq!(reloaded.contained_by(&q).count(), here);
    assert_eq!(reloaded.count(), 800);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine metrics tell the §2.1 pruning story end to end.
#[test]
fn pruning_reduces_work_measurably() {
    let ctx = ctx();
    let data = ctx.parallelize(dataset(5000, 7), 8);
    let srdd = data.spatial();
    let part = srdd.partition_by(Arc::new(GridPartitioner::build(6, &srdd.summarize())));
    part.count();

    // tiny query window: most of the 36 partitions must be pruned
    let q =
        STObject::from_wkt_interval("POLYGON((1 1, 6 1, 6 6, 1 6, 1 1))", 0, 1_000_000).unwrap();
    let before = ctx.metrics();
    part.filter(&q, STPredicate::ContainedBy).count();
    let delta = ctx.metrics().diff(&before);
    assert!(
        delta.partitions_pruned >= 20,
        "expected most partitions pruned, got {}",
        delta.partitions_pruned
    );
}

/// The GeoSpark duplicate bug reproduction: without dedup, replicated
/// objects yield varying (inflated) result counts, as §3 observed.
#[test]
fn geospark_bug_reproduction() {
    let ctx = ctx();
    // rectangles spanning several tiles
    let regions: Vec<(STObject, (u64, String))> = EventGenerator::new(8)
        .rect_regions(120, 30.0, &Envelope::from_bounds(0.0, 0.0, 100.0, 100.0))
        .into_iter()
        .map(|e| e.to_pair())
        .collect();
    let rdd = ctx.parallelize(regions, 4);
    let scheme = RegionScheme::grid(4, &Envelope::from_bounds(0.0, 0.0, 100.0, 100.0));

    let correct =
        geospark_join(&rdd, &rdd, &scheme, STPredicate::Intersects, GeoSparkConfig::default())
            .count();
    let buggy = geospark_join(
        &rdd,
        &rdd,
        &scheme,
        STPredicate::Intersects,
        GeoSparkConfig { dedup: false, ..Default::default() },
    )
    .count();
    assert!(buggy > correct, "buggy={buggy} correct={correct}");

    // and the correct count equals STARK's
    let stark = rdd.spatial().self_join(STPredicate::Intersects, JoinConfig::default()).count();
    assert_eq!(stark, correct);
}

/// Haversine kNN on world data returns plausible geography.
#[test]
fn haversine_knn_world() {
    let ctx = ctx();
    let pairs: Vec<(STObject, (u64, String))> =
        EventGenerator::new(9).world_events(3000).into_iter().map(|e| e.to_pair()).collect();
    let rdd = ctx.parallelize(pairs, 8).spatial();
    let berlin = STObject::point(13.4, 52.5);
    let nn = rdd.knn(&berlin, 10, DistanceFn::Haversine);
    assert_eq!(nn.len(), 10);
    // all ten nearest events are in Europe (the dataset is dense there)
    for (d, (o, _)) in &nn {
        assert!(*d < 3_000_000.0, "nearest event {o} is {d} m away");
        let c = o.centroid();
        assert!(c.x > -25.0 && c.x < 45.0 && c.y > 30.0, "unexpected location {c}");
    }
    // distances ascend
    assert!(nn.windows(2).all(|w| w[0].0 <= w[1].0));
}

/// Balance statistics across partitioners on skewed data, through the
/// real shuffle path.
#[test]
fn bsp_balances_skew_better_than_grid() {
    let ctx = ctx();
    let pairs: Vec<(STObject, (u64, String))> =
        EventGenerator::new(10).world_events(6000).into_iter().map(|e| e.to_pair()).collect();
    let rdd = ctx.parallelize(pairs, 8).spatial();
    let summary = rdd.summarize();

    let bsp = BspPartitioner::build(300, 1.0, &summary);
    let dims = (bsp.num_partitions() as f64).sqrt().ceil() as usize;
    let grid = GridPartitioner::build(dims, &summary);

    let max_of = |p: Arc<dyn SpatialPartitioner>| {
        let counts = rdd.partition_by(p).rdd().count_per_partition();
        counts.into_iter().max().unwrap_or(0)
    };
    let bsp_max = max_of(Arc::new(bsp));
    let grid_max = max_of(Arc::new(grid));
    assert!(bsp_max < grid_max, "bsp max {bsp_max} should be under grid max {grid_max}");
}

/// Voronoi scheme construction + join through the whole baseline stack.
#[test]
fn voronoi_geospark_pipeline() {
    let ctx = ctx();
    let data = ctx.parallelize(dataset(900, 11), 6);
    let sample: Vec<Coord> = data.collect().iter().map(|(o, _)| o.centroid()).collect();
    let scheme = RegionScheme::voronoi(8, &sample, 3);
    let joined =
        geospark_join(&data, &data, &scheme, STPredicate::Intersects, GeoSparkConfig::default());
    let stark = data.spatial().self_join(STPredicate::Intersects, JoinConfig::default());
    assert_eq!(joined.count(), stark.count());
}

/// `repro` refuses a size it cannot parse instead of silently running
/// the default scale, and names the argument it rejected.
#[test]
fn repro_rejects_an_unparsable_size() {
    let repro = || std::process::Command::new(env!("CARGO_BIN_EXE_repro"));
    let out = repro().args(["features", "20k"]).output().expect("run repro");
    assert_eq!(out.status.code(), Some(2), "unparsable size must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"20k\""), "names the argument");

    let out = repro().arg("features").output().expect("run repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("persistent indexing"));
}

/// Experiments whose paths the repo benchmark measures are gone from
/// `repro`: naming one is an unknown experiment.
#[test]
fn repro_lists_experiments_for_a_retired_name() {
    for name in ["columnar", "ivm", "distributed", "service"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg(name)
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{name} must be unknown");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("try: all, features"), "{name}: {stderr}");
    }
}
