//! The per-layer ledger: unit costs of each crate's public functions,
//! timed from outside on the traced workload's own inputs.
//!
//! Every measurement calls through `layers.rs`, gets an equal share of
//! the ledger's time budget, and reports total time over total units, so
//! a longer budget only tightens the numbers. Inputs the sample does not
//! contain (a query polygon, stream batches, the served relation) are
//! derived from it or from the run's seed.

use crate::layers::{
    self, DistJob, DistanceFn, Engine, Event, EventRow, FetchPair, FrameEcho, Incremental,
    LocalPiglet, LocalRows, Partitioning, Pool, Relation, STPredicate, Session, SpatialData, Store,
    StreamOperators,
};
use crate::scratch_dir;
use crate::sizing::{Sizing, PARALLELISM, TIME_RANGE};
use crate::workloads::stream;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Number of equal time slices the budget is cut into (one per
/// measurement group below).
const SLICES: u32 = 30;

/// Entries per tree in the index measurements: the scale of one
/// partition's live index in the workloads (50k points over ~100 cells).
const PARTITION_ENTRIES: usize = 512;

/// Runs `f` until `slice` is spent, at least once; returns seconds per call.
fn per_call(slice: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        if start.elapsed() >= slice {
            return start.elapsed().as_secs_f64() / calls as f64;
        }
    }
}

/// Like [`per_call`], but `prepare` runs outside the clock before each call.
fn per_prepared_call<T>(
    slice: Duration,
    mut prepare: impl FnMut() -> T,
    mut f: impl FnMut(T),
) -> f64 {
    let start = Instant::now();
    let (mut busy, mut calls) = (Duration::ZERO, 0u64);
    loop {
        let input = prepare();
        let t0 = Instant::now();
        f(input);
        busy += t0.elapsed();
        calls += 1;
        if start.elapsed() >= slice {
            return busy.as_secs_f64() / calls as f64;
        }
    }
}

/// Cycles `rows` up to `target` rows, re-numbering ids so they stay unique.
fn grow(rows: &[EventRow], target: usize) -> Vec<EventRow> {
    (0..target)
        .map(|i| {
            let (obj, (_, category)) = &rows[i % rows.len()];
            (obj.clone(), (i as u64, category.clone()))
        })
        .collect()
}

pub fn run(sample: &[Event], size: &Sizing, seed: u64, budget_s: f64) -> BTreeMap<String, f64> {
    assert!(!sample.is_empty(), "a workload hands the ledger its own events");
    let slice = Duration::from_secs_f64(budget_s / f64::from(SLICES));
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        out.insert(name.to_string(), value);
    };

    let rows = layers::to_rows(sample);
    let n = rows.len();
    let geoms: Vec<_> = sample.iter().map(|e| layers::event_geometry(e).clone()).collect();
    let envelopes: Vec<_> = geoms.iter().map(layers::envelope_of).collect();
    let centroids: Vec<_> = geoms.iter().map(layers::centroid_of).collect();
    let (min_x, min_y, max_x, max_y) = {
        let (mut a, mut b, mut c, mut d) = (f64::MAX, f64::MAX, f64::MIN, f64::MIN);
        for p in &centroids {
            (a, b, c, d) = (a.min(p.x), b.min(p.y), c.max(p.x), d.max(p.y));
        }
        (a, b, c, d)
    };
    let space = layers::bounds(min_x, min_y, max_x, max_y);
    let (w, h) = (max_x - min_x, max_y - min_y);
    // a query polygon over the middle ~25 % of the sample's extent
    let poly = layers::rect(min_x + w * 0.25, min_y + h * 0.25, min_x + w * 0.75, min_y + h * 0.75);
    let region = layers::timed_region(poly.clone(), 0, TIME_RANGE);
    // the probe radius the join workloads use, relative to the extent
    let radius = size.join_distance * w.max(h) / crate::sizing::SPACE_SIDE;

    // ---- stark-eventsim ---------------------------------------------------
    {
        let secs = per_call(slice, || {
            let mut g = layers::Generator::new(seed);
            black_box(g.clustered(n, size.join_clusters, size.join_sigma, &space));
        });
        put("eventsim.gen_rec_per_s", n as f64 / secs);
    }

    // ---- stark-geo ----------------------------------------------------------
    {
        let secs = per_call(slice / 2, || {
            for g in &geoms {
                black_box(layers::geo_intersects(g, &poly));
            }
        });
        put("geo.intersects_pt_poly_ns", secs * 1e9 / n as f64);
        let secs = per_call(slice / 2, || {
            for g in &geoms {
                black_box(layers::geo_contains(&poly, g));
            }
        });
        put("geo.contains_poly_pt_ns", secs * 1e9 / n as f64);
    }
    {
        let boxes: Vec<_> = centroids
            .iter()
            .step_by(8)
            .map(|c| layers::rect(c.x - radius, c.y - radius, c.x + radius, c.y + radius))
            .collect();
        let secs = per_call(slice, || {
            for b in &boxes {
                black_box(layers::geo_intersects(b, &poly));
            }
        });
        put("geo.intersects_poly_poly_ns", secs * 1e9 / boxes.len() as f64);
    }
    for (name, f) in [
        ("geo.distance_euclid_ns", DistanceFn::Euclidean),
        ("geo.haversine_ns", DistanceFn::Haversine),
    ] {
        let secs = per_call(slice / 2, || {
            for pair in geoms.windows(2) {
                black_box(layers::geo_distance(f, &pair[0], &pair[1]));
            }
        });
        put(name, secs * 1e9 / (n - 1).max(1) as f64);
    }
    {
        let texts: Vec<String> = geoms.iter().map(layers::wkt_write).collect();
        let bytes: usize = texts.iter().map(String::len).sum();
        let secs = per_call(slice / 2, || {
            for g in &geoms {
                black_box(layers::wkt_write(g));
            }
        });
        put("geo.wkt_write_mb_s", bytes as f64 / 1e6 / secs);
        let secs = per_call(slice / 2, || {
            for t in &texts {
                black_box(layers::wkt_parse(t));
            }
        });
        put("geo.wkt_parse_mb_s", bytes as f64 / 1e6 / secs);
    }

    // ---- stark-index --------------------------------------------------------
    // Every index the workloads build is per partition (live join index,
    // the stream state's trees, DBSCAN's local tree), so the unit costs
    // are taken on partition-sized trees: x-sorted strips of the sample.
    {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| centroids[a].x.total_cmp(&centroids[b].x));
        let strips: Vec<Vec<usize>> =
            order.chunks(PARTITION_ENTRIES).map(<[usize]>::to_vec).collect();
        let strip_envelopes: Vec<Vec<_>> =
            strips.iter().map(|s| s.iter().map(|&i| envelopes[i]).collect()).collect();
        let secs = per_call(slice, || {
            for e in &strip_envelopes {
                black_box(layers::tree_build(e));
            }
        });
        put("index.build_ns_per_entry", secs * 1e9 / n as f64);
        let trees: Vec<_> = strip_envelopes.iter().map(|e| layers::tree_build(e)).collect();
        let probe = |i: usize| {
            let c = &centroids[i];
            layers::bounds(c.x - radius, c.y - radius, c.x + radius, c.y + radius)
        };
        let probes: Vec<Vec<_>> =
            strips.iter().map(|s| s.iter().map(|&i| probe(i)).collect()).collect();
        let mut candidates = 0usize;
        let secs = per_call(slice, || {
            candidates = trees
                .iter()
                .zip(&probes)
                .map(|(t, ps)| ps.iter().map(|p| layers::tree_query(t, p)).sum::<usize>())
                .sum();
        });
        put("index.query_ns", secs * 1e9 / n as f64);
        // a hit is a candidate the exact predicate keeps
        let within = STPredicate::within_distance(radius);
        let mut hits = 0usize;
        for ((tree, strip), probes) in trees.iter().zip(&strips).zip(&probes) {
            for (&i, probe) in strip.iter().zip(probes) {
                layers::tree_for_each(tree, probe, |j| {
                    hits += usize::from(layers::eval(&within, &rows[i].0, &rows[strip[j]].0));
                });
            }
        }
        put("index.query_candidates_per_hit", candidates as f64 / hits.max(1) as f64);
        let secs = per_call(slice, || {
            for (tree, strip) in trees.iter().zip(&strips) {
                for &i in strip {
                    black_box(layers::tree_knn(tree, &centroids[i], 10));
                }
            }
        });
        put("index.knn_ns", secs * 1e9 / n as f64);
        let mut bytes = 0usize;
        let secs = per_call(slice, || {
            bytes = trees.iter().map(layers::tree_serde_roundtrip).sum();
        });
        put("index.serde_mb_s", bytes as f64 / 1e6 / secs);
    }

    // ---- stark-core, batch API ----------------------------------------------
    let engine = Engine::new(PARALLELISM);
    let bsp = Partitioning::Bsp { max_cost: (n / 64).max(16), side_length: radius * 4.0 };
    let grid = Partitioning::Grid { dims: size.scan_grid_dims };
    for (name, how) in [("core.partition_bsp_ms", bsp), ("core.partition_grid_ms", grid)] {
        let secs = per_prepared_call(
            slice,
            || rows.clone(),
            |rows| {
                black_box(SpatialData::build(&engine, rows, how).num_partitions());
            },
        );
        put(name, secs * 1e3);
    }
    {
        let secs = per_call(slice / 2, || {
            black_box(layers::clone_rows(&rows));
        });
        put("core.row_clone_ns", secs * 1e9 / n as f64);
        let secs = per_call(slice / 2, || {
            black_box(layers::columnar_build(&rows));
        });
        put("core.columnar.build_ns_per_row", secs * 1e9 / n as f64);
        let cols = layers::columnar_build(&rows);
        let mut refined = 0usize;
        let secs = per_call(slice, || {
            refined = layers::columnar_filter(&cols, &rows, &STPredicate::ContainedBy, &region).1;
        });
        put("core.columnar.filter_rows_per_s", n as f64 / secs);
        put("core.columnar.refined_frac", refined as f64 / n as f64);
    }
    {
        let data = SpatialData::build(&engine, rows.clone(), bsp);
        let within = STPredicate::within_distance(radius);
        let mut pairs = 0usize;
        let secs = per_call(slice, || pairs = data.self_join_count(within));
        put("core.join.pairs_per_s", pairs as f64 / secs);
        let focus = layers::point(min_x + w * 0.4, min_y + h * 0.6);
        let secs = per_call(slice, || {
            black_box(data.knn(&focus, 20));
        });
        put("core.knn.ms", secs * 1e3);
    }
    {
        let few = SpatialData::build(&engine, rows[..n.min(3000)].to_vec(), bsp);
        let secs = per_call(slice, || {
            black_box(few.dbscan_clusters(radius * 2.0, 5));
        });
        put("core.dbscan.ms", secs * 1e3);
    }

    // ---- stark-core, incremental index ----------------------------------------
    {
        let chunk = (n / 5).max(1);
        let (mut insert_s, mut refresh_s, mut rebuilt, mut rounds) = (0.0, 0.0, 0usize, 0usize);
        let mut partitions = 1usize;
        let start = Instant::now();
        while rounds == 0 || start.elapsed() < slice {
            let mut index = Incremental::new(&space, 8);
            partitions = index.num_partitions();
            for batch in rows.chunks(chunk) {
                let t0 = Instant::now();
                index.insert(batch);
                insert_s += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                rebuilt += index.refresh();
                refresh_s += t1.elapsed().as_secs_f64();
                rounds += 1;
            }
        }
        let inserted = (rounds * chunk) as f64;
        put("core.incremental.insert_ns_per_rec", insert_s * 1e9 / inserted);
        put("core.incremental.refresh_ms", refresh_s * 1e3 / rounds as f64);
        put("core.incremental.rebuilt_frac", rebuilt as f64 / (rounds * partitions) as f64);
    }

    // ---- stark-core, distributed registry (row path) --------------------------
    let dist_rows = &rows[..n.min(size.dist_rows)];
    let join_radius = size.dist_join_distance * w.max(h) / crate::sizing::SPACE_SIDE;
    let job = DistJob::new(
        dist_rows,
        size.dist_map_tasks,
        size.dist_grid_dims,
        &region,
        STPredicate::within_distance(join_radius),
    );
    {
        let local = LocalRows::new(&engine, dist_rows);
        let secs = per_call(slice / 2, || {
            black_box(job.local_filter(&local));
        });
        put("core.dist.st_filter_rows_per_s", dist_rows.len() as f64 / secs);
        let cells = job.cells(dist_rows);
        let within = STPredicate::within_distance(join_radius);
        let mut pairs = 0usize;
        let secs = per_call(slice / 2, || {
            pairs = cells.iter().map(|c| layers::self_join_pairs(c, within).len()).sum();
        });
        put("core.dist.self_join_pairs_per_s", pairs.max(1) as f64 / secs);
    }

    // ---- stark-engine, in-process ---------------------------------------------
    {
        let tasks = 16;
        let secs = per_call(slice / 3, || {
            black_box(engine.empty_job(tasks));
        });
        put("engine.task.dispatch_us", secs * 1e6 / tasks as f64);
        let count = 200_000u64.min(n as u64 * 10);
        let numbers = engine.numbers(count, PARALLELISM * 2);
        let secs = per_call(slice / 3, || {
            black_box(numbers.fused_chain());
        });
        put("engine.fused.ns_per_rec_op", secs * 1e9 / (count * 3) as f64);
        let secs = per_call(slice / 3, || {
            black_box(numbers.local_shuffle(16));
        });
        put("engine.shuffle.local_rows_per_s", count as f64 / secs);
    }

    // ---- stark-engine, codec and store ----------------------------------------
    let large_rows = grow(&rows, size.codec_large_rows);
    let large_blob = layers::encode_rows(&large_rows);
    for (tag, subset) in
        [("small", &large_rows[..size.codec_small_rows]), ("large", &large_rows[..])]
    {
        let blob = layers::encode_rows(subset);
        let secs = per_call(slice / 2, || {
            black_box(layers::encode_rows(subset));
        });
        put(&format!("engine.codec.encode_mb_s.{tag}"), blob.len() as f64 / 1e6 / secs);
        let secs = per_call(slice / 2, || {
            black_box(layers::decode_rows(&blob));
        });
        put(&format!("engine.codec.decode_mb_s.{tag}"), blob.len() as f64 / 1e6 / secs);
    }
    put("engine.codec.bytes_per_row", large_blob.len() as f64 / large_rows.len() as f64);
    {
        let store = Store::open(&scratch_dir("ledger-store"));
        let secs = per_call(slice / 2, || store.put("ledger/blob", &large_blob));
        put("engine.store.put_mb_s", large_blob.len() as f64 / 1e6 / secs);
        let secs = per_call(slice / 2, || {
            black_box(store.get("ledger/blob"));
        });
        put("engine.store.get_mb_s", large_blob.len() as f64 / 1e6 / secs);
    }

    // ---- stark-engine, transport ----------------------------------------------
    {
        let mut echo = FrameEcho::start();
        let secs = per_call(slice / 2, || {
            black_box(echo.round_trip(&[0u8; 64]));
        });
        put("engine.frame.rtt_us", secs * 1e6);
        let secs = per_call(slice / 2, || {
            black_box(echo.round_trip(&large_blob));
        });
        // the payload crosses the socket twice per round trip
        put("engine.frame.mb_s", 2.0 * large_blob.len() as f64 / 1e6 / secs);
    }
    {
        let pair = FetchPair::start(&scratch_dir("ledger-fetch"));
        pair.put("ledger/small", &[0u8; 64]);
        pair.put("ledger/large", &large_blob);
        let secs = per_call(slice / 2, || {
            black_box(pair.fetch("ledger/small"));
        });
        put("engine.fetch.rtt_us", secs * 1e6);
        let secs = per_call(slice / 2, || {
            black_box(pair.fetch("ledger/large"));
        });
        put("engine.fetch.mb_s", large_blob.len() as f64 / 1e6 / secs);
    }

    // ---- stark-engine, worker pool (+ the worker runtime) ----------------------
    {
        let (mut spawn, mut shutdown, mut rtt) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while spawn.is_empty() || start.elapsed() < slice * 2 {
            let t0 = Instant::now();
            let mut pool = Pool::spawn(PARALLELISM, &scratch_dir("ledger-pool"));
            spawn.push(t0.elapsed().as_secs_f64() * 1e3);
            rtt.push(per_call(slice / 4, || pool.empty_task()) * 1e3);
            let t1 = Instant::now();
            pool.shutdown();
            shutdown.push(t1.elapsed().as_secs_f64() * 1e3);
        }
        let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
        put("engine.pool.spawn_ms", median(&spawn));
        put("engine.pool.shutdown_ms", median(&shutdown));
        put("engine.pool.task_rtt_ms", median(&rtt));
    }

    // ---- stark-piglet and stark-server -----------------------------------------
    {
        let relation = Relation::from_events(&sample[..n.min(size.service_rows)], 1000);
        let script = "f = FILTER ev BY t == 417;\nx = LIMIT f 5;\nDUMP x;";
        let secs = per_call(slice / 3, || {
            black_box(layers::piglet_parse(script));
        });
        put("piglet.parse_us", secs * 1e6);
        let secs = per_call(slice / 3, || {
            black_box(layers::piglet_normalize(script));
        });
        put("piglet.normalize_us", secs * 1e6);
        let local = LocalPiglet::new(&engine, &relation);
        let prepared = local.prepared(script);
        let secs = per_call(slice / 3, || {
            black_box(prepared.run());
        });
        put("piglet.exec_ms", secs * 1e3);

        let server = layers::Service::start(&engine, &relation, &[("light", 8)], PARALLELISM);
        let mut session = Session::connect(server.addr());
        let trivial = "x = LIMIT ev 1;\nDUMP x;";
        let secs = per_call(slice, || {
            black_box(matches!(session.query("light", trivial), layers::QueryOutcome::Ok { .. }));
        });
        put("server.rtt_floor_ms", secs * 1e3);
    }

    // ---- stark-stream ------------------------------------------------------------
    {
        let inputs = stream::Inputs::generate(seed, size);
        let mut batches = inputs.batches();
        let mut ops = StreamOperators::new(&inputs.params);
        let mut ring: VecDeque<Vec<EventRow>> = VecDeque::new();
        let (mut observe_s, mut query_s, mut join_s, mut rounds) = (0.0, 0.0, 0.0, 0u32);
        let start = Instant::now();
        // fill the retention ring before counting, as the workload's warm-up does
        let warm = size.stream_retention as u32 + 1;
        while rounds < warm + 1 || start.elapsed() < slice * 3 {
            let batch = batches.next_batch();
            ring.push_back(batch.clone());
            let retract = if ring.len() > size.stream_retention { ring.pop_front() } else { None };
            let retract = retract.unwrap_or_default();
            let t0 = Instant::now();
            black_box(ops.observe(&batch, &retract));
            let t1 = Instant::now();
            black_box(ops.queries_on_delta(&batch, &retract));
            let t2 = Instant::now();
            black_box(ops.join_on_delta(&batch, &retract));
            let t3 = Instant::now();
            rounds += 1;
            if rounds > warm {
                observe_s += (t1 - t0).as_secs_f64();
                query_s += (t2 - t1).as_secs_f64();
                join_s += (t3 - t2).as_secs_f64();
            }
        }
        let counted = f64::from(rounds - warm);
        let per_batch = inputs.params.batch_records as f64;
        put("stream.window.observe_ns_per_rec", observe_s * 1e9 / counted / per_batch);
        put("stream.query.on_batch_ms", query_s * 1e3 / counted);
        put("stream.join.on_delta_ms", join_s * 1e3 / counted);
    }

    out
}
