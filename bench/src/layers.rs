//! The one adapter between the benchmark and the crates under test.
//!
//! Every call into `stark-*` goes through this file, and every crate type
//! the rest of the benchmark names is re-exported from here, so an API
//! change in the repository is followed by editing this file alone.
//! Coarse calls (the ones a workload's op is made of) open a harness
//! span; the fine-grained ones the ledger times in tight loops do not.
//!
//! Only the configurations ROADMAP keeps are reachable: fusion and the
//! columnar path stay on, the stream job is incremental, shuffles are
//! `ShuffleMode::Remote`, and workers are this binary re-executed.

use crate::trace::span;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub use stark::{EventRow, STObject, STPredicate};
pub use stark_eventsim::Event;
pub use stark_geo::{Coord, DistanceFn, Envelope, Geometry};

/// The `(id, category)` payload of the paper's running example.
pub type Payload = (u64, String);

// ---------------------------------------------------------------------------
// stark-eventsim
// ---------------------------------------------------------------------------

/// Seeded generator handle; the program under test only ever sees what
/// this produces.
pub struct Generator(stark_eventsim::EventGenerator);

impl Generator {
    pub fn new(seed: u64) -> Generator {
        Generator(stark_eventsim::EventGenerator::new(seed))
    }

    pub fn clustered(&mut self, n: usize, k: usize, sigma: f64, space: &Envelope) -> Vec<Event> {
        self.0.clustered_points(n, k, sigma, space)
    }

    /// One Gaussian hotspot of `n` points centred on `centre`. Drawn with
    /// `clustered_points` in a private frame so wide that nothing is
    /// clamped to its border (a clamped hotspot piles points on a line and
    /// the pile's size would depend on the seed), then moved so that its
    /// mean sits on `centre`.
    pub fn hotspot(&mut self, n: usize, sigma: f64, centre: (f64, f64)) -> Vec<Event> {
        const FRAME: f64 = 1e6;
        let frame = Envelope::from_bounds(-FRAME, -FRAME, FRAME, FRAME);
        let drawn = self.0.clustered_points(n, 1, sigma, &frame);
        let at: Vec<Coord> = drawn.iter().map(|e| e.geometry.centroid()).collect();
        let count = at.len().max(1) as f64;
        let (mx, my) = at.iter().fold((0.0, 0.0), |(x, y), c| (x + c.x / count, y + c.y / count));
        drawn
            .into_iter()
            .zip(at)
            .map(|(e, c)| {
                let moved = Geometry::point(c.x - mx + centre.0, c.y - my + centre.1);
                Event::new(e.id, e.category, e.time, moved)
            })
            .collect()
    }

    pub fn uniform(&mut self, n: usize, space: &Envelope) -> Vec<Event> {
        self.0.uniform_points(n, space)
    }

    pub fn world(&mut self, n: usize) -> Vec<Event> {
        self.0.world_events(n)
    }
}

pub fn world_bounds() -> Envelope {
    stark_eventsim::world_bounds()
}

pub fn bounds(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Envelope {
    Envelope::from_bounds(min_x, min_y, max_x, max_y)
}

/// `(min_x, min_y, max_x, max_y)` of an envelope.
pub fn extent(e: &Envelope) -> (f64, f64, f64, f64) {
    (e.min_x(), e.min_y(), e.max_x(), e.max_y())
}

/// The event a row was mapped from (untimed rows get time 0).
pub fn row_to_event(row: &EventRow) -> Event {
    let (obj, (id, category)) = row;
    Event::new(*id, category.clone(), event_time(obj).unwrap_or(0), obj.geo().clone())
}

pub fn event_csv(e: &Event) -> String {
    e.to_csv_line()
}

pub fn event_geometry(e: &Event) -> &Geometry {
    &e.geometry
}

/// Centroid of an object as `(x, y)`.
pub fn position(o: &STObject) -> (f64, f64) {
    let c = o.centroid();
    (c.x, c.y)
}

/// Start of an object's temporal component, if it has one.
pub fn event_time(o: &STObject) -> Option<i64> {
    o.time().map(|t| t.start())
}

pub fn describe(o: &STObject) -> String {
    o.to_string()
}

pub fn point(x: f64, y: f64) -> STObject {
    STObject::point(x, y)
}

/// Euclidean distance between two objects' geometries.
pub fn distance(a: &STObject, b: &STObject) -> f64 {
    a.distance(b, DistanceFn::Euclidean)
}

pub fn envelope_of(g: &Geometry) -> Envelope {
    g.envelope()
}

pub fn centroid_of(g: &Geometry) -> Coord {
    g.centroid()
}

/// A stream record: the generated event re-identified and stamped with
/// its event time.
pub fn stamped_row(e: Event, id: u64, t: i64) -> EventRow {
    (STObject::with_time(e.geometry, stark::Temporal::instant(t)), (id, e.category))
}

/// The paper's mapping step, `(id, ctgry, time, wkt)` → `(STObject, (id, ctgry))`.
pub fn to_rows(events: &[Event]) -> Vec<EventRow> {
    events.iter().map(Event::to_pair).collect()
}

// ---------------------------------------------------------------------------
// stark-geo
// ---------------------------------------------------------------------------

#[inline]
pub fn geo_intersects(a: &Geometry, b: &Geometry) -> bool {
    a.intersects(b)
}

#[inline]
pub fn geo_contains(a: &Geometry, b: &Geometry) -> bool {
    a.contains(b)
}

#[inline]
pub fn geo_distance(f: DistanceFn, a: &Geometry, b: &Geometry) -> f64 {
    f.distance(a, b)
}

pub fn wkt_parse(text: &str) -> Geometry {
    stark_geo::wkt::parse_wkt(text).expect("the ledger only parses WKT it wrote")
}

pub fn wkt_write(g: &Geometry) -> String {
    stark_geo::wkt::write_wkt(g)
}

/// An axis-parallel rectangle as a polygon geometry.
pub fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Geometry {
    Geometry::rect(min_x, min_y, max_x, max_y)
}

// ---------------------------------------------------------------------------
// stark-index
// ---------------------------------------------------------------------------

pub type PointTree = stark_index::StrTree<u32>;

pub fn tree_build(envelopes: &[Envelope]) -> PointTree {
    let entries =
        envelopes.iter().enumerate().map(|(i, e)| stark_index::Entry::new(*e, i as u32)).collect();
    stark_index::StrTree::build(stark_index::DEFAULT_ORDER, entries)
}

/// Calls `f` with the item index of every candidate of `probe`.
#[inline]
pub fn tree_for_each(tree: &PointTree, probe: &Envelope, mut f: impl FnMut(usize)) {
    tree.for_each_candidate(probe, &mut |e| f(e.item as usize));
}

/// Number of candidates the probe returns.
#[inline]
pub fn tree_query(tree: &PointTree, probe: &Envelope) -> usize {
    let mut n = 0;
    tree_for_each(tree, probe, |_| n += 1);
    n
}

#[inline]
pub fn tree_knn(tree: &PointTree, target: &Coord, k: usize) -> usize {
    tree.nearest_k(target, k).len()
}

/// Serde round trip of a tree; returns the encoded size.
pub fn tree_serde_roundtrip(tree: &PointTree) -> usize {
    let bytes = serde_json::to_vec(tree).expect("trees serialise");
    let back: PointTree = serde_json::from_slice(&bytes).expect("and deserialise");
    assert_eq!(back.len(), tree.len());
    bytes.len()
}

// ---------------------------------------------------------------------------
// stark-engine (in-process) + stark-core batch API
// ---------------------------------------------------------------------------

/// In-process engine handle.
#[derive(Clone)]
pub struct Engine(stark_engine::Context);

impl Engine {
    pub fn new(parallelism: usize) -> Engine {
        Engine(stark_engine::Context::with_parallelism(parallelism))
    }

    /// The engine counters now, to take a delta from later.
    pub fn mark(&self) -> EngineMark {
        EngineMark(self.0.metrics())
    }

    /// What the engine counted since `mark`.
    pub fn since(&self, mark: &EngineMark) -> EngineDelta {
        let d = self.0.metrics().diff(&mark.0);
        EngineDelta {
            tasks_launched: d.tasks_launched,
            partitions_pruned: d.partitions_pruned,
            task_nanos: d.task_nanos,
            job_nanos: d.job_nanos,
            records_cloned: d.records_cloned,
            rows_scanned_columnar: d.rows_scanned_columnar,
        }
    }

    /// One job over `partitions` empty partitions, i.e. pure task dispatch.
    pub fn empty_job(&self, partitions: usize) -> usize {
        self.0.parallelize(Vec::<u64>::new(), partitions).count()
    }

    /// A cached dataset for [`Engine::fused_chain`] and
    /// [`Engine::local_shuffle`].
    pub fn numbers(&self, n: u64, partitions: usize) -> Numbers {
        let rdd = self.0.parallelize((0..n).collect::<Vec<u64>>(), partitions).cache();
        rdd.count();
        Numbers(rdd)
    }
}

pub struct EngineMark(stark_engine::MetricsSnapshot);

/// The `Context::metrics()` deltas the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineDelta {
    pub tasks_launched: u64,
    pub partitions_pruned: u64,
    pub task_nanos: u64,
    pub job_nanos: u64,
    pub records_cloned: u64,
    pub rows_scanned_columnar: u64,
}

pub struct Numbers(stark_engine::Rdd<u64>);

impl Numbers {
    /// map → filter → map over every record, fused into one pass.
    pub fn fused_chain(&self) -> usize {
        self.0.map(|x| x.wrapping_mul(31)).filter(|x| x % 7 != 0).map(|x| x ^ 0x5bd1).count()
    }

    /// In-process hash shuffle of every record into `partitions` buckets.
    pub fn local_shuffle(&self, partitions: usize) -> usize {
        self.0.partition_by(partitions, move |x| (*x as usize) % partitions).count()
    }
}

/// How a batch dataset is spatially partitioned.
#[derive(Debug, Clone, Copy)]
pub enum Partitioning {
    /// Cost-based binary space partitioning (paper §2.1).
    Bsp { max_cost: usize, side_length: f64 },
    /// Equal-width grid of `dims × dims` cells.
    Grid { dims: usize },
}

/// A spatially partitioned, cached `(STObject, Payload)` dataset.
pub struct SpatialData {
    srdd: stark::SpatialRdd<Payload>,
}

impl SpatialData {
    /// parallelize → summarize → build partitioner → shuffle → cache,
    /// and one count so every partition is materialised.
    pub fn build(engine: &Engine, rows: Vec<EventRow>, how: Partitioning) -> SpatialData {
        use stark::SpatialRddExt;
        let _s = span("core.partition");
        let plain = engine.0.parallelize(rows, engine.0.parallelism() * 2).spatial();
        let summary = plain.summarize();
        let partitioner: Arc<dyn stark::SpatialPartitioner> = match how {
            Partitioning::Bsp { max_cost, side_length } => {
                Arc::new(stark::BspPartitioner::build(max_cost, side_length, &summary))
            }
            Partitioning::Grid { dims } => Arc::new(stark::GridPartitioner::build(dims, &summary)),
        };
        let srdd = plain.partition_by(partitioner);
        srdd.count();
        SpatialData { srdd }
    }

    pub fn num_partitions(&self) -> usize {
        self.srdd.num_partitions()
    }

    /// F4: `self_join(pred)` with the live index, counted.
    pub fn self_join_count(&self, pred: STPredicate) -> usize {
        let _s = span("core.self_join");
        self.srdd.self_join(pred, stark::JoinConfig::default()).count()
    }

    /// One filter pass (pruning + columnar kernels), counted.
    pub fn filter_count(&self, query: &STObject, pred: STPredicate) -> usize {
        let _s = span("core.filter");
        self.srdd.filter(query, pred).count()
    }

    pub fn knn(&self, query: &STObject, k: usize) -> usize {
        self.srdd.knn(query, k, DistanceFn::Euclidean).len()
    }

    pub fn dbscan_clusters(&self, eps: f64, min_pts: usize) -> usize {
        let labelled =
            stark::cluster::dbscan(&self.srdd, stark::cluster::DbscanParams::new(eps, min_pts));
        labelled.count()
    }
}

/// Query objects as the workloads phrase them.
pub fn timed_region(g: Geometry, begin: i64, end: i64) -> STObject {
    STObject::with_time(g, stark::Temporal::interval(begin, end))
}

pub fn haversine_within(max_dist_m: f64) -> STPredicate {
    STPredicate::WithinDistance { max_dist: max_dist_m, dist_fn: DistanceFn::Haversine }
}

/// The specification predicate the oracles evaluate row by row.
#[inline]
pub fn eval(pred: &STPredicate, left: &STObject, right: &STObject) -> bool {
    pred.eval(left, right)
}

/// What materialising result rows costs: one deep clone per row.
pub fn clone_rows(rows: &[EventRow]) -> Vec<EventRow> {
    rows.to_vec()
}

/// Columnar sidecar of one partition's rows.
pub struct Columns(stark::ColumnarBatch);

pub fn columnar_build(rows: &[EventRow]) -> Columns {
    Columns(stark::ColumnarBatch::build(rows))
}

/// Applies one predicate over the batch; returns `(selected, refined)`
/// where `refined` counts the lanes the kernels could not decide.
pub fn columnar_filter(
    cols: &Columns,
    rows: &[EventRow],
    pred: &STPredicate,
    query: &STObject,
) -> (usize, usize) {
    let mut sel = stark_geo::SelectionBitmap::all_set(rows.len());
    let mut refined = 0usize;
    cols.0.apply_filter(pred, query, &mut sel, |i| {
        refined += 1;
        pred.eval(&rows[i].0, query)
    });
    (sel.count(), refined)
}

// ---------------------------------------------------------------------------
// stark-core incremental index (the stream path's write side)
// ---------------------------------------------------------------------------

/// STR-tree node capacity of the stream path's per-partition trees (the
/// S6/S13 experiments' value).
const TREE_ORDER: usize = 16;

fn grid_over(space: &Envelope, dims: usize) -> Arc<dyn stark::SpatialPartitioner> {
    Arc::new(stark::GridPartitioner::with_space(dims, *space))
}

pub struct Incremental(stark::IncrementalIndex<Payload>);

impl Incremental {
    pub fn new(space: &Envelope, dims: usize) -> Incremental {
        Incremental(stark::IncrementalIndex::new(grid_over(space, dims), TREE_ORDER))
    }

    pub fn insert(&mut self, rows: &[EventRow]) -> usize {
        self.0.insert_batch(rows.iter().cloned())
    }

    /// Rebuilds dirty partition trees; returns how many were rebuilt.
    pub fn refresh(&mut self) -> usize {
        self.0.refresh()
    }

    pub fn num_partitions(&self) -> usize {
        self.0.num_partitions()
    }
}

// ---------------------------------------------------------------------------
// stark-engine codec / store / transport
// ---------------------------------------------------------------------------

pub fn encode_rows(rows: &[EventRow]) -> Vec<u8> {
    stark_engine::plan::encode_rows(rows).expect("event rows encode")
}

pub fn decode_rows(bytes: &[u8]) -> Vec<EventRow> {
    stark_engine::plan::decode_rows(bytes).expect("event rows decode")
}

pub struct Store(stark_engine::ObjectStore);

impl Store {
    pub fn open(root: &Path) -> Store {
        Store(stark_engine::ObjectStore::open(root).expect("object store opens under bench/out"))
    }

    pub fn put(&self, key: &str, data: &[u8]) {
        self.0.put_bytes(key, data).expect("blob write");
    }

    pub fn get(&self, key: &str) -> Vec<u8> {
        self.0.get_bytes(key).expect("blob read")
    }
}

/// A connected loopback socket pair carrying STK1 frames, with an echo
/// thread on the far side: the floor under every driver ↔ worker message.
pub struct FrameEcho {
    stream: std::net::TcpStream,
    reader: std::io::BufReader<std::net::TcpStream>,
    echo: Option<std::thread::JoinHandle<()>>,
}

impl FrameEcho {
    pub fn start() -> FrameEcho {
        use stark_engine::transport::{read_frame, write_frame};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let echo = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else { return };
            stream.set_nodelay(true).ok();
            let Ok(read_half) = stream.try_clone() else { return };
            let mut reader = std::io::BufReader::new(read_half);
            let mut writer = stream;
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if write_frame(&mut writer, &frame).is_err() {
                    break;
                }
            }
        });
        let stream = std::net::TcpStream::connect(addr).expect("connect loopback");
        stream.set_nodelay(true).ok();
        let reader = std::io::BufReader::new(stream.try_clone().expect("clone socket"));
        FrameEcho { stream, reader, echo: Some(echo) }
    }

    /// One framed round trip of `payload`.
    pub fn round_trip(&mut self, payload: &[u8]) -> usize {
        use stark_engine::transport::{read_frame, write_frame};
        write_frame(&mut self.stream, payload).expect("frame write");
        read_frame(&mut self.reader).expect("frame read").expect("echo alive").len()
    }
}

impl Drop for FrameEcho {
    fn drop(&mut self) {
        // closing our half ends the echo loop; then wait for the thread
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.echo.take() {
            let _ = h.join();
        }
    }
}

/// A worker-side shuffle bucket server plus a fetch client, in-process.
pub struct FetchPair {
    server: Arc<stark_engine::ShuffleEnv>,
    client: Arc<stark_engine::ShuffleEnv>,
    addr: String,
}

impl FetchPair {
    pub fn start(root: &Path) -> FetchPair {
        let open = |dir: PathBuf| {
            stark_engine::ShuffleEnv::new(&dir, stark_engine::FetchConfig::default(), None)
                .expect("shuffle store opens under bench/out")
        };
        let server = open(root.join("serve"));
        let port = server.serve().expect("shuffle server binds loopback");
        FetchPair { server, client: open(root.join("fetch")), addr: format!("127.0.0.1:{port}") }
    }

    pub fn put(&self, key: &str, data: &[u8]) {
        self.server.put_bucket(key, 0, data).expect("bucket write");
    }

    pub fn fetch(&self, key: &str) -> usize {
        self.client.fetch(&self.addr, key, 0).expect("bucket fetch").len()
    }
}

// ---------------------------------------------------------------------------
// stark-engine worker pool + stark-core distributed registry
// ---------------------------------------------------------------------------

/// Whether this process was forked by a [`Pool`] (the supervisor's worker
/// command line starts with `--addr`).
pub fn is_worker_invocation(args: &[String]) -> bool {
    args.first().is_some_and(|a| a == "--addr")
}

/// Runs this process as a worker serving the `i64` and `event` schemas —
/// what `stark-worker` does, hosted here so the benchmark never depends
/// on which profile directory another package's binary was built into.
pub fn worker_main(args: Vec<String>) -> std::io::Result<()> {
    let mut rt = stark_engine::worker::WorkerRuntime::new();
    rt.register(Box::new(stark_engine::plan::int_registry()));
    rt.register(Box::new(stark::event_registry()));
    stark_engine::worker::run_from_args(&rt, args.into_iter())
}

pub struct Pool(stark_engine::WorkerPool);

#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    pub tasks_dispatched: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    pub fetched_bytes: u64,
    /// Task retries, reassignments and fetch re-attempts.
    pub retries: u64,
}

impl PoolCounters {
    pub fn since(&self, before: &PoolCounters) -> PoolCounters {
        PoolCounters {
            tasks_dispatched: self.tasks_dispatched - before.tasks_dispatched,
            bytes_tx: self.bytes_tx - before.bytes_tx,
            bytes_rx: self.bytes_rx - before.bytes_rx,
            fetched_bytes: self.fetched_bytes - before.fetched_bytes,
            retries: self.retries - before.retries,
        }
    }
}

impl Pool {
    /// Forks `workers` copies of this binary and completes their handshakes.
    pub fn spawn(workers: usize, store_root: &Path) -> Pool {
        let _s = span("engine.pool.spawn");
        let exe = std::env::current_exe().expect("own executable path");
        let mut cfg = stark_engine::WorkerPoolConfig::new(exe);
        cfg.workers = workers;
        cfg.store_root = Some(store_root.to_path_buf());
        Pool(stark_engine::WorkerPool::spawn(cfg).expect("worker pool spawns"))
    }

    /// The `PoolStats` counters the benchmark reads.
    pub fn counters(&self) -> PoolCounters {
        let s = self.0.stats();
        PoolCounters {
            tasks_dispatched: s.tasks_dispatched,
            bytes_tx: s.bytes_tx,
            bytes_rx: s.bytes_rx,
            fetched_bytes: s.shuffle_bytes_fetched_remote,
            retries: s.tasks_retried + s.tasks_reassigned + s.fetch_retries,
        }
    }

    /// One empty `i64` task: dispatch → execute → answer.
    pub fn empty_task(&mut self) {
        use stark_engine::plan::{PlanFragment, PlanInput, PlanSink};
        let task = stark_engine::DistTask::with_rows(
            PlanFragment {
                schema: "i64".into(),
                input: PlanInput::Inline,
                ops: Vec::new(),
                sink: PlanSink::Count,
            },
            b"[]".to_vec(),
        );
        self.0.execute(&[task]).expect("empty task");
    }

    pub fn shutdown(self) {
        let _s = span("engine.pool.shutdown");
        self.0.shutdown();
    }
}

/// The `dist` pipeline's two shuffle jobs over one row set.
pub struct DistJob {
    map_tasks: Vec<stark_engine::DistTask>,
    a1: stark_engine::ShuffleSpec,
    f4: stark_engine::ShuffleSpec,
    grid: stark::GridPartitioner,
}

impl DistJob {
    pub fn new(
        rows: &[EventRow],
        map_tasks: usize,
        grid_dims: usize,
        filter_query: &STObject,
        join_pred: STPredicate,
    ) -> DistJob {
        use stark::distributed::{to_arg, SelfJoinArg, StFilterArg};
        use stark::SpatialPartitioner;
        use stark_engine::plan::{PlanFragment, PlanInput, PlanOp, PlanSink};
        use stark_engine::{DistTask, ShuffleMode, ShuffleSpec};

        let summary: stark::DataSummary =
            rows.iter().map(|(o, _)| (o.envelope(), o.centroid())).collect();
        let grid = stark::GridPartitioner::build(grid_dims, &summary);
        let chunk = rows.len().div_ceil(map_tasks.max(1)).max(1);
        let map_tasks: Vec<DistTask> = rows
            .chunks(chunk)
            .map(|chunk| {
                DistTask::with_rows(
                    PlanFragment {
                        schema: stark::EVENT_SCHEMA.into(),
                        input: PlanInput::Inline,
                        ops: Vec::new(),
                        sink: PlanSink::Collect, // replaced by run_shuffle
                    },
                    encode_rows(chunk),
                )
            })
            .collect();
        let spec = |prefix: &str, reduce_ops: Vec<PlanOp>, reduce_sink: PlanSink| ShuffleSpec {
            mode: ShuffleMode::Remote,
            partitioner: "grid".into(),
            partitioner_arg: to_arg(&grid),
            num_partitions: grid.num_partitions(),
            prefix: prefix.into(),
            reduce_ops,
            reduce_sink,
        };
        let filter = PlanOp::Filter {
            op: "st_filter".into(),
            arg: to_arg(&StFilterArg {
                query: filter_query.clone(),
                predicate: STPredicate::ContainedBy,
            }),
        };
        let join = PlanSink::CollectWith {
            op: "self_join_pairs".into(),
            arg: to_arg(&SelfJoinArg { predicate: join_pred }),
        };
        DistJob {
            map_tasks,
            a1: spec("bench/a1", vec![filter], PlanSink::Collect),
            f4: spec("bench/f4", Vec::new(), join),
            grid,
        }
    }

    pub fn num_partitions(&self) -> usize {
        use stark::SpatialPartitioner;
        self.grid.num_partitions()
    }

    pub fn map_tasks(&self) -> usize {
        self.map_tasks.len()
    }

    /// `rows` grouped by the grid cell each is routed to — what a reduce
    /// task sees, and what the oracle joins cell by cell.
    pub fn cells(&self, rows: &[EventRow]) -> Vec<Vec<EventRow>> {
        use stark::SpatialPartitioner;
        let mut cells = vec![Vec::new(); self.grid.num_partitions()];
        for row in rows {
            cells[self.grid.partition_of(&row.0)].push(row.clone());
        }
        cells
    }

    /// A1 through the pool: shuffle, per-partition `st_filter`, collect.
    /// Returns the surviving ids, sorted.
    pub fn run_a1(&self, pool: &mut Pool) -> Result<Vec<u64>, String> {
        let _s = span("engine.pool.job.a1");
        let results = pool.0.run_shuffle(&self.map_tasks, &self.a1).map_err(|e| e.to_string())?;
        let mut ids = Vec::new();
        for r in &results {
            let payload = r.payload.as_deref().ok_or("collect result without payload")?;
            let rows: Vec<EventRow> =
                stark_engine::plan::decode_rows(payload).map_err(|e| e.to_string())?;
            ids.extend(rows.into_iter().map(|(_, (id, _))| id));
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// F4 through the pool: shuffle, per-partition `self_join_pairs`.
    /// Returns the id pairs, sorted.
    pub fn run_f4(&self, pool: &mut Pool) -> Result<Vec<(u64, u64)>, String> {
        let _s = span("engine.pool.job.f4");
        let results = pool.0.run_shuffle(&self.map_tasks, &self.f4).map_err(|e| e.to_string())?;
        let mut pairs = Vec::new();
        for r in &results {
            match &r.output {
                stark_engine::TaskOutput::Json(v) => {
                    let part: Vec<(u64, u64)> =
                        serde::Deserialize::from_value(v).map_err(|e| e.to_string())?;
                    pairs.extend(part);
                }
                other => return Err(format!("expected JSON pairs, got {other:?}")),
            }
        }
        pairs.sort_unstable();
        Ok(pairs)
    }

    /// The row-path `st_filter` run in-process over `rows`, through the
    /// same registry op the workers resolve. Returns the kept row count.
    pub fn local_filter(&self, rows: &LocalRows) -> usize {
        registry().apply_ops(&rows.0, &self.a1.reduce_ops).expect("st_filter resolves").count()
    }
}

/// Rows cached in one in-process partition, for [`DistJob::local_filter`].
pub struct LocalRows(stark_engine::Rdd<EventRow>);

impl LocalRows {
    pub fn new(engine: &Engine, rows: &[EventRow]) -> LocalRows {
        let rdd = engine.0.parallelize(rows.to_vec(), 1).cache();
        rdd.count();
        LocalRows(rdd)
    }
}

fn registry() -> &'static stark_engine::OpRegistry<EventRow> {
    static REGISTRY: std::sync::OnceLock<stark_engine::OpRegistry<EventRow>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(stark::event_registry)
}

/// The reference per-cell self-join the registry's collector wraps.
pub fn self_join_pairs(rows: &[EventRow], pred: STPredicate) -> Vec<(u64, u64)> {
    stark::distributed::self_join_pairs(rows, pred)
}

// ---------------------------------------------------------------------------
// stark-stream
// ---------------------------------------------------------------------------

/// The stream job's fixed shape; literals come from the workload's seed.
#[derive(Clone)]
pub struct StreamParams {
    pub space: Envelope,
    /// Grid of the query/join state's partitioner (`dims × dims`).
    pub state_grid_dims: usize,
    pub window_size: i64,
    pub window_slide: i64,
    pub allowed_lateness: i64,
    /// Grid of the per-window aggregation.
    pub agg_grid_dims: usize,
    /// Standing `Intersects` filter region.
    pub region: STObject,
    /// Standing `withinDistance` reference and radius.
    pub near: (STObject, f64),
    /// Standing kNN focus and k.
    pub knn: (STObject, usize),
    /// Standing join: ids ≡ 0 (mod `join_modulus`) on the left, ≡ 1 on
    /// the right, within `join_dist`.
    pub join_modulus: u64,
    pub join_dist: f64,
    pub batch_records: usize,
    pub channel_capacity: usize,
}

/// The `BatchMetrics` fields the benchmark reads.
#[derive(Debug, Clone, Copy)]
pub struct BatchStats {
    pub records: u64,
    pub late_dropped: u64,
    pub partitions_rebuilt: usize,
    pub queue_depth: usize,
    pub failed: bool,
}

/// What the benchmark's sink is told, reduced to ids and counts.
pub trait StreamObserver {
    fn on_batch(&mut self, stats: BatchStats);
    fn on_window(&mut self, start: i64, end: i64, count: u64);
    fn on_join(
        &mut self,
        inserted: &mut dyn Iterator<Item = (u64, u64)>,
        retracted: &mut dyn Iterator<Item = (u64, u64)>,
    );
    fn on_query(&mut self, batch: u64, name: &str, ids: &mut dyn Iterator<Item = u64>);
}

/// One pull of the benchmark's source: `(inserts, retracts)`.
pub type StreamPull = Box<dyn FnMut(usize) -> Option<(Vec<EventRow>, Vec<EventRow>)> + Send>;

struct PullSource(StreamPull);

impl stark_stream::Source<Payload> for PullSource {
    fn next_batch(&mut self, max_records: usize) -> Option<Vec<EventRow>> {
        (self.0)(max_records).map(|(inserts, _)| inserts)
    }

    fn next_delta(&mut self, max_records: usize) -> Option<stark_stream::Delta<Payload>> {
        let _s = span("stream.source.pull");
        (self.0)(max_records).map(|(i, r)| stark_stream::Delta::new(i, r))
    }
}

struct ObserverSink<O>(O);

fn pair_ids(p: &stark_stream::JoinPair<Payload>) -> (u64, u64) {
    (p.0 .1 .0, p.1 .1 .0)
}

impl<O: StreamObserver> stark_stream::Sink<Payload> for ObserverSink<O> {
    fn on_window(&mut self, w: &stark_stream::WindowAggregate) {
        let _s = span("stream.sink.on_window");
        self.0.on_window(w.start, w.end, w.count);
    }

    fn on_join(&mut self, _batch: u64, emission: &stark_stream::JoinEmission<Payload>) {
        let _s = span("stream.sink.on_join");
        match emission {
            stark_stream::JoinEmission::Delta { inserts, retracts } => self
                .0
                .on_join(&mut inserts.iter().map(pair_ids), &mut retracts.iter().map(pair_ids)),
            stark_stream::JoinEmission::Full(_) => {
                unreachable!("the benchmark only runs the incremental pipeline")
            }
        }
    }

    fn on_query_results(&mut self, batch: u64, results: &[stark_stream::QueryResult<Payload>]) {
        let _s = span("stream.sink.on_query_results");
        for r in results {
            match &r.output {
                stark_stream::QueryOutput::Matches(m) => {
                    self.0.on_query(batch, &r.name, &mut m.iter().map(|(_, (id, _))| *id))
                }
                stark_stream::QueryOutput::Neighbors(n) => {
                    self.0.on_query(batch, &r.name, &mut n.iter().map(|(_, (_, (id, _)))| *id))
                }
            }
        }
    }

    fn on_batch(&mut self, m: &stark_stream::BatchMetrics) {
        // the batch's own processing time, as the stream reports it
        crate::trace::global().set_op(m.batch);
        crate::trace::global().record("stream.batch", m.latency);
        let _s = span("stream.sink.on_batch");
        self.0.on_batch(BatchStats {
            records: m.records,
            late_dropped: m.late_dropped,
            partitions_rebuilt: m.partitions_rebuilt,
            queue_depth: m.queue_depth,
            failed: m.failed,
        });
    }
}

fn standing_queries(p: &StreamParams) -> stark_stream::ContinuousQueryEngine<Payload> {
    use stark_stream::StandingQuery;
    stark_stream::ContinuousQueryEngine::indexed(grid_over(&p.space, p.state_grid_dims), TREE_ORDER)
        .with_query(StandingQuery::filter("region", p.region.clone(), STPredicate::Intersects))
        .with_query(StandingQuery::within_distance("near", p.near.0.clone(), p.near.1))
        .with_query(StandingQuery::knn("knn", p.knn.0.clone(), p.knn.1))
}

fn join_spec(p: &StreamParams) -> stark_stream::JoinSpec<Payload> {
    let m = p.join_modulus;
    stark_stream::JoinSpec::new(
        "pairs",
        Arc::new(move |_: &STObject, v: &Payload| v.0.is_multiple_of(m)),
        Arc::new(move |_: &STObject, v: &Payload| v.0 % m == 1),
        STPredicate::within_distance(p.join_dist),
        grid_over(&p.space, p.state_grid_dims),
        TREE_ORDER,
    )
}

fn window_spec(p: &StreamParams) -> stark_stream::WindowSpec {
    stark_stream::WindowSpec::sliding(p.window_size, p.window_slide)
}

/// Runs the incremental stream job to the end of `pull` on the calling
/// thread: sliding windows + grid aggregation, three standing queries on
/// the indexed engine, one delta join, `ShedPolicy::Block`. Returns the
/// number of records shed (none, under `Block`).
pub fn stream_run(
    engine: &Engine,
    p: &StreamParams,
    pull: StreamPull,
    observer: impl StreamObserver + 'static,
) -> u64 {
    let sc = stark_stream::StreamContext::with_config(
        engine.0.clone(),
        stark_stream::StreamConfig {
            batch_records: p.batch_records,
            channel_capacity: p.channel_capacity,
            parallelism: engine.0.parallelism(),
            shed_policy: stark_stream::ShedPolicy::Block,
            ..Default::default()
        },
    );
    let job = stark_stream::StreamJob::new()
        .incremental()
        .with_windows(window_spec(p), p.allowed_lateness, stark_stream::LatePolicy::Drop)
        .with_grid_aggregation(p.agg_grid_dims, p.space)
        .with_queries(standing_queries(p))
        .with_join(join_spec(p))
        .with_sink(ObserverSink(observer));
    sc.run(PullSource(pull), job).records_shed
}

/// The stream job's three stateful operators, stand-alone, for the ledger.
pub struct StreamOperators {
    windows: stark_stream::WindowAggregator<Payload>,
    queries: stark_stream::ContinuousQueryEngine<Payload>,
    join: stark_stream::DeltaJoin<Payload>,
}

impl StreamOperators {
    pub fn new(p: &StreamParams) -> StreamOperators {
        StreamOperators {
            windows: stark_stream::WindowAggregator::new(
                window_spec(p),
                p.allowed_lateness,
                stark_stream::LatePolicy::Drop,
                Some((p.agg_grid_dims, p.space)),
            ),
            queries: standing_queries(p),
            join: stark_stream::DeltaJoin::new(
                join_spec(p),
                stark_stream::PipelineMode::Incremental,
            ),
        }
    }

    fn delta(inserts: &[EventRow], retracts: &[EventRow]) -> stark_stream::Delta<Payload> {
        stark_stream::Delta::new(inserts.to_vec(), retracts.to_vec())
    }

    /// Window bookkeeping for one batch: observe, then expire.
    pub fn observe(&mut self, inserts: &[EventRow], retracts: &[EventRow]) -> usize {
        let d = Self::delta(inserts, retracts);
        self.windows.observe_delta(&d);
        self.windows.expire().len()
    }

    /// Standing-query maintenance + evaluation; returns trees rebuilt.
    pub fn queries_on_delta(&mut self, inserts: &[EventRow], retracts: &[EventRow]) -> usize {
        self.queries.on_delta(&Self::delta(inserts, retracts)).partitions_rebuilt
    }

    /// Delta-join maintenance; returns `(inserted, retracted)` pairs.
    pub fn join_on_delta(&mut self, inserts: &[EventRow], retracts: &[EventRow]) -> (usize, usize) {
        let e = self.join.on_delta(&Self::delta(inserts, retracts));
        (e.inserted(), e.retracted())
    }
}

// ---------------------------------------------------------------------------
// stark-piglet + stark-server
// ---------------------------------------------------------------------------

/// The served relation `ev(id, t, wkt)`, one tuple per event; `t` is the
/// event time folded into `0..t_modulus` so equality filters select a
/// handful of rows.
#[derive(Clone)]
pub struct Relation {
    schema: Arc<Vec<String>>,
    tuples: Vec<stark_piglet::Tuple>,
}

impl Relation {
    pub fn from_events(events: &[Event], t_modulus: i64) -> Relation {
        use stark_piglet::Value;
        let tuples = events
            .iter()
            .map(|e| {
                vec![
                    Value::Int(e.id as i64),
                    Value::Int(e.time.rem_euclid(t_modulus)),
                    Value::Str(e.geometry.to_wkt()),
                ]
            })
            .collect();
        Relation { schema: Arc::new(vec!["id".into(), "t".into(), "wkt".into()]), tuples }
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }
}

/// `DUMP` lines of a script's outputs, in order.
fn dump_lines(outputs: Vec<stark_piglet::Output>) -> Vec<String> {
    outputs
        .into_iter()
        .flat_map(|o| match o {
            stark_piglet::Output::Dump { lines, .. } => lines,
            _ => Vec::new(),
        })
        .collect()
}

pub fn piglet_parse(script: &str) -> usize {
    stark_piglet::parse_script(script).expect("benchmark scripts parse").len()
}

pub fn piglet_normalize(script: &str) -> usize {
    stark_piglet::normalize_script(script).expect("benchmark scripts parse").params.len()
}

/// In-process script execution over the same relation the server
/// shares: the `service` oracle and the `piglet.exec_ms` layer.
pub struct LocalPiglet {
    engine: Engine,
    schema: Arc<Vec<String>>,
    rdd: stark_engine::Rdd<stark_piglet::Tuple>,
}

impl LocalPiglet {
    pub fn new(engine: &Engine, relation: &Relation) -> LocalPiglet {
        let rdd = engine.0.parallelize(relation.tuples.clone(), engine.0.parallelism());
        LocalPiglet { engine: engine.clone(), schema: relation.schema.clone(), rdd }
    }

    /// Parses and runs `script`; returns its `DUMP` lines.
    pub fn run(&self, script: &str) -> Result<Vec<String>, String> {
        let statements = stark_piglet::parse_script(script).map_err(|e| e.to_string())?;
        self.run_parsed(statements)
    }

    fn run_parsed(
        &self,
        statements: Vec<stark_piglet::ast::Statement>,
    ) -> Result<Vec<String>, String> {
        let mut ex = stark_piglet::Executor::new(self.engine.0.clone());
        ex.register_shared("ev", self.schema.clone(), self.rdd.clone());
        ex.run_statements(statements).map(dump_lines).map_err(|e| e.to_string())
    }

    /// Execution alone, on a script parsed outside the timed call.
    pub fn prepared(&self, script: &str) -> PreparedScript<'_> {
        PreparedScript {
            piglet: self,
            statements: stark_piglet::parse_script(script).expect("benchmark scripts parse"),
        }
    }
}

pub struct PreparedScript<'a> {
    piglet: &'a LocalPiglet,
    statements: Vec<stark_piglet::ast::Statement>,
}

impl PreparedScript<'_> {
    pub fn run(&self) -> usize {
        self.piglet.run_parsed(self.statements.clone()).expect("benchmark scripts run").len()
    }
}

/// The query service on a loopback port, in this process.
pub struct Service {
    handle: stark_server::ServerHandle,
}

impl Service {
    /// `tenants` are `(name, weight)`; `workers` scheduler threads.
    pub fn start(
        engine: &Engine,
        relation: &Relation,
        tenants: &[(&str, u32)],
        workers: usize,
    ) -> Service {
        let _s = span("server.start");
        let rdd = engine.0.parallelize(relation.tuples.clone(), engine.0.parallelism());
        let config = stark_server::ServerConfig {
            workers,
            tenants: tenants
                .iter()
                .map(|(name, w)| stark_server::TenantConfig::new(name).weight(*w))
                .collect(),
            ..stark_server::ServerConfig::default()
        };
        let dataset = ("ev".to_string(), relation.schema.clone(), rdd);
        let handle = stark_server::QueryServer::start(engine.0.clone(), vec![dataset], config)
            .expect("query service binds loopback");
        Service { handle }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Plan-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.handle.cache_stats()
    }

    pub fn plan_cache_capacity() -> usize {
        stark_server::ServerConfig::default().plan_cache_capacity
    }
}

/// What one request came back as.
pub enum QueryOutcome {
    Ok {
        lines: Vec<String>,
        cache_hit: bool,
    },
    /// Refused by admission control.
    Shed,
    Failed(String),
}

/// One client connection.
pub struct Session(stark_server::Client);

impl Session {
    pub fn connect(addr: std::net::SocketAddr) -> Session {
        Session(stark_server::Client::connect(addr).expect("connect to the query service"))
    }

    pub fn query(&mut self, tenant: &str, script: &str) -> QueryOutcome {
        let _s = span("server.query");
        match self.0.query(tenant, script, None) {
            Ok(stark_server::Response::Ok { outputs, cache_hit, .. }) => {
                QueryOutcome::Ok { lines: dump_lines(outputs), cache_hit }
            }
            Ok(stark_server::Response::Overloaded { .. }) => QueryOutcome::Shed,
            Ok(other) => QueryOutcome::Failed(format!("{other:?}")),
            Err(e) => QueryOutcome::Failed(e.to_string()),
        }
    }

    /// Requests the service refused so far (`ServiceStats::shed_overload`).
    pub fn shed_count(&mut self) -> u64 {
        self.0.stats().expect("stats round trip").shed_overload
    }
}
