//! Driver-side supervision of worker processes.
//!
//! A [`WorkerPool`] forks N worker processes (any binary built on
//! [`crate::worker::WorkerRuntime`]), each of which dials back over TCP
//! and is supervised for the pool's lifetime:
//!
//! * **Liveness** — every inbound frame refreshes the worker's
//!   `last_seen`; workers push heartbeats on a fixed cadence, so a
//!   silent socket (network partition, frozen process) trips the
//!   heartbeat timeout even though the connection looks open.
//! * **Worker-loss detection** — connection EOF or a torn frame
//!   (fail-stop workers die on any protocol error), heartbeat silence,
//!   or a task outliving its per-task deadline. All three funnel into
//!   one `mark_down` path.
//! * **Recovery** — a dead worker's in-flight task is reassigned to a
//!   survivor with a bumped attempt number (lineage-based recovery at
//!   the granularity of plan fragments); map outputs it had already
//!   served are regenerated by [`WorkerPool::run_shuffle`]. A reduce
//!   task covers a group of partitions and is retried or reassigned as
//!   one task. A loss that strands outputs any partition of an
//!   unfinished reduce still fetches ends the round
//!   ([`PoolError::ProducerLost`]) instead of reassigning into it. The
//!   seat respawns with exponential backoff, jittered so a mass outage
//!   doesn't thunder back in lockstep.
//! * **Graceful drain** — shutdown sends [`DriverMsg::Drain`], waits
//!   briefly for clean exits, then kills stragglers.
//!
//! A [`FaultPlan`] in [`WorkerPoolConfig::faults`] strikes at two
//! sites. Its dispatch faults hook the send path here: kill -9 at
//! dispatch, dropped/truncated/corrupted/delayed task frames. Each
//! exercises a different detection route, but recovery is always the
//! same reassignment path — which is why the chaos suite can pin
//! `tasks_reassigned == injected` and byte-identical results. Its fetch
//! faults travel to every forked worker as a `--faults` argument and
//! strike that worker's shuffle server.

use crate::fault::{splitmix64, Fault, FaultPlan, Site};
use crate::plan::{
    shuffle_bucket_key, PlanFragment, PlanInput, PlanOp, PlanSink, TaskOutput, TaskResult,
};
use crate::shuffle::{FetchFailure, FetchSource};
use crate::storage::{crc32, ObjectStore, FRAME_MAGIC};
use crate::transport::{recv_msg, recv_result, send_msg, write_frame, DriverMsg, WorkerMsg};
use serde_json::Value;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Heartbeat cadence of every worker ([`crate::worker::WorkerRuntime`]
/// uses it too, so the pool passes no flag for it).
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);
/// A worker whose last inbound frame is older than this is declared lost
/// even if its socket is still open.
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a freshly forked worker may take to dial back and say Hello.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(10);
/// Respawn budget per seat.
const MAX_RESPAWNS: u32 = 3;
/// Reassignment/retry budget per task.
const MAX_TASK_RETRIES: u32 = 3;
/// How many lost-output regeneration rounds one remote shuffle may run
/// before giving up (a fetch failure that survives this many
/// re-productions is not transient).
const MAX_SHUFFLE_REGENS: u32 = 4;
/// Seed of the respawn-backoff jitter.
const RESPAWN_JITTER_SEED: u64 = 0xC4A05;

/// Configuration of a [`WorkerPool`]: the values callers choose. The
/// rest is fixed: workers heartbeat every 25 ms, a worker silent for 2 s
/// or not dialed back within 10 s of its fork is lost, each seat
/// respawns at most 3 times, each task is retried at most 3 times, and a
/// remote shuffle regenerates lost map outputs in at most 4 rounds.
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    /// Number of worker seats.
    pub workers: usize,
    /// Worker binary to fork: any program whose `main` hands a
    /// command line starting with `--addr` to
    /// [`run_from_args`](crate::worker::run_from_args). Tests name it
    /// with `env!("CARGO_BIN_EXE_<bin>")`; a program may also re-exec
    /// itself (`std::env::current_exe()`). A path that cannot be forked
    /// or that exits before its handshake is a [`PoolError::Spawn`].
    pub program: PathBuf,
    /// A dispatched task not answered within this window marks its
    /// worker lost (catches dropped task frames and wedged workers that
    /// still heartbeat).
    pub task_timeout: Duration,
    /// Base respawn backoff; doubled per consecutive failure of the
    /// seat and jittered into `[0.5, 1.5)` of the scaled value.
    pub respawn_backoff: Duration,
    /// Shared object store for checkpoints; `None` creates a fresh
    /// temp-dir store.
    pub store_root: Option<PathBuf>,
    /// Fault injection: dispatch rules are consulted on every task
    /// dispatch; fetch rules are passed to every forked worker's shuffle
    /// server (each worker process counts its own strikes). Task rules
    /// are rejected — the pool never consults them.
    pub faults: Option<Arc<FaultPlan>>,
}

impl WorkerPoolConfig {
    pub fn new(program: impl Into<PathBuf>) -> Self {
        WorkerPoolConfig {
            workers: 4,
            program: program.into(),
            task_timeout: Duration::from_secs(30),
            respawn_backoff: Duration::from_millis(50),
            store_root: None,
            faults: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors and stats
// ---------------------------------------------------------------------------

/// Typed pool failure.
#[derive(Debug)]
pub enum PoolError {
    Io(io::Error),
    /// A worker seat failed to fork or complete its handshake.
    Spawn {
        seat: usize,
        message: String,
    },
    /// A task failed deterministically (non-retryable plan error).
    TaskFailed {
        task: usize,
        message: String,
    },
    /// A task exhausted its reassignment/retry budget.
    RetriesExhausted {
        task: usize,
        attempts: u32,
        last: String,
    },
    /// Every worker is down and no respawn budget remains.
    NoWorkers {
        pending: usize,
    },
    /// A reduce task's remote bucket fetch failed for good (budget
    /// exhausted or stale epoch); carries the typed failure so the
    /// lost-output recovery loop can decide what to invalidate.
    FetchFailed {
        task: usize,
        failure: FetchFailure,
    },
    /// A worker was lost whose map outputs an unfinished task of the job
    /// still has to fetch. Those tasks can only fail, so the job stops
    /// here, and a remote shuffle regenerates the outputs.
    ProducerLost {
        seat: usize,
    },
    /// A remote shuffle regenerated lost map outputs in four rounds and
    /// fetches still failed — the failure is not transient.
    ShuffleRegensExhausted {
        prefix: String,
        rounds: u32,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Io(e) => write!(f, "pool I/O error: {e}"),
            PoolError::Spawn { seat, message } => write!(f, "worker seat {seat}: {message}"),
            PoolError::TaskFailed { task, message } => write!(f, "task {task} failed: {message}"),
            PoolError::RetriesExhausted { task, attempts, last } => {
                write!(f, "task {task} failed after {attempts} attempts: {last}")
            }
            PoolError::NoWorkers { pending } => {
                write!(f, "all workers lost with {pending} tasks outstanding and no respawn budget")
            }
            PoolError::FetchFailed { task, failure } => {
                write!(f, "reduce task {task}: {failure}")
            }
            PoolError::ProducerLost { seat } => {
                write!(f, "worker seat {seat} was lost holding map outputs the job still fetches")
            }
            PoolError::ShuffleRegensExhausted { prefix, rounds } => {
                write!(
                    f,
                    "shuffle {prefix:?} still failing after {rounds} map-output regeneration rounds"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

impl From<io::Error> for PoolError {
    fn from(e: io::Error) -> Self {
        PoolError::Io(e)
    }
}

/// Pool-level counters, readable at any time via [`WorkerPool::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PoolStats {
    pub workers_spawned: u64,
    pub workers_lost: u64,
    pub workers_respawned: u64,
    pub tasks_dispatched: u64,
    pub tasks_completed: u64,
    /// Tasks re-run after a worker-reported (retryable) failure.
    pub tasks_retried: u64,
    /// Tasks re-run because their worker was lost mid-flight.
    pub tasks_reassigned: u64,
    pub heartbeats: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// Remote-shuffle fetch attempts beyond the first, summed over all
    /// workers (each struck transfer costs exactly one retry).
    pub fetch_retries: u64,
    /// Fetches that exhausted their retry budget or hit a stale epoch.
    pub fetch_failures: u64,
    /// Registered map outputs invalidated because their producer died
    /// or served unusable bytes.
    pub map_outputs_lost: u64,
    /// Map outputs re-produced via lineage at a bumped shuffle epoch.
    pub map_outputs_regenerated: u64,
    /// Bucket payload bytes pulled over peer-to-peer fetch connections
    /// (a reducer's reads of its own worker's buckets cross no socket
    /// and are not counted).
    pub shuffle_bytes_fetched_remote: u64,
    /// Fetch requests sent over a socket; each names every bucket a
    /// reduce task wants from one peer.
    pub fetch_requests: u64,
}

// ---------------------------------------------------------------------------
// Tasks
// ---------------------------------------------------------------------------

/// One task to run on the pool: a plan fragment plus its optional inline
/// row payload.
#[derive(Debug, Clone)]
pub struct DistTask {
    pub fragment: PlanFragment,
    pub payload: Option<Vec<u8>>,
}

impl DistTask {
    pub fn new(fragment: PlanFragment) -> Self {
        DistTask { fragment, payload: None }
    }

    pub fn with_rows(fragment: PlanFragment, payload: Vec<u8>) -> Self {
        DistTask { fragment, payload: Some(payload) }
    }
}

// ---------------------------------------------------------------------------
// Shuffle stages
// ---------------------------------------------------------------------------

/// How a shuffle stage moves buckets from map tasks to reduce tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleMode {
    /// Map tasks keep buckets in their own worker's memory and serve them
    /// over a per-worker shuffle port; reduce tasks fetch peer-to-peer.
    /// Lost outputs are re-produced via lineage at a bumped epoch.
    Remote,
}

/// Declarative description of one shuffle stage for
/// [`WorkerPool::run_shuffle`]. The pool builds the map-side sinks and
/// reduce-side inputs itself.
#[derive(Debug, Clone)]
pub struct ShuffleSpec {
    /// Always [`ShuffleMode::Remote`]; kept so existing callers that
    /// name it still compile.
    pub mode: ShuffleMode,
    /// Registered partitioner op name (e.g. `"mod"`).
    pub partitioner: String,
    pub partitioner_arg: Value,
    pub num_partitions: usize,
    /// Stage key prefix; also names the map-output registry entry.
    pub prefix: String,
    /// Ops applied to each reduce partition's concatenated rows.
    pub reduce_ops: Vec<PlanOp>,
    /// Sink of each reduce partition; every partition keeps its own
    /// output, however the partitions are grouped into tasks.
    pub reduce_sink: PlanSink,
}

/// Where one map task's buckets live: which seat incarnation produced
/// them, at which epoch, and how many rows each bucket holds.
#[derive(Debug, Clone)]
struct MapOutputEntry {
    seat: usize,
    gen: u64,
    port: u16,
    epoch: u64,
    counts: Vec<u64>,
}

/// Map-output registry for one shuffle stage: map task index → current
/// output location. `epoch` is the stage's high-water mark; entries
/// below it were produced before the most recent regeneration round.
#[derive(Default)]
struct ShuffleRegistry {
    epoch: u64,
    entries: HashMap<usize, MapOutputEntry>,
}

impl ShuffleRegistry {
    /// Registers a map output. Mirrors the duplicate-completion guard:
    /// an entry at the same or newer epoch wins, so a straggling
    /// duplicate production can never clobber a regenerated output.
    fn register(&mut self, task: usize, entry: MapOutputEntry) -> bool {
        if let Some(existing) = self.entries.get(&task) {
            if existing.epoch >= entry.epoch {
                return false;
            }
        }
        self.entries.insert(task, entry);
        true
    }
}

/// Splits `weights.len()` items into at most `groups` runs of adjacent
/// items — exactly `groups` when there are that many items — each
/// weighing about the same. A run ends where adding the next item would
/// overshoot the run's share of the total by more than stopping short
/// of it undershoots.
fn balanced_runs(weights: &[u64], groups: usize) -> Vec<std::ops::Range<usize>> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let groups = groups.clamp(1, n);
    let total: u64 = weights.iter().sum();
    let mut out = Vec::with_capacity(groups);
    let (mut start, mut acc) = (0, 0u64);
    for (p, &w) in weights.iter().enumerate() {
        let closed = out.len();
        let open = groups - closed; // groups left, counting this one
        if p > start && open > 1 {
            // cumulative boundary of the current group
            let target = total * (closed as u64 + 1) / groups as u64;
            let overshoot = (acc + w).saturating_sub(target);
            let undershoot = target.saturating_sub(acc);
            // the rest must leave a partition for every later group
            if overshoot > undershoot || n - p < open {
                out.push(start..p);
                start = p;
            }
        }
        acc += w;
    }
    out.push(start..n);
    out
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// A task's results — one per partition — and the seat incarnation
/// `(seat, gen)` that produced them.
type Traced = (Vec<TaskResult>, usize, u64);

/// One dispatch: a fragment and the inline payloads sent after it, one
/// per partition of an inline input (none for a fetch input).
struct Unit<'a> {
    fragment: Cow<'a, PlanFragment>,
    payloads: Vec<&'a [u8]>,
}

impl Unit<'_> {
    /// How many outputs the worker answers with. An inline unit without
    /// a payload still answers (with an error) as one partition.
    fn partitions(&self) -> usize {
        match &self.fragment.input {
            PlanInput::Inline => self.payloads.len().max(1),
            PlanInput::Fetch { parts } => parts.len(),
        }
    }
}

enum Event {
    /// `results` are the per-partition results that followed a
    /// `TaskOk`, in order.
    Msg {
        seat: usize,
        gen: u64,
        msg: WorkerMsg,
        results: Vec<TaskResult>,
    },
    Gone {
        seat: usize,
        gen: u64,
        reason: String,
    },
}

enum SlotState {
    Idle,
    Busy { task: usize, attempt: u32, deadline: Instant },
    Down,
}

struct WorkerSlot {
    /// Incarnation counter; events from a previous incarnation of this
    /// seat are stale and ignored.
    gen: u64,
    child: Option<Child>,
    writer: Option<TcpStream>,
    last_seen: Arc<Mutex<Instant>>,
    state: SlotState,
    /// Consecutive losses of this seat — the respawn-backoff exponent,
    /// reset when the seat completes a task.
    consecutive_failures: u32,
    respawns_left: u32,
    next_respawn: Option<Instant>,
    /// Port of this incarnation's bucket server (0 = none announced).
    shuffle_port: u16,
}

impl WorkerSlot {
    fn is_live(&self) -> bool {
        !matches!(self.state, SlotState::Down)
    }
}

/// A supervised pool of worker processes executing [`DistTask`]s.
pub struct WorkerPool {
    cfg: WorkerPoolConfig,
    listener: TcpListener,
    addr: String,
    slots: Vec<WorkerSlot>,
    events_rx: Receiver<Event>,
    events_tx: Sender<Event>,
    store: ObjectStore,
    heartbeats: Arc<AtomicU64>,
    stats: PoolStats,
    /// Map-output registry, one per remote-shuffle stage prefix.
    map_outputs: HashMap<String, ShuffleRegistry>,
    /// Monotonic job counter — part of the chaos draw identity.
    jobs: u64,
    /// splitmix64 state for respawn jitter.
    rng: u64,
    closed: bool,
}

impl WorkerPool {
    /// Forks `cfg.workers` worker processes and completes their
    /// handshakes. On any seat failure the already-started workers are
    /// killed before the error returns.
    pub fn spawn(cfg: WorkerPoolConfig) -> Result<WorkerPool, PoolError> {
        assert!(cfg.workers >= 1, "a pool needs at least one worker");
        if let Some(plan) = &cfg.faults {
            plan.assert_sites("WorkerPoolConfig::faults", &[Site::Dispatch, Site::Fetch]);
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let store_root = cfg.store_root.clone().unwrap_or_else(|| {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            std::env::temp_dir().join(format!(
                "stark-pool-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let store = ObjectStore::open(&store_root)
            .map_err(|e| PoolError::Spawn { seat: 0, message: format!("open store: {e}") })?;
        let (events_tx, events_rx) = std::sync::mpsc::channel();
        let mut pool = WorkerPool {
            rng: splitmix64(RESPAWN_JITTER_SEED ^ 0x57A2_4B00),
            cfg,
            listener,
            addr,
            slots: Vec::new(),
            events_rx,
            events_tx,
            store,
            heartbeats: Arc::new(AtomicU64::new(0)),
            stats: PoolStats::default(),
            map_outputs: HashMap::new(),
            jobs: 0,
            closed: false,
        };
        for seat in 0..pool.cfg.workers {
            pool.slots.push(WorkerSlot {
                gen: 0,
                child: None,
                writer: None,
                last_seen: Arc::new(Mutex::new(Instant::now())),
                state: SlotState::Down,
                consecutive_failures: 0,
                respawns_left: MAX_RESPAWNS,
                next_respawn: None,
                shuffle_port: 0,
            });
            if let Err(e) = pool.spawn_worker(seat) {
                pool.shutdown_inner();
                return Err(e);
            }
        }
        Ok(pool)
    }

    /// The shared object store workers write checkpoint output to.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Pool counters (heartbeats are read from the reader threads).
    pub fn stats(&self) -> PoolStats {
        let mut s = self.stats;
        s.heartbeats = self.heartbeats.load(Ordering::Relaxed);
        s
    }

    /// Number of workers currently live (connected and not timed out).
    pub fn live_workers(&self) -> usize {
        self.slots.iter().filter(|s| s.is_live()).count()
    }

    /// Forks one worker for `seat` and completes the Hello handshake.
    fn spawn_worker(&mut self, seat: usize) -> Result<(), PoolError> {
        let spawn_err = |message: String| PoolError::Spawn { seat, message };
        let mut cmd = Command::new(&self.cfg.program);
        cmd.arg("--addr")
            .arg(&self.addr)
            .arg("--id")
            .arg(seat.to_string())
            .arg("--store")
            .arg(self.store.root())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if let Some(arg) = self.cfg.faults.as_ref().and_then(|p| p.fetch_arg()) {
            cmd.arg("--faults").arg(arg);
        }
        let mut child =
            cmd.spawn().map_err(|e| spawn_err(format!("fork {:?}: {e}", self.cfg.program)))?;

        // Every failure below kills *and* reaps the child, so a failed
        // spawn never leaves a process (or a zombie) behind.
        let reap = |child: &mut Child| {
            let _ = child.kill();
            let _ = child.wait();
        };

        // The listener is non-blocking; poll for the dial-back while
        // watching for an early child death.
        let deadline = Instant::now() + SPAWN_TIMEOUT;
        let stream = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!("worker exited during spawn: {status}")));
                    }
                    if Instant::now() >= deadline {
                        reap(&mut child);
                        return Err(spawn_err("worker never dialed back".into()));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    reap(&mut child);
                    return Err(e.into());
                }
            }
        };
        stream.set_nodelay(true).ok();

        // Hello must arrive promptly.
        stream.set_read_timeout(Some(SPAWN_TIMEOUT)).ok();
        let mut hello_reader = BufReader::new(stream.try_clone()?);
        let shuffle_port = match recv_msg::<WorkerMsg>(&mut hello_reader) {
            Ok(Some(WorkerMsg::Hello { worker_id, shuffle_port, .. })) if worker_id == seat => {
                shuffle_port
            }
            Ok(other) => {
                reap(&mut child);
                return Err(spawn_err(format!("bad handshake: {other:?}")));
            }
            Err(e) => {
                reap(&mut child);
                return Err(spawn_err(format!("handshake: {e}")));
            }
        };
        // Reads stay bounded for the connection's whole life: a peer
        // that wedges mid-frame trips this timeout and is reported Gone,
        // instead of parking the reader thread forever. Heartbeats
        // arrive every `HEARTBEAT_INTERVAL`, so a healthy worker never
        // comes near the bound.
        stream.set_read_timeout(Some(HEARTBEAT_TIMEOUT * 2)).ok();

        let slot = &mut self.slots[seat];
        slot.shuffle_port = shuffle_port;
        slot.gen += 1;
        slot.child = Some(child);
        slot.writer = Some(stream);
        slot.state = SlotState::Idle;
        *slot.last_seen.lock().unwrap() = Instant::now();
        slot.next_respawn = None;
        self.stats.workers_spawned += 1;

        // Reader thread: forwards messages and reports connection loss.
        let gen = self.slots[seat].gen;
        let tx = self.events_tx.clone();
        let last_seen = self.slots[seat].last_seen.clone();
        let heartbeats = self.heartbeats.clone();
        std::thread::spawn(move || reader_loop(hello_reader, seat, gen, tx, last_seen, heartbeats));
        Ok(())
    }

    /// Runs a stage of tasks to completion, reassigning work away from
    /// lost workers, and returns one result per partition: in task
    /// order, and within a task in partition order. An inline task is
    /// one partition, so a stage of inline tasks yields one result per
    /// task.
    pub fn execute(&mut self, tasks: &[DistTask]) -> Result<Vec<TaskResult>, PoolError> {
        let units: Vec<Unit> = tasks
            .iter()
            .map(|t| Unit {
                fragment: Cow::Borrowed(&t.fragment),
                payloads: t.payload.as_deref().into_iter().collect(),
            })
            .collect();
        Ok(self.execute_traced(&units)?.into_iter().flat_map(|(r, _, _)| r).collect())
    }

    /// Like [`Self::execute`] over dispatch units, keeping each unit's
    /// results together and reporting which seat incarnation
    /// `(seat, gen)` completed it — the map-output registry needs the
    /// producer's identity to later detect its loss.
    fn execute_traced(&mut self, tasks: &[Unit]) -> Result<Vec<Traced>, PoolError> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        let job = self.jobs;
        self.jobs += 1;
        self.reset_for_new_job();

        let n = tasks.len();
        let mut results: Vec<Option<Traced>> = vec![None; n];
        let mut pending: VecDeque<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
        let mut done = 0usize;

        while done < n {
            self.respawn_due();
            self.assign_pending(&mut pending, tasks, job);

            if self.live_workers() == 0 && !self.respawn_possible() {
                return Err(PoolError::NoWorkers { pending: n - done });
            }

            match self.events_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(ev) => self.handle_event(ev, tasks, &mut results, &mut pending, &mut done)?,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("pool holds an event sender")
                }
            }
            self.check_timeouts(&mut pending)?;
        }
        Ok(results.into_iter().map(|r| r.expect("all tasks completed")).collect())
    }

    // -----------------------------------------------------------------
    // Shuffle stages
    // -----------------------------------------------------------------

    /// Runs a full map → shuffle → reduce stage. `map_tasks` supply the
    /// map-side schema/input/ops and payloads; their sinks are replaced
    /// by the pool's [`PlanSink::ShuffleWriteLocal`]. Returns one
    /// [`TaskResult`] per partition, in partition order.
    ///
    /// Each round runs one task per live seat, not one per partition.
    /// The map round groups adjacent map tasks by payload bytes (a run
    /// breaks where their fragments differ). The reduce round groups
    /// adjacent partitions so that each group holds about the same
    /// number of rows (by the registry's bucket counts, plus one per
    /// partition so empty ones spread too). Each reduce group's worker
    /// resolves the reduce ops once, reads the buckets it produced
    /// itself from memory, fetches the rest with one request per peer,
    /// and answers with one output per partition — so the results are
    /// the same bytes as one task per partition would give. A group is
    /// retried or reassigned as one task.
    ///
    /// Map outputs lost to a worker death (or served corrupt) are
    /// re-produced via lineage at a bumped epoch, in up to four rounds.
    ///
    /// However it returns, the stage's buckets are then released on
    /// every live worker (see [`DriverMsg::ReleaseShuffle`]).
    pub fn run_shuffle(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
    ) -> Result<Vec<TaskResult>, PoolError> {
        let result = self.run_shuffle_stage(map_tasks, spec);
        self.release_shuffle(&spec.prefix);
        result
    }

    fn run_shuffle_stage(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
    ) -> Result<Vec<TaskResult>, PoolError> {
        if map_tasks.is_empty() {
            return Ok(Vec::new());
        }
        let schema = map_tasks[0].fragment.schema.clone();
        self.map_outputs.insert(spec.prefix.clone(), ShuffleRegistry::default());

        // Map stage, epoch 0: every producer keeps its buckets local.
        let all: Vec<usize> = (0..map_tasks.len()).collect();
        self.produce_map_outputs(map_tasks, spec, &all, 0)?;

        let mut rounds = 0u32;
        loop {
            // Outputs whose producer incarnation is gone are lost; their
            // map tasks re-run on survivors at a bumped epoch (lineage).
            self.invalidate_dead_outputs(&spec.prefix);
            let missing: Vec<usize> = {
                let reg = &self.map_outputs[&spec.prefix];
                (0..map_tasks.len()).filter(|t| !reg.entries.contains_key(t)).collect()
            };
            if !missing.is_empty() {
                let epoch = {
                    let reg = self.map_outputs.get_mut(&spec.prefix).expect("stage registered");
                    reg.epoch += 1;
                    reg.epoch
                };
                self.produce_map_outputs(map_tasks, spec, &missing, epoch)?;
                // a producer may have died again during regeneration;
                // re-check before building reduce inputs
                continue;
            }

            let weights: Vec<u64> = self
                .partition_rows(&spec.prefix, spec.num_partitions)
                .iter()
                .map(|r| r + 1)
                .collect();
            let reduces: Vec<Unit> = balanced_runs(&weights, self.live_workers())
                .into_iter()
                .map(|group| Unit {
                    fragment: Cow::Owned(PlanFragment {
                        schema: schema.clone(),
                        input: PlanInput::Fetch {
                            parts: group.map(|p| self.fetch_sources(&spec.prefix, p)).collect(),
                        },
                        ops: spec.reduce_ops.clone(),
                        sink: spec.reduce_sink.clone(),
                    }),
                    payloads: Vec::new(),
                })
                .collect();
            match self.execute_traced(&reduces) {
                Ok(traced) => return Ok(traced.into_iter().flat_map(|(r, _, _)| r).collect()),
                Err(e @ (PoolError::FetchFailed { .. } | PoolError::ProducerLost { .. })) => {
                    rounds += 1;
                    if rounds > MAX_SHUFFLE_REGENS {
                        return Err(PoolError::ShuffleRegensExhausted {
                            prefix: spec.prefix.clone(),
                            rounds,
                        });
                    }
                    // Let in-flight reduces of the aborted round settle
                    // so their answers can't be mistaken for the next
                    // round's (task ids restart at 0 every job).
                    self.quiesce();
                    match e {
                        // The peer is unreachable or serving unusable
                        // bytes: take it down. invalidate_dead_outputs
                        // reaps its registry entries on the next pass.
                        PoolError::FetchFailed { failure, .. } if !failure.stale => {
                            self.fail_address(&failure.addr)
                        }
                        // Stale epoch needs no invalidation: the registry
                        // has already moved on, and the rebuilt sources
                        // carry the new epoch. A lost producer is already
                        // down.
                        _ => {}
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Current epoch of a shuffle stage's map-output registry (`None` if
    /// no stage with this prefix ran).
    pub fn shuffle_epoch(&self, prefix: &str) -> Option<u64> {
        self.map_outputs.get(prefix).map(|r| r.epoch)
    }

    /// Forgets a stage's map outputs and tells every live seat to drop
    /// its buckets. Best effort, no reply awaited: a seat handles its
    /// connection in order, so it drops them before it starts any later
    /// task, and a seat the message cannot reach is lost along with its
    /// buckets.
    fn release_shuffle(&mut self, prefix: &str) {
        if let Some(reg) = self.map_outputs.get_mut(prefix) {
            reg.entries.clear();
        }
        let msg = DriverMsg::ReleaseShuffle { prefix: prefix.to_string() };
        for writer in self.slots.iter_mut().filter_map(|s| s.writer.as_mut()) {
            let _ = send_msg(writer, &msg);
        }
    }

    /// Shuffle addresses (`127.0.0.1:<port>`) of the live seats.
    pub fn shuffle_addrs(&self) -> Vec<String> {
        self.slots
            .iter()
            .filter(|s| s.is_live() && s.shuffle_port != 0)
            .map(|s| format!("127.0.0.1:{}", s.shuffle_port))
            .collect()
    }

    /// Process ids of the live seats' workers.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.slots.iter().filter_map(|s| s.child.as_ref().map(Child::id)).collect()
    }

    /// Runs the given map tasks with local-bucket sinks at `epoch` and
    /// registers their outputs. An output whose producer died before
    /// registration counts as lost — it was produced but never servable,
    /// and the next round re-produces it.
    ///
    /// `which` (ascending) is split into about one group per live seat,
    /// balanced by payload bytes; a group is a run of consecutive map
    /// tasks with the same fragment and an inline payload each, sent as
    /// one task whose partition `i` writes as map task `first + i`.
    fn produce_map_outputs(
        &mut self,
        map_tasks: &[DistTask],
        spec: &ShuffleSpec,
        which: &[usize],
        epoch: u64,
    ) -> Result<(), PoolError> {
        let groupable = |a: usize, b: usize| {
            b == a + 1
                && map_tasks[a].fragment == map_tasks[b].fragment
                && map_tasks[a].payload.is_some()
                && map_tasks[b].payload.is_some()
        };
        let weights: Vec<u64> = which
            .iter()
            .map(|&t| map_tasks[t].payload.as_ref().map_or(0, |p| p.len() as u64) + 1)
            .collect();
        let mut groups: Vec<&[usize]> = Vec::new();
        for run in balanced_runs(&weights, self.live_workers()) {
            let run = &which[run];
            let mut start = 0;
            for k in 1..=run.len() {
                if k == run.len() || !groupable(run[k - 1], run[k]) {
                    groups.push(&run[start..k]);
                    start = k;
                }
            }
        }
        let staged: Vec<Unit> = groups
            .iter()
            .map(|group| {
                let mut frag = map_tasks[group[0]].fragment.clone();
                frag.sink = PlanSink::ShuffleWriteLocal {
                    partitioner: spec.partitioner.clone(),
                    arg: spec.partitioner_arg.clone(),
                    num_partitions: spec.num_partitions,
                    prefix: spec.prefix.clone(),
                    task: group[0],
                    epoch,
                };
                let payloads = group.iter().filter_map(|&t| map_tasks[t].payload.as_deref());
                Unit { fragment: Cow::Owned(frag), payloads: payloads.collect() }
            })
            .collect();
        let traced = self.execute_traced(&staged)?;
        let mut lost = 0u64;
        let mut regenerated = 0u64;
        for (group, (results, seat, gen)) in groups.iter().zip(traced) {
            let port = self.slots[seat].shuffle_port;
            let live = self.slots[seat].gen == gen && self.slots[seat].is_live() && port != 0;
            for (&task, result) in group.iter().zip(results) {
                let counts = match result.output {
                    TaskOutput::BucketCounts(c) => c,
                    other => panic!("shuffle map task returned {other:?}, not bucket counts"),
                };
                if !live {
                    lost += 1;
                    continue;
                }
                let reg = self.map_outputs.get_mut(&spec.prefix).expect("stage registered");
                let entry = MapOutputEntry { seat, gen, port, epoch, counts };
                if reg.register(task, entry) && epoch > 0 {
                    regenerated += 1;
                }
            }
        }
        self.stats.map_outputs_lost += lost;
        self.stats.map_outputs_regenerated += regenerated;
        Ok(())
    }

    /// Drops registry entries whose producer incarnation is no longer
    /// live and counts them lost. Returns how many were dropped.
    fn invalidate_dead_outputs(&mut self, prefix: &str) -> u64 {
        let live: Vec<(u64, bool)> = self.slots.iter().map(|s| (s.gen, s.is_live())).collect();
        let Some(reg) = self.map_outputs.get_mut(prefix) else { return 0 };
        let before = reg.entries.len();
        reg.entries.retain(|_, e| live[e.seat] == (e.gen, true));
        let lost = (before - reg.entries.len()) as u64;
        if lost > 0 {
            self.stats.map_outputs_lost += lost;
        }
        lost
    }

    /// Takes down the live seat currently serving `addr` (shape
    /// `127.0.0.1:<port>`). Entries registered against an *older*
    /// incarnation of this seat fall out via the gen check in
    /// [`Self::invalidate_dead_outputs`] instead.
    fn fail_address(&mut self, addr: &str) {
        let Some(port) = addr.rsplit(':').next().and_then(|p| p.parse::<u16>().ok()) else {
            return;
        };
        for seat in 0..self.slots.len() {
            if self.slots[seat].shuffle_port == port && self.slots[seat].is_live() {
                self.mark_down(seat, "unusable shuffle server", &mut VecDeque::new(), true);
            }
        }
    }

    /// Rows each reduce partition will read, summed over the registered
    /// map outputs.
    fn partition_rows(&self, prefix: &str, partitions: usize) -> Vec<u64> {
        let mut rows = vec![0u64; partitions];
        for entry in self.map_outputs[prefix].entries.values() {
            for (p, n) in rows.iter_mut().zip(&entry.counts) {
                *p += n;
            }
        }
        rows
    }

    /// Builds the fetch list for one reduce partition, in map-task order
    /// so the concatenated input is the same bytes however the map
    /// tasks were scheduled. Zero-count buckets are skipped — they were
    /// never written.
    fn fetch_sources(&self, prefix: &str, partition: usize) -> Vec<FetchSource> {
        let reg = &self.map_outputs[prefix];
        let mut tasks: Vec<usize> = reg.entries.keys().copied().collect();
        tasks.sort_unstable();
        tasks
            .into_iter()
            .filter_map(|task| {
                let e = &reg.entries[&task];
                if e.counts.get(partition).copied().unwrap_or(0) == 0 {
                    return None;
                }
                Some(FetchSource {
                    addr: format!("127.0.0.1:{}", e.port),
                    key: shuffle_bucket_key(prefix, task, partition),
                    epoch: e.epoch,
                })
            })
            .collect()
    }

    /// Waits for every Busy slot to settle (answer, die, or hit its
    /// deadline) after an aborted job. Anything still wedged past the
    /// task timeout is taken down so its eventual answer arrives under a
    /// stale incarnation and is discarded.
    fn quiesce(&mut self) {
        let deadline = Instant::now() + self.cfg.task_timeout;
        while self.slots.iter().any(|s| matches!(s.state, SlotState::Busy { .. })) {
            if Instant::now() >= deadline {
                break;
            }
            match self.events_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(Event::Msg { seat, gen, msg, .. }) => {
                    if self.slots[seat].gen != gen {
                        continue;
                    }
                    let (id, retries, failures) = match msg {
                        WorkerMsg::TaskOk { id, fetch_retries, .. } => (id, fetch_retries, 0),
                        WorkerMsg::TaskErr { id, fetch_retries, fetch, .. } => {
                            (id, fetch_retries, fetch.is_some() as u64)
                        }
                        _ => continue,
                    };
                    if matches!(
                        self.slots[seat].state,
                        SlotState::Busy { task, .. } if task == id as usize
                    ) {
                        self.slots[seat].state = SlotState::Idle;
                        // the answer is discarded, but its fetches happened
                        self.stats.fetch_retries += retries;
                        self.stats.fetch_failures += failures;
                    }
                }
                Ok(Event::Gone { seat, gen, reason }) => {
                    if self.slots[seat].gen == gen && self.slots[seat].is_live() {
                        self.mark_down(seat, &reason, &mut VecDeque::new(), true);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        for seat in 0..self.slots.len() {
            if matches!(self.slots[seat].state, SlotState::Busy { .. }) {
                self.mark_down(seat, "wedged during quiesce", &mut VecDeque::new(), true);
            }
        }
    }

    /// Discards events and in-flight bookkeeping left over from an
    /// aborted previous job. `Gone` events are still honoured (the
    /// worker is genuinely dead, just not reassigned — its task belongs
    /// to a job that already failed).
    fn reset_for_new_job(&mut self) {
        while let Ok(ev) = self.events_rx.try_recv() {
            if let Event::Gone { seat, gen, reason } = ev {
                if self.slots[seat].gen == gen && self.slots[seat].is_live() {
                    self.mark_down(seat, &reason, &mut VecDeque::new(), true);
                }
            }
        }
        for slot in &mut self.slots {
            if matches!(slot.state, SlotState::Busy { .. }) {
                slot.state = SlotState::Idle;
            }
        }
    }

    fn respawn_possible(&self) -> bool {
        self.slots.iter().any(|s| !s.is_live() && s.respawns_left > 0 && s.next_respawn.is_some())
    }

    fn respawn_due(&mut self) {
        for seat in 0..self.slots.len() {
            let due = {
                let s = &self.slots[seat];
                !s.is_live()
                    && s.respawns_left > 0
                    && s.next_respawn.is_some_and(|t| Instant::now() >= t)
            };
            if due {
                self.slots[seat].respawns_left -= 1;
                match self.spawn_worker(seat) {
                    Ok(()) => {
                        self.stats.workers_respawned += 1;
                    }
                    Err(_) if self.slots[seat].respawns_left > 0 => {
                        // schedule another attempt, backoff grown
                        let exp = self.slots[seat].consecutive_failures;
                        let wait = self.jittered_backoff(exp);
                        self.slots[seat].consecutive_failures += 1;
                        self.slots[seat].next_respawn = Some(Instant::now() + wait);
                    }
                    Err(_) => {
                        self.slots[seat].next_respawn = None;
                    }
                }
            }
        }
    }

    fn assign_pending(&mut self, pending: &mut VecDeque<(usize, u32)>, tasks: &[Unit], job: u64) {
        for seat in 0..self.slots.len() {
            if pending.is_empty() {
                return;
            }
            if matches!(self.slots[seat].state, SlotState::Idle) {
                let (task, attempt) = pending.pop_front().expect("checked non-empty");
                if let Err(reason) = self.dispatch(seat, task, attempt, &tasks[task], job) {
                    // The send itself failed: the task never reached the
                    // worker, so requeue it at the same attempt. Clear the
                    // Busy state first so mark_down does not reassign it a
                    // second time.
                    self.slots[seat].state = SlotState::Idle;
                    pending.push_front((task, attempt));
                    self.mark_down(seat, &reason, pending, false);
                }
            }
        }
    }

    /// Sends one task to one worker, applying any injected transport
    /// fault. Returns `Err(reason)` if the transport write failed.
    fn dispatch(
        &mut self,
        seat: usize,
        task: usize,
        attempt: u32,
        unit: &Unit,
        job: u64,
    ) -> Result<(), String> {
        let faults = self.cfg.faults.as_deref();
        let fault =
            faults.and_then(|p| p.strike(Site::Dispatch, job, task as u64, "", attempt.into()));
        let deadline = Instant::now() + self.cfg.task_timeout;
        self.slots[seat].state = SlotState::Busy { task, attempt, deadline };
        self.stats.tasks_dispatched += 1;

        let msg = DriverMsg::Task {
            id: task as u64,
            attempt,
            fragment: unit.fragment.clone().into_owned(),
            payloads: unit.payloads.len() as u32,
        };

        match fault {
            Some(Fault::DropFrame) => {
                // the worker never hears about the task; the per-task
                // deadline recovers it
                return Ok(());
            }
            Some(Fault::KillWorker) => {
                // Fail-stop crash at dispatch: the victim dies before the
                // task frame lands, so the in-flight task is always
                // recovered by reassignment (never by a duplicate
                // completion racing the kill). The reader thread reports
                // EOF and the Gone path takes over.
                if let Some(child) = &mut self.slots[seat].child {
                    let _ = child.kill();
                }
                return Ok(());
            }
            Some(Fault::DelayFrame(d)) => std::thread::sleep(d),
            _ => {}
        }

        let payload_len: usize = unit.payloads.iter().map(|p| p.len()).sum();
        let writer = self.slots[seat].writer.as_mut().expect("live worker has a writer");
        let send_result = match fault {
            Some(Fault::TruncateFrame) => send_truncated(writer, &msg),
            Some(Fault::CorruptFrame) => send_corrupted(writer, &msg),
            _ => {
                // the control frame and its payload frames in one write
                let mut frames = Vec::with_capacity(payload_len + 1024);
                send_msg(&mut frames, &msg)
                    .and_then(|()| {
                        unit.payloads.iter().try_for_each(|p| write_frame(&mut frames, p))
                    })
                    .and_then(|()| writer.write_all(&frames))
            }
        };
        send_result.map_err(|e| format!("dispatch: {e}"))?;
        let _ = writer.flush();
        self.stats.bytes_tx += payload_len as u64;
        Ok(())
    }

    fn handle_event(
        &mut self,
        ev: Event,
        tasks: &[Unit],
        results: &mut [Option<Traced>],
        pending: &mut VecDeque<(usize, u32)>,
        done: &mut usize,
    ) -> Result<(), PoolError> {
        match ev {
            Event::Msg { seat, gen, msg, results: task_results } => {
                if self.slots[seat].gen != gen {
                    return Ok(()); // stale incarnation
                }
                match msg {
                    WorkerMsg::TaskOk {
                        id,
                        outputs: _,
                        micros: _,
                        fetch_retries,
                        fetch_bytes,
                        fetch_requests,
                    } => {
                        let matches_busy = matches!(
                            self.slots[seat].state,
                            SlotState::Busy { task, .. } if task == id as usize
                        );
                        if !matches_busy {
                            return Ok(()); // answer to an abandoned job
                        }
                        let task = id as usize;
                        self.slots[seat].state = SlotState::Idle;
                        self.slots[seat].consecutive_failures = 0;
                        self.stats.fetch_retries += fetch_retries;
                        self.stats.shuffle_bytes_fetched_remote += fetch_bytes;
                        self.stats.fetch_requests += fetch_requests;
                        if results[task].is_some() {
                            return Ok(()); // duplicate of an already-recovered task
                        }
                        let partitions = tasks[task].partitions();
                        if task_results.len() != partitions {
                            return Err(PoolError::TaskFailed {
                                task,
                                message: format!(
                                    "answered {} outputs for {partitions} partitions",
                                    task_results.len()
                                ),
                            });
                        }
                        self.stats.bytes_rx += task_results
                            .iter()
                            .filter_map(|r| r.payload.as_ref())
                            .map(|p| p.len() as u64)
                            .sum::<u64>();
                        results[task] = Some((task_results, seat, gen));
                        *done += 1;
                        self.stats.tasks_completed += 1;
                    }
                    WorkerMsg::TaskErr { id, message, retryable, fetch_retries, fetch } => {
                        let busy = match self.slots[seat].state {
                            SlotState::Busy { task, attempt, .. } if task == id as usize => {
                                Some((task, attempt))
                            }
                            _ => None,
                        };
                        let Some((task, attempt)) = busy else { return Ok(()) };
                        self.slots[seat].state = SlotState::Idle;
                        self.stats.fetch_retries += fetch_retries;
                        if let Some(failure) = fetch {
                            // escalate to the lost-output recovery loop
                            // instead of burning generic task retries
                            self.stats.fetch_failures += 1;
                            return Err(PoolError::FetchFailed { task, failure });
                        }
                        if !retryable {
                            return Err(PoolError::TaskFailed { task, message });
                        }
                        if attempt + 1 > MAX_TASK_RETRIES {
                            return Err(PoolError::RetriesExhausted {
                                task,
                                attempts: attempt + 1,
                                last: message,
                            });
                        }
                        self.stats.tasks_retried += 1;
                        pending.push_back((task, attempt + 1));
                    }
                    // liveness traffic is consumed by the reader thread
                    WorkerMsg::Hello { .. }
                    | WorkerMsg::Pong { .. }
                    | WorkerMsg::Heartbeat { .. } => {}
                }
            }
            Event::Gone { seat, gen, reason } => {
                if self.slots[seat].gen != gen || !self.slots[seat].is_live() {
                    return Ok(()); // stale or already handled
                }
                // Reassigning work while an unfinished task still fetches
                // the lost worker's outputs — for any of its partitions —
                // only feeds a job that cannot finish: stop it instead, so
                // they are regenerated.
                let addr = format!("127.0.0.1:{}", self.slots[seat].shuffle_port);
                let doomed = tasks.iter().zip(results.iter()).any(|(t, r)| {
                    r.is_none() && t.fragment.input.sources().any(|s| s.addr == addr)
                });
                self.mark_down(seat, &reason, pending, doomed);
                if doomed {
                    return Err(PoolError::ProducerLost { seat });
                }
                if let Some((_, attempt)) = pending.back() {
                    if *attempt > MAX_TASK_RETRIES {
                        let (task, attempt) = pending.pop_back().expect("just observed");
                        return Err(PoolError::RetriesExhausted {
                            task,
                            attempts: attempt,
                            last: reason,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Declares a worker lost: kills the process, reassigns its
    /// in-flight task (unless `abandon_task`) and schedules a respawn
    /// with jittered exponential backoff.
    fn mark_down(
        &mut self,
        seat: usize,
        reason: &str,
        pending: &mut VecDeque<(usize, u32)>,
        abandon_task: bool,
    ) {
        let _ = reason;
        let slot = &mut self.slots[seat];
        if let Some(child) = &mut slot.child {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
        slot.writer = None;
        if let SlotState::Busy { task, attempt, .. } = slot.state {
            if !abandon_task {
                // lineage-based reassignment: the task's input is either
                // inline (the driver still holds it) or fetched from
                // peers, so any survivor can recompute it
                self.stats.tasks_reassigned += 1;
                pending.push_back((task, attempt + 1));
            }
        }
        let slot = &mut self.slots[seat];
        slot.state = SlotState::Down;
        let exp = slot.consecutive_failures;
        slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
        let respawnable = slot.respawns_left > 0;
        self.stats.workers_lost += 1;
        if respawnable {
            let wait = self.jittered_backoff(exp);
            self.slots[seat].next_respawn = Some(Instant::now() + wait);
        }
    }

    fn check_timeouts(&mut self, pending: &mut VecDeque<(usize, u32)>) -> Result<(), PoolError> {
        let now = Instant::now();
        for seat in 0..self.slots.len() {
            if !self.slots[seat].is_live() {
                continue;
            }
            let silent = self.slots[seat].last_seen.lock().unwrap().elapsed() > HEARTBEAT_TIMEOUT;
            let overdue = matches!(
                self.slots[seat].state,
                SlotState::Busy { deadline, .. } if now >= deadline
            );
            if silent || overdue {
                self.mark_down(
                    seat,
                    if silent { "heartbeat timeout" } else { "task deadline exceeded" },
                    pending,
                    false,
                );
                if let Some((task, attempt)) = pending.back().copied() {
                    if attempt > MAX_TASK_RETRIES {
                        pending.pop_back();
                        return Err(PoolError::RetriesExhausted {
                            task,
                            attempts: attempt,
                            last: if silent {
                                "heartbeat timeout".into()
                            } else {
                                "task deadline exceeded".into()
                            },
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Deterministic jittered exponential backoff: `base * 2^exp`,
    /// scaled by a seeded draw in `[0.5, 1.5)` so seats that died
    /// together don't respawn in lockstep.
    fn jittered_backoff(&mut self, exp: u32) -> Duration {
        let scaled = self.cfg.respawn_backoff * (1u32 << exp.min(6));
        self.rng = splitmix64(self.rng);
        let factor = 0.5 + (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        scaled.mul_f64(factor)
    }

    /// Waits up to `timeout` for scheduled respawns to bring lost seats
    /// back, forking each as its backoff expires. Respawns normally
    /// happen inside [`Self::execute`]'s scheduling loop; call this
    /// between jobs to restore full capacity before dispatching the next
    /// stage. Returns the number of live workers afterwards.
    pub fn heal(&mut self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        loop {
            // honour loss reports that arrived while the pool was idle
            while let Ok(ev) = self.events_rx.try_recv() {
                if let Event::Gone { seat, gen, reason } = ev {
                    if self.slots[seat].gen == gen && self.slots[seat].is_live() {
                        self.mark_down(seat, &reason, &mut VecDeque::new(), true);
                    }
                }
            }
            self.respawn_due();
            if self.live_workers() == self.slots.len()
                || Instant::now() >= deadline
                || !self.respawn_possible()
            {
                return self.live_workers();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Graceful drain: ask every live worker to finish and exit, wait
    /// briefly, then kill stragglers. Idempotent.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        for slot in &mut self.slots {
            if let Some(w) = &mut slot.writer {
                let _ = send_msg(w, &DriverMsg::Drain);
                let _ = w.flush();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        for slot in &mut self.slots {
            if let Some(child) = &mut slot.child {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            slot.child = None;
            slot.writer = None;
            slot.state = SlotState::Down;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------------
// Reader thread + chaos frame writers
// ---------------------------------------------------------------------------

fn reader_loop(
    mut reader: BufReader<TcpStream>,
    seat: usize,
    gen: u64,
    tx: Sender<Event>,
    last_seen: Arc<Mutex<Instant>>,
    heartbeats: Arc<AtomicU64>,
) {
    loop {
        match recv_msg::<WorkerMsg>(&mut reader) {
            Ok(Some(msg)) => {
                *last_seen.lock().unwrap() = Instant::now();
                if matches!(msg, WorkerMsg::Heartbeat { .. }) {
                    heartbeats.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // the count is untrusted: nothing is reserved for it
                let outputs = match &msg {
                    WorkerMsg::TaskOk { outputs, .. } => *outputs,
                    _ => 0,
                };
                let mut results = Vec::new();
                for _ in 0..outputs {
                    match recv_result(&mut reader) {
                        Ok(result) => results.push(result),
                        Err(e) => {
                            let _ = tx.send(Event::Gone {
                                seat,
                                gen,
                                reason: format!("task result: {e}"),
                            });
                            return;
                        }
                    }
                }
                if tx.send(Event::Msg { seat, gen, msg, results }).is_err() {
                    return; // pool dropped
                }
            }
            Ok(None) => {
                let _ = tx.send(Event::Gone { seat, gen, reason: "connection closed".into() });
                return;
            }
            Err(e) => {
                let _ = tx.send(Event::Gone { seat, gen, reason: e.to_string() });
                return;
            }
        }
    }
}

/// Chaos: writes a frame whose length prefix promises more bytes than
/// follow — the receiver blocks mid-frame, wedged but heartbeating.
fn send_truncated(w: &mut impl Write, msg: &DriverMsg) -> io::Result<()> {
    let payload = serde_json::to_vec(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e}")))?;
    let mut buf = Vec::new();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(FRAME_MAGIC);
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload[..payload.len() / 2]);
    w.write_all(&buf)
}

/// Chaos: writes a complete frame whose payload was bit-flipped after
/// the checksum was computed — the receiver detects the mismatch and
/// fail-stops.
fn send_corrupted(w: &mut impl Write, msg: &DriverMsg) -> io::Result<()> {
    let mut payload = serde_json::to_vec(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode: {e}")))?;
    let crc = crc32(&payload);
    let mid = payload.len() / 2;
    payload[mid] ^= 0x40;
    let mut buf = Vec::new();
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(FRAME_MAGIC);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf.extend_from_slice(&payload);
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_output_guard_keeps_the_newest_epoch() {
        let mut reg = ShuffleRegistry::default();
        let entry = |seat: usize, epoch: u64| MapOutputEntry {
            seat,
            gen: 1,
            port: 40000,
            epoch,
            counts: vec![1, 2],
        };
        assert!(reg.register(7, entry(0, 0)));
        // a straggling duplicate at the same epoch is rejected
        assert!(!reg.register(7, entry(1, 0)));
        assert_eq!(reg.entries[&7].seat, 0);
        // a regenerated output at a bumped epoch wins
        assert!(reg.register(7, entry(2, 1)));
        assert_eq!(reg.entries[&7].seat, 2);
        // ...and the late original can no longer clobber it
        assert!(!reg.register(7, entry(0, 0)));
        assert_eq!(reg.entries[&7].epoch, 1);
    }

    /// Checks the grouping contract over partitions weighing `rows + 1`:
    /// contiguous, non-empty, covering, and exactly
    /// `min(groups, partitions)` runs.
    fn check_groups(rows: &[u64], groups: usize) -> Vec<std::ops::Range<usize>> {
        let weights: Vec<u64> = rows.iter().map(|r| r + 1).collect();
        let runs = balanced_runs(&weights, groups);
        assert_eq!(runs.len(), groups.clamp(1, rows.len().max(1)).min(rows.len()), "{rows:?}");
        let mut next = 0;
        for run in &runs {
            assert_eq!(run.start, next, "runs are adjacent: {runs:?}");
            assert!(run.end > run.start, "no empty run: {runs:?}");
            next = run.end;
        }
        assert_eq!(next, rows.len(), "runs cover every partition: {runs:?}");
        runs
    }

    #[test]
    fn partitions_group_into_one_balanced_run_per_seat() {
        // even rows: an even split
        assert_eq!(check_groups(&[10; 16], 2), vec![0..8, 8..16]);
        assert_eq!(check_groups(&[10; 16], 4), vec![0..4, 4..8, 8..12, 12..16]);
        // skew: the heavy partition gets a run nearly to itself
        assert_eq!(check_groups(&[1, 1, 100, 1, 1, 1], 2), vec![0..3, 3..6]);
        assert_eq!(check_groups(&[100, 1, 1, 1, 1, 1], 2), vec![0..1, 1..6]);
        // empty partitions still spread by count
        assert_eq!(check_groups(&[0; 8], 2), vec![0..4, 4..8]);
        // more seats than partitions: one partition each
        assert_eq!(check_groups(&[5, 0, 7], 8), vec![0..1, 1..2, 2..3]);
        // one seat: one run
        assert_eq!(check_groups(&[3, 4, 5], 1), vec![0..3]);
        assert!(balanced_runs(&[], 3).is_empty());
        // the contract holds for every split of awkward weights
        let rows: Vec<u64> = (0..23u64).map(|i| (i * 7919) % 97).collect();
        for groups in 1..=30 {
            check_groups(&rows, groups);
        }
    }

    #[test]
    fn pool_error_displays() {
        let e = PoolError::RetriesExhausted { task: 3, attempts: 4, last: "gone".into() };
        assert!(e.to_string().contains("task 3"));
        assert!(PoolError::NoWorkers { pending: 2 }.to_string().contains("2 tasks"));
    }

    /// Live processes whose parent is this test binary and whose command
    /// name is `comm` (zombies count: they were never reaped).
    fn children_named(comm: &str) -> usize {
        let me = std::process::id().to_string();
        let Ok(dir) = std::fs::read_dir("/proc") else { return 0 };
        dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("status")).ok())
            .filter(|status| {
                let field = |name: &str| {
                    status.lines().find_map(|l| l.strip_prefix(name)).map(str::trim).unwrap_or("")
                };
                field("PPid:") == me && field("Name:") == comm
            })
            .count()
    }

    /// Spawns a pool whose `program` cannot serve as a worker; it must
    /// fail typed and promptly.
    fn spawn_fails_with(program: &str) -> String {
        let mut cfg = WorkerPoolConfig::new(program);
        cfg.workers = 2;
        let started = Instant::now();
        let err = match WorkerPool::spawn(cfg) {
            Ok(_) => panic!("{program} must not pass for a worker"),
            Err(e) => e,
        };
        assert!(started.elapsed() < Duration::from_secs(5), "spawn of {program} hung");
        match err {
            PoolError::Spawn { seat: 0, message } => message,
            other => panic!("expected PoolError::Spawn for seat 0, got {other:?}"),
        }
    }

    #[test]
    fn missing_worker_program_is_a_typed_spawn_error() {
        let message = spawn_fails_with("/nonexistent/stark-worker");
        assert!(message.contains("fork"), "{message}");
    }

    #[test]
    fn worker_program_that_exits_at_once_is_a_typed_spawn_error() {
        let message = spawn_fails_with("/bin/true");
        assert!(message.contains("worker exited during spawn"), "{message}");
        assert_eq!(children_named("true"), 0, "the failed seat's process must be reaped");
    }
}
