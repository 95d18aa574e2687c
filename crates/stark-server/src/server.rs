//! The multi-tenant query service.
//!
//! A [`QueryServer`] owns one engine [`Context`] and serves Piglet
//! scripts to many concurrent TCP sessions. Each request runs a staged
//! pipeline:
//!
//! 1. **parse + normalize** — [`stark_piglet::normalize_script`] turns
//!    the script into a canonical template plus extracted literals;
//! 2. **plan** — the template is looked up in the [`PlanCache`]; only a
//!    miss pays for caching a new plan;
//! 3. **admission** — the request is submitted to the
//!    [`FairScheduler`]; a full tenant queue sheds it with a typed
//!    `Overloaded` response;
//! 4. **execute** — a scheduler worker instantiates the template,
//!    installs the request deadline as an engine cancel scope, runs the
//!    statements, and accounts the serialized response bytes against
//!    the tenant's [`ChildBudget`].
//!
//! Every failure mode is a typed [`Response`] variant; the connection
//! stays usable after any of them.

use crate::cache::PlanCache;
use crate::protocol::{recv, send, write_frame, Request, Response, ServiceStats};
use crate::scheduler::{FairScheduler, SubmitError};
use stark_engine::{ChildBudget, ChildReservation, Context, Rdd, TaskError};
use stark_piglet::value::Tuple;
use stark_piglet::{instantiate, normalize_script, Executor};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tenant's service contract.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    pub name: String,
    /// Fair-share weight: jobs this tenant may run per scheduler visit.
    pub weight: u32,
    /// Memory cap in bytes carved out of the engine budget; `None`
    /// bounds the tenant only by the shared parent budget.
    pub memory_cap: Option<u64>,
}

impl TenantConfig {
    pub fn new(name: &str) -> TenantConfig {
        TenantConfig { name: name.into(), weight: 1, memory_cap: None }
    }

    pub fn weight(mut self, weight: u32) -> TenantConfig {
        self.weight = weight;
        self
    }

    pub fn memory_cap(mut self, cap: u64) -> TenantConfig {
        self.memory_cap = Some(cap);
        self
    }
}

/// Deadline applied when a request does not carry one.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(10);

/// Service configuration. A request without its own deadline gets a
/// fixed 10 s one.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`ServerHandle::addr`]).
    pub addr: String,
    /// Scheduler worker threads — the number of concurrently executing
    /// queries (each query still parallelizes internally).
    pub workers: usize,
    /// Per-tenant queue bound; submissions beyond it are shed.
    pub max_queue_depth: usize,
    /// Plan cache capacity (entries).
    pub plan_cache_capacity: usize,
    pub tenants: Vec<TenantConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            max_queue_depth: 64,
            plan_cache_capacity: 256,
            tenants: vec![TenantConfig::new("default")],
        }
    }
}

struct Tenant {
    budget: Arc<ChildBudget>,
}

/// A dataset shared by all sessions: registered once, handed to each
/// per-request executor as a cheap handle clone.
pub type SharedDataset = (String, Arc<Vec<String>>, Rdd<Tuple>);

struct Counters {
    queries_ok: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    parse_errors: AtomicU64,
    shed_overload: AtomicU64,
    deadline_exceeded: AtomicU64,
    budget_exceeded: AtomicU64,
    exec_errors: AtomicU64,
}

/// Execution state captured by scheduler jobs. Kept in its own `Arc`,
/// separate from the scheduler: a job closure may be the last owner of
/// its captures, and dropping the scheduler from one of its own worker
/// threads would self-join. `Exec` owns nothing that joins threads.
struct Exec {
    ctx: Context,
    datasets: Vec<SharedDataset>,
    tenants: HashMap<String, Tenant>,
    cache: PlanCache,
    counters: Counters,
}

struct Inner {
    exec: Arc<Exec>,
    scheduler: FairScheduler,
    shutdown: AtomicBool,
}

/// Handle to a running server; shuts down (joining all threads) on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

/// The query service. See the module docs for the request pipeline.
pub struct QueryServer;

impl QueryServer {
    /// Binds and starts serving. `datasets` are registered under their
    /// alias for every session.
    pub fn start(
        ctx: Context,
        datasets: Vec<SharedDataset>,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let tenant_weights: Vec<(String, u32)> =
            config.tenants.iter().map(|t| (t.name.clone(), t.weight)).collect();
        let tenants = config
            .tenants
            .iter()
            .map(|t| (t.name.clone(), Tenant { budget: ctx.memory().child(t.memory_cap) }))
            .collect();
        let scheduler = FairScheduler::new(&tenant_weights, config.workers, config.max_queue_depth);
        let exec = Arc::new(Exec {
            ctx,
            datasets,
            tenants,
            cache: PlanCache::new(config.plan_cache_capacity),
            counters: Counters {
                queries_ok: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                parse_errors: AtomicU64::new(0),
                shed_overload: AtomicU64::new(0),
                deadline_exceeded: AtomicU64::new(0),
                budget_exceeded: AtomicU64::new(0),
                exec_errors: AtomicU64::new(0),
            },
        });
        let inner = Arc::new(Inner { exec, scheduler, shutdown: AtomicBool::new(false) });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("stark-accept".into())
                .spawn(move || accept_loop(listener, &inner))
                .expect("spawn accept thread")
        };
        Ok(ServerHandle { addr, inner, accept: Some(accept) })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Plan-cache hit/miss counters, for tests and diagnostics.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.inner.exec.cache.hits(), self.inner.exec.cache.misses())
    }

    /// Scheduler queue depth for `tenant` (None if unknown) — lets
    /// tests await admission-control states deterministically.
    pub fn queue_depth(&self, tenant: &str) -> Option<usize> {
        self.inner.scheduler.depth(tenant)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // drop queued jobs so sessions blocked on results unblock
        self.inner.scheduler.shutdown_now();
        // wake the accept loop with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, inner: &Arc<Inner>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let inner = Arc::clone(inner);
        if let Ok(h) = std::thread::Builder::new()
            .name("stark-session".into())
            .spawn(move || serve_connection(stream, &inner))
        {
            sessions.push(h);
        }
        // reap finished sessions so the handle list stays bounded
        sessions.retain(|h| !h.is_finished());
    }
    for h in sessions {
        let _ = h.join();
    }
}

fn serve_connection(stream: TcpStream, inner: &Arc<Inner>) {
    // Poll the shutdown flag between frames so sessions drain promptly
    // when the server stops.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let req: Request = match recv(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // client hung up
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return, // corrupt frame or mid-frame disconnect
        };
        let result = match req {
            Request::Stats => send(&mut writer, &Response::Stats(service_stats(inner)))
                .and_then(|()| writer.flush()),
            Request::Query { tenant, script, deadline_ms } => {
                let (payload, reservation) = handle_query(inner, &tenant, &script, deadline_ms);
                let out = write_frame(&mut writer, &payload).and_then(|()| writer.flush());
                drop(reservation); // response is on the wire; release the budget
                out
            }
        };
        if result.is_err() {
            return;
        }
    }
}

fn service_stats(inner: &Inner) -> ServiceStats {
    let c = &inner.exec.counters;
    let mut tenant_reserved: Vec<(String, u64)> =
        inner.exec.tenants.iter().map(|(name, t)| (name.clone(), t.budget.reserved())).collect();
    tenant_reserved.sort();
    ServiceStats {
        queries_ok: c.queries_ok.load(Ordering::Relaxed),
        cache_hits: c.cache_hits.load(Ordering::Relaxed),
        cache_misses: c.cache_misses.load(Ordering::Relaxed),
        parse_errors: c.parse_errors.load(Ordering::Relaxed),
        shed_overload: c.shed_overload.load(Ordering::Relaxed),
        deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
        budget_exceeded: c.budget_exceeded.load(Ordering::Relaxed),
        exec_errors: c.exec_errors.load(Ordering::Relaxed),
        tenant_reserved,
    }
}

/// Runs one query through the pipeline. Returns the serialized response
/// frame payload plus the tenant budget reservation covering it, held
/// until the bytes are written.
fn handle_query(
    inner: &Arc<Inner>,
    tenant: &str,
    script: &str,
    deadline_ms: Option<u64>,
) -> (Vec<u8>, Option<ChildReservation>) {
    let response = match run_query(inner, tenant, script, deadline_ms) {
        Ok(done) => return done,
        Err(resp) => *resp,
    };
    // error path: responses are small; no budget accounting
    let payload = serde_json::to_vec(&response).expect("response serializes");
    (payload, None)
}

fn run_query(
    inner: &Arc<Inner>,
    tenant: &str,
    script: &str,
    deadline_ms: Option<u64>,
) -> Result<(Vec<u8>, Option<ChildReservation>), Box<Response>> {
    let exec = &inner.exec;
    let c = &exec.counters;
    let Some(t) = exec.tenants.get(tenant) else {
        return Err(Box::new(Response::UnknownTenant { tenant: tenant.into() }));
    };

    // parse + normalize
    let normalized = normalize_script(script).map_err(|e| {
        c.parse_errors.fetch_add(1, Ordering::Relaxed);
        Box::new(Response::ParseError {
            line: e.line,
            column: e.column,
            token: e.token,
            message: e.message,
        })
    })?;

    // plan: cache lookup keyed on the normalized template
    let (template, cache_hit) = match exec.cache.get(&normalized.key) {
        Some(tpl) => {
            c.cache_hits.fetch_add(1, Ordering::Relaxed);
            (tpl, true)
        }
        None => {
            c.cache_misses.fetch_add(1, Ordering::Relaxed);
            (exec.cache.insert(normalized.key.clone(), normalized.template.clone()), false)
        }
    };

    // admission + execute on a scheduler worker
    let deadline = deadline_ms.map(Duration::from_millis).unwrap_or(DEFAULT_DEADLINE);
    let enqueued = Instant::now();
    let (tx, rx) = mpsc::channel();
    // the job captures only Exec — never the scheduler (see Exec docs)
    let job_exec = Arc::clone(exec);
    let job_tenant = tenant.to_string();
    let params = normalized.params;
    let budget = Arc::clone(&t.budget);
    let submitted = inner.scheduler.submit(
        tenant,
        Box::new(move || {
            let result = execute_job(
                &job_exec,
                &job_tenant,
                &template,
                &params,
                &budget,
                cache_hit,
                deadline.saturating_sub(enqueued.elapsed()),
            );
            let _ = tx.send(result);
        }),
    );
    match submitted {
        Ok(()) => {}
        Err(e @ SubmitError::QueueFull { .. }) => {
            c.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err(Box::new(Response::Overloaded { message: e.to_string() }));
        }
        Err(e) => return Err(Box::new(Response::ExecError { message: e.to_string() })),
    }
    match rx.recv() {
        Ok(result) => result,
        Err(_) => {
            Err(Box::new(Response::ExecError { message: "worker dropped the request".into() }))
        }
    }
}

/// The execute stage, on a scheduler worker thread.
fn execute_job(
    exec: &Arc<Exec>,
    tenant: &str,
    template: &[stark_piglet::ast::Statement],
    params: &[stark_piglet::ParamValue],
    budget: &Arc<ChildBudget>,
    cache_hit: bool,
    remaining: Duration,
) -> Result<(Vec<u8>, Option<ChildReservation>), Box<Response>> {
    let c = &exec.counters;
    if remaining.is_zero() {
        c.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        return Err(Box::new(Response::DeadlineExceeded {
            message: "deadline elapsed while queued".into(),
        }));
    }
    let statements = instantiate(template, params).map_err(|e| {
        Box::new(Response::ExecError { message: format!("plan instantiation failed: {e}") })
    })?;

    let start = Instant::now();
    let before = exec.ctx.metrics();
    let mut executor = Executor::new(exec.ctx.clone());
    for (alias, schema, rdd) in &exec.datasets {
        executor.register_shared(alias, Arc::clone(schema), rdd.clone());
    }
    // The deadline covers execution; time spent queued was already
    // subtracted. Engine tasks observe it cooperatively and unwind with
    // a typed TaskError, caught here instead of killing the worker.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _scope = exec.ctx.deadline_scope(remaining);
        executor.run_statements(statements)
    }));
    let engine = exec.ctx.metrics().diff(&before);
    let micros = start.elapsed().as_micros() as u64;

    let outputs = match outcome {
        Ok(Ok(outputs)) => outputs,
        Ok(Err(e)) => {
            c.exec_errors.fetch_add(1, Ordering::Relaxed);
            return Err(Box::new(Response::ExecError { message: e.to_string() }));
        }
        Err(panic) => {
            return Err(Box::new(classify_panic(panic, c)));
        }
    };

    let response = Response::Ok { outputs, cache_hit, engine: Box::new(engine), micros };
    let payload = serde_json::to_vec(&response).expect("response serializes");
    // account the result bytes against the tenant's budget: a tenant
    // whose results exceed its carve-out fails alone, without touching
    // the engine-wide budget other tenants run under
    match budget.try_reserve(payload.len() as u64) {
        Some(reservation) => {
            c.queries_ok.fetch_add(1, Ordering::Relaxed);
            Ok((payload, Some(reservation)))
        }
        None => {
            c.budget_exceeded.fetch_add(1, Ordering::Relaxed);
            Err(Box::new(Response::BudgetExceeded {
                message: format!(
                    "tenant {tenant:?}: result of {} bytes exceeds remaining budget (cap {:?}, reserved {})",
                    payload.len(),
                    budget.cap(),
                    budget.reserved(),
                ),
            }))
        }
    }
}

/// Maps a panic unwound out of the engine to a typed response. Engine
/// cancellation panics carry a [`TaskError`] payload; anything else is
/// an execution bug surfaced as `ExecError`.
fn classify_panic(panic: Box<dyn std::any::Any + Send>, c: &Counters) -> Response {
    match panic.downcast::<TaskError>() {
        Ok(task_err) if task_err.kind.is_cancellation() => {
            c.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            Response::DeadlineExceeded { message: task_err.to_string() }
        }
        Ok(task_err) => {
            c.exec_errors.fetch_add(1, Ordering::Relaxed);
            Response::ExecError { message: task_err.to_string() }
        }
        Err(other) => {
            c.exec_errors.fetch_add(1, Ordering::Relaxed);
            let message = other
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| other.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "task panicked".into());
            Response::ExecError { message }
        }
    }
}
