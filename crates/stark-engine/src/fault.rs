//! Deterministic fault injection for chaos testing.
//!
//! Spark's resilience story — lost tasks are retried and their
//! partitions recomputed from lineage — is untestable by inspection, so
//! the engine carries its own chaos harness: a seeded [`FaultInjector`]
//! installed via [`EngineConfig::fault_injector`](crate::EngineConfig)
//! that the executor consults at the start of every task attempt.
//! Whether a given `(stage, partition)` is struck is a pure function of
//! the seed, so a failing chaos run reproduces exactly from its seed
//! (CI exports it; locally `STARK_CHAOS_SEED=<n>` re-runs the same
//! schedule).
//!
//! Three policies model the failure modes a cluster actually shows:
//!
//! * [`FaultPolicy::Transient`] — the attempt panics, but a retry of the
//!   same task succeeds (a lost executor, a flaky fetch). Task retry
//!   must fully absorb these: results are identical to a fault-free run.
//! * [`FaultPolicy::Panic`] — every attempt panics (a poison record, a
//!   deterministic bug). The retry budget exhausts and the job surfaces
//!   a permanent [`TaskError`](crate::TaskError) naming the partition.
//! * [`FaultPolicy::Delay`] — the attempt is stalled before computing (a
//!   straggler); the task still succeeds and results must not change.
//! * [`FaultPolicy::MemoryPressure`] — the struck attempt shrinks the
//!   context's effective memory budget (an OOM-killer neighbour, a
//!   ballooning co-tenant); nothing panics, but downstream reservations
//!   start spilling and evicting. Results must not change.

use crate::memory::MemoryManager;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an injected fault does to the task attempt it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Panic on attempts below the injector's `fail_attempts` threshold;
    /// later attempts of the same task succeed. Recoverable by retry.
    Transient,
    /// Panic on every attempt; the task can never succeed.
    Panic,
    /// Sleep for the given duration before computing (cooperatively —
    /// the stall aborts early if the attempt is cancelled), then
    /// proceed. Like [`FaultPolicy::Transient`], only attempts below the
    /// injector's `fail_attempts` threshold are stalled, so a
    /// speculative duplicate running with fresh attempt numbers escapes
    /// the straggler.
    Delay(Duration),
    /// Shrink the context's effective memory budget to at most this many
    /// bytes (sticky until [`MemoryManager::lift_restriction`], and never
    /// above the configured budget). The struck attempt itself proceeds
    /// normally — the fault's blast radius is every *later* reservation,
    /// which now spills or evicts. Like [`FaultPolicy::Delay`], only
    /// attempts below the injector's `fail_attempts` threshold strike.
    MemoryPressure(u64),
}

/// Which task attempts a fault targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultScope {
    /// Seeded Bernoulli draw per `(stage, partition)` with this
    /// probability — the "p% of tasks fail" chaos configuration.
    Probability(f64),
    /// Every task computing this partition index, in every stage.
    Partition(usize),
    /// Every task of this stage ordinal (stages number job sweeps on a
    /// context, starting at 0).
    Stage(u64),
}

/// Typed panic payload raised by an injected fault, so the executor can
/// distinguish chaos from genuine task panics.
#[derive(Debug, Clone)]
pub(crate) struct InjectedFault {
    pub stage: u64,
    pub partition: usize,
    pub attempt: u32,
    pub transient: bool,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {} fault (stage {}, partition {}, attempt {})",
            if self.transient { "transient" } else { "permanent" },
            self.stage,
            self.partition,
            self.attempt
        )
    }
}

/// Seeded, deterministic fault injector consulted on every task attempt.
///
/// ```
/// use stark_engine::{Context, EngineConfig, FaultInjector};
/// use std::sync::Arc;
///
/// let chaos = Arc::new(FaultInjector::transient(0xC4A05, 0.10));
/// let ctx = Context::with_config(EngineConfig {
///     parallelism: 4,
///     max_task_retries: 3,
///     fault_injector: Some(chaos.clone()),
///     ..EngineConfig::default()
/// });
/// // ~10% of tasks panic once and are retried; the result is identical
/// // to a fault-free run.
/// let sum = ctx.parallelize((1..=100).collect(), 16).reduce(|a, b| a + b);
/// assert_eq!(sum, Some(5050));
/// assert_eq!(ctx.metrics().tasks_retried, chaos.injected());
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    scope: FaultScope,
    policy: FaultPolicy,
    /// Attempts that fail before a [`FaultPolicy::Transient`] task
    /// succeeds (default 1: the first attempt fails, the retry passes).
    fail_attempts: u32,
    /// Faults actually raised (panics and delays).
    injected: AtomicU64,
}

impl FaultInjector {
    /// Injector with an explicit scope and policy.
    pub fn new(seed: u64, scope: FaultScope, policy: FaultPolicy) -> Self {
        if let FaultScope::Probability(p) = scope {
            assert!((0.0..=1.0).contains(&p), "fault probability must be in [0, 1]");
        }
        FaultInjector { seed, scope, policy, fail_attempts: 1, injected: AtomicU64::new(0) }
    }

    /// Transient faults striking each `(stage, partition)` independently
    /// with probability `rate` — the standard chaos configuration.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self::new(seed, FaultScope::Probability(rate), FaultPolicy::Transient)
    }

    /// Memory-pressure faults striking each `(stage, partition)`
    /// independently with probability `rate`: a struck attempt shrinks
    /// the context's effective budget to `budget` bytes mid-job.
    pub fn memory_pressure(seed: u64, rate: f64, budget: u64) -> Self {
        Self::new(seed, FaultScope::Probability(rate), FaultPolicy::MemoryPressure(budget))
    }

    /// Number of attempts that fail before a transiently faulted task
    /// succeeds. A value of `n` requires a retry budget of at least `n`
    /// for the job to recover.
    pub fn with_fail_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1, "fail_attempts must be at least 1");
        self.fail_attempts = n;
        self
    }

    /// The seed this injector's schedule derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Faults raised so far (panics and delays, over all attempts).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether the deterministic schedule targets this task at all
    /// (independent of attempt number).
    fn targets(&self, stage: u64, partition: usize) -> bool {
        match self.scope {
            FaultScope::Partition(p) => partition == p,
            FaultScope::Stage(s) => stage == s,
            FaultScope::Probability(p) => {
                let h = splitmix64(
                    self.seed
                        ^ stage.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (partition as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
                );
                // uniform draw in [0, 1)
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                u < p
            }
        }
    }

    /// Consulted by the executor at the start of every task attempt,
    /// inside the task's panic guard. May sleep ([`FaultPolicy::Delay`]),
    /// panic with a typed [`InjectedFault`] payload, or restrict the
    /// context's memory budget ([`FaultPolicy::MemoryPressure`]).
    pub(crate) fn on_attempt(
        &self,
        stage: u64,
        partition: usize,
        attempt: u32,
        memory: &MemoryManager,
    ) {
        if !self.targets(stage, partition) {
            return;
        }
        match self.policy {
            FaultPolicy::MemoryPressure(budget) => {
                // Gated like Delay: the schedule's early attempts apply
                // the squeeze, retries and speculative duplicates run
                // under whatever budget is already in force.
                if attempt < self.fail_attempts {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    memory.restrict(budget);
                }
            }
            FaultPolicy::Delay(d) => {
                // Like Transient, only early attempts are stalled: a
                // speculative duplicate (running with attempt numbers
                // past the retry budget) models a relaunch on a healthy
                // node and is not stalled again. The sleep is
                // cooperative, so a stalled attempt that loses the
                // speculation race (or hits a deadline) releases its
                // worker promptly instead of sleeping out the stall.
                if attempt < self.fail_attempts {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    crate::cancel::sleep_cooperative(d);
                }
            }
            FaultPolicy::Panic => {
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(InjectedFault {
                    stage,
                    partition,
                    attempt,
                    transient: false,
                });
            }
            FaultPolicy::Transient => {
                if attempt < self.fail_attempts {
                    self.injected.fetch_add(1, Ordering::Relaxed);
                    std::panic::panic_any(InjectedFault {
                        stage,
                        partition,
                        attempt,
                        transient: true,
                    });
                }
            }
        }
    }
}

/// splitmix64 finaliser — decorrelates the fault draw from raw indices.
/// Crate-visible: the executor's retry-backoff jitter, the worker
/// pool's respawn jitter and `Rdd::sample` reuse it for deterministic
/// draws.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Transport chaos
// ---------------------------------------------------------------------------

/// What an injected transport fault does to a task dispatch. These
/// extend the task-level [`FaultPolicy`] set to the process boundary:
/// instead of a task attempt panicking in-process, the *transport or the
/// worker itself* fails, and recovery must come from the supervisor's
/// worker-loss path (reassignment + respawn), not from the in-task retry
/// loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportPolicy {
    /// SIGKILL the worker process right after the task frame is sent —
    /// a fail-stop crash mid-task. Detected by connection EOF.
    KillWorker,
    /// Drop the task frame on the floor: the worker never sees it and
    /// idles, heartbeating healthily. Only the driver's per-task
    /// deadline catches this.
    DropFrame,
    /// Send a torn frame (correct length prefix, half the payload) and
    /// hang up nothing: the worker blocks mid-read, wedged but alive.
    /// Like `DropFrame`, caught by the task deadline.
    TruncateFrame,
    /// Flip a payload byte after the checksum is computed: the worker's
    /// frame decoder rejects it and the worker fail-stops (exit 1),
    /// surfacing as a connection loss.
    CorruptFrame,
    /// Stall the dispatch this long before sending (slow network). The
    /// task still completes; results must not change.
    DelayFrame(Duration),
}

/// Seeded, deterministic transport-fault injector consulted by the
/// worker pool on every task dispatch. The draw is a pure function of
/// `(seed, job, task, attempt)`, so a chaos run reproduces exactly from
/// its seed, and reassigned attempts (attempt ≥ `fail_attempts`) are
/// never struck again — the invariant that lets tests pin
/// `reassigned == injected`.
#[derive(Debug)]
pub struct TransportChaos {
    seed: u64,
    rate: f64,
    policy: TransportPolicy,
    /// Attempts below this threshold are eligible (default 1: only the
    /// first dispatch of a task can be struck).
    fail_attempts: u32,
    /// When set, strike at most this many dispatches in total.
    max_strikes: Option<u64>,
    injected: AtomicU64,
}

impl TransportChaos {
    /// Injector striking each `(job, task)` first dispatch independently
    /// with probability `rate`.
    pub fn new(seed: u64, rate: f64, policy: TransportPolicy) -> Self {
        assert!((0.0..=1.0).contains(&rate), "transport fault rate must be in [0, 1]");
        TransportChaos {
            seed,
            rate,
            policy,
            fail_attempts: 1,
            max_strikes: None,
            injected: AtomicU64::new(0),
        }
    }

    /// Injector that strikes exactly the first dispatch it sees and
    /// nothing else — "kill one worker mid-job", deterministically.
    pub fn once(policy: TransportPolicy) -> Self {
        let mut c = Self::new(0, 1.0, policy);
        c.max_strikes = Some(1);
        c
    }

    /// Caps the total number of strikes.
    pub fn with_max_strikes(mut self, n: u64) -> Self {
        self.max_strikes = Some(n);
        self
    }

    /// Number of attempts of a task that are eligible to be struck.
    pub fn with_fail_attempts(mut self, n: u32) -> Self {
        assert!(n >= 1, "fail_attempts must be at least 1");
        self.fail_attempts = n;
        self
    }

    /// Transport faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Consulted by the pool before sending a task: returns the policy
    /// to apply to this dispatch, or `None` to send normally. Counts
    /// every strike.
    pub fn draw(&self, job: u64, task: u64, attempt: u32) -> Option<TransportPolicy> {
        if attempt >= self.fail_attempts {
            return None;
        }
        let h = splitmix64(
            self.seed
                ^ job.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ task.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u >= self.rate {
            return None;
        }
        if let Some(cap) = self.max_strikes {
            // claim a strike slot atomically so concurrent dispatches
            // cannot overshoot the cap
            let mut cur = self.injected.load(Ordering::Relaxed);
            loop {
                if cur >= cap {
                    return None;
                }
                match self.injected.compare_exchange(
                    cur,
                    cur + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return Some(self.policy),
                    Err(now) => cur = now,
                }
            }
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(self.policy)
    }
}

// ---------------------------------------------------------------------------
// Fetch chaos (remote shuffle)
// ---------------------------------------------------------------------------

/// What an injected fetch fault does to a shuffle bucket request. These
/// extend [`TransportPolicy`] to the *data plane*: instead of a task
/// dispatch failing driver→worker, a reducer's peer-to-peer bucket fetch
/// fails worker→worker, and recovery must come from the supervisor's
/// lost-map-output path (invalidate + regenerate via lineage), not just
/// from the fetch retry loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchPolicy {
    /// The serving worker answers the request with an explicit refusal
    /// (models connection refused / a server shedding load). The client
    /// retries with backoff.
    RefuseFetch,
    /// The server sends a valid response header, half of the remaining
    /// payload bytes, then hangs up — a torn transfer. The client's
    /// partial-fetch resume continues from the received offset.
    DropBucket,
    /// The server sends the full payload with one byte flipped after the
    /// checksum was computed; the client's whole-payload CRC check
    /// rejects it and the fetch restarts from offset 0.
    CorruptBucket,
    /// The server stalls this long before serving (a slow peer). The
    /// fetch still succeeds; results must not change and no retry is
    /// consumed.
    DelayFetch(Duration),
    /// The serving worker process exits immediately — the victim's map
    /// outputs are lost and the supervisor must regenerate them via
    /// lineage on survivors.
    KillServingWorker,
}

/// Declarative fetch-fault spec, passed from the driver to workers via
/// the `STARK_FETCH_CHAOS` environment variable (workers are separate
/// processes, so the injector state cannot be shared — each worker
/// tracks its own strike budget with a [`FetchChaosState`]).
///
/// The `max_epoch` guard is what makes kill-chaos runs converge:
/// regenerated map outputs register at a bumped shuffle epoch, and a
/// request for an epoch above `max_epoch` is never struck — so recovery
/// traffic cannot re-trigger the fault that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchChaos {
    pub policy: FetchPolicy,
    /// Strike at most this many matching requests (per worker process).
    pub max_strikes: u64,
    /// Only requests for shuffle epochs `<= max_epoch` are eligible.
    pub max_epoch: u64,
    /// Only bucket keys containing this substring are eligible; `None`
    /// matches every key. Kill-chaos tests scope the fault to one map
    /// task's outputs (e.g. `"task-00000/"`) so exactly one worker dies.
    pub key_filter: Option<String>,
}

impl FetchChaos {
    /// A spec striking exactly one matching epoch-0 request.
    pub fn once(policy: FetchPolicy) -> Self {
        FetchChaos { policy, max_strikes: 1, max_epoch: 0, key_filter: None }
    }

    pub fn with_max_strikes(mut self, n: u64) -> Self {
        self.max_strikes = n;
        self
    }

    pub fn with_key_filter(mut self, filter: impl Into<String>) -> Self {
        self.key_filter = Some(filter.into());
        self
    }

    /// Encodes the spec for the `STARK_FETCH_CHAOS` environment variable:
    /// `policy[:delay_ms]|max_strikes|max_epoch|key_filter` (the filter
    /// field may be empty).
    pub fn to_env(&self) -> String {
        let policy = match self.policy {
            FetchPolicy::RefuseFetch => "refuse".to_string(),
            FetchPolicy::DropBucket => "drop".to_string(),
            FetchPolicy::CorruptBucket => "corrupt".to_string(),
            FetchPolicy::DelayFetch(d) => format!("delay:{}", d.as_millis()),
            FetchPolicy::KillServingWorker => "kill".to_string(),
        };
        format!(
            "{policy}|{}|{}|{}",
            self.max_strikes,
            self.max_epoch,
            self.key_filter.as_deref().unwrap_or("")
        )
    }

    /// Decodes [`FetchChaos::to_env`]'s format; `None` on any mismatch
    /// (a malformed spec disables chaos rather than guessing).
    pub fn from_env(s: &str) -> Option<FetchChaos> {
        let mut parts = s.splitn(4, '|');
        let policy = match parts.next()? {
            "refuse" => FetchPolicy::RefuseFetch,
            "drop" => FetchPolicy::DropBucket,
            "corrupt" => FetchPolicy::CorruptBucket,
            "kill" => FetchPolicy::KillServingWorker,
            p => {
                let ms: u64 = p.strip_prefix("delay:")?.parse().ok()?;
                FetchPolicy::DelayFetch(Duration::from_millis(ms))
            }
        };
        let max_strikes = parts.next()?.parse().ok()?;
        let max_epoch = parts.next()?.parse().ok()?;
        let filter = parts.next()?;
        Some(FetchChaos {
            policy,
            max_strikes,
            max_epoch,
            key_filter: if filter.is_empty() { None } else { Some(filter.to_string()) },
        })
    }
}

/// Worker-side strike counter wrapping a [`FetchChaos`] spec. Consulted
/// by the shuffle server on every bucket request.
#[derive(Debug)]
pub struct FetchChaosState {
    spec: FetchChaos,
    struck: AtomicU64,
}

impl FetchChaosState {
    pub fn new(spec: FetchChaos) -> Self {
        FetchChaosState { spec, struck: AtomicU64::new(0) }
    }

    /// Builds the state from `STARK_FETCH_CHAOS` if set and well-formed.
    pub fn from_env_var() -> Option<Self> {
        let spec = std::env::var("STARK_FETCH_CHAOS").ok()?;
        FetchChaos::from_env(&spec).map(Self::new)
    }

    /// Fetch faults injected so far by this worker.
    pub fn injected(&self) -> u64 {
        self.struck.load(Ordering::Relaxed)
    }

    /// Returns the policy to apply to a request for `key` at `epoch`, or
    /// `None` to serve normally. Claims a strike slot atomically so
    /// concurrent request handlers cannot overshoot the cap.
    pub fn draw(&self, key: &str, epoch: u64) -> Option<FetchPolicy> {
        if epoch > self.spec.max_epoch {
            return None; // regenerated outputs must serve cleanly
        }
        if let Some(filter) = &self.spec.key_filter {
            if !key.contains(filter.as_str()) {
                return None;
            }
        }
        let mut cur = self.struck.load(Ordering::Relaxed);
        loop {
            if cur >= self.spec.max_strikes {
                return None;
            }
            match self.struck.compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Some(self.spec.policy),
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_draws_are_deterministic_and_proportional() {
        let a = FaultInjector::transient(42, 0.25);
        let b = FaultInjector::transient(42, 0.25);
        let hits: usize = (0..40u64)
            .flat_map(|s| (0..100usize).map(move |p| (s, p)))
            .filter(|&(s, p)| a.targets(s, p))
            .count();
        for s in 0..40u64 {
            for p in 0..100usize {
                assert_eq!(a.targets(s, p), b.targets(s, p), "same seed must draw identically");
            }
        }
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "got hit rate {rate}, expected ~0.25");
        // a different seed produces a different schedule
        let c = FaultInjector::transient(43, 0.25);
        let differs = (0..40u64)
            .flat_map(|s| (0..100usize).map(move |p| (s, p)))
            .any(|(s, p)| a.targets(s, p) != c.targets(s, p));
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn scope_targets_partition_and_stage() {
        let p = FaultInjector::new(1, FaultScope::Partition(3), FaultPolicy::Transient);
        assert!(p.targets(0, 3) && p.targets(9, 3));
        assert!(!p.targets(0, 2));
        let s = FaultInjector::new(1, FaultScope::Stage(2), FaultPolicy::Transient);
        assert!(s.targets(2, 0) && s.targets(2, 7));
        assert!(!s.targets(3, 0));
    }

    #[test]
    fn transient_faults_stop_after_fail_attempts() {
        let mm = MemoryManager::new(None, std::sync::Arc::new(crate::metrics::Metrics::default()));
        let inj = FaultInjector::new(7, FaultScope::Partition(0), FaultPolicy::Transient)
            .with_fail_attempts(2);
        for attempt in 0..2 {
            let err = std::panic::catch_unwind(|| inj.on_attempt(0, 0, attempt, &mm));
            assert!(err.is_err(), "attempt {attempt} must fail");
        }
        let ok = std::panic::catch_unwind(|| inj.on_attempt(0, 0, 2, &mm));
        assert!(ok.is_ok(), "attempt past the threshold must pass");
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn memory_pressure_restricts_without_panicking() {
        let mm = MemoryManager::new(
            Some(1_000_000),
            std::sync::Arc::new(crate::metrics::Metrics::default()),
        );
        let inj = FaultInjector::new(9, FaultScope::Partition(1), FaultPolicy::MemoryPressure(64));
        inj.on_attempt(0, 1, 0, &mm); // strikes: no panic, budget shrinks
        assert_eq!(inj.injected(), 1);
        assert_eq!(mm.budget(), Some(64));
        inj.on_attempt(0, 1, 1, &mm); // past fail_attempts: no-op
        assert_eq!(inj.injected(), 1);
        inj.on_attempt(0, 0, 0, &mm); // untargeted partition: no-op
        assert_eq!(inj.injected(), 1);
        mm.lift_restriction();
        assert_eq!(mm.budget(), Some(1_000_000));
    }

    #[test]
    fn rate_bounds_validated() {
        let r = std::panic::catch_unwind(|| FaultInjector::transient(0, 1.5));
        assert!(r.is_err());
    }

    #[test]
    fn transport_draws_are_deterministic_and_skip_retries() {
        let a = TransportChaos::new(99, 0.3, TransportPolicy::KillWorker);
        let b = TransportChaos::new(99, 0.3, TransportPolicy::KillWorker);
        let mut hits = 0usize;
        for job in 0..10u64 {
            for task in 0..100u64 {
                let da = a.draw(job, task, 0);
                assert_eq!(da, b.draw(job, task, 0), "same seed must draw identically");
                if da.is_some() {
                    hits += 1;
                }
                // reassigned attempts are never struck again
                assert_eq!(a.draw(job, task, 1), None);
            }
        }
        let rate = hits as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.08, "got strike rate {rate}, expected ~0.3");
        assert_eq!(a.injected() as usize, hits);
    }

    #[test]
    fn once_strikes_exactly_one_dispatch() {
        let c = TransportChaos::once(TransportPolicy::CorruptFrame);
        assert_eq!(c.draw(0, 0, 0), Some(TransportPolicy::CorruptFrame));
        for task in 1..50 {
            assert_eq!(c.draw(0, task, 0), None);
        }
        assert_eq!(c.injected(), 1);
    }

    #[test]
    fn fetch_chaos_env_roundtrip() {
        for spec in [
            FetchChaos::once(FetchPolicy::KillServingWorker).with_key_filter("task-00000/"),
            FetchChaos::once(FetchPolicy::RefuseFetch),
            FetchChaos::once(FetchPolicy::DropBucket).with_max_strikes(3),
            FetchChaos::once(FetchPolicy::CorruptBucket),
            FetchChaos {
                policy: FetchPolicy::DelayFetch(Duration::from_millis(75)),
                max_strikes: 2,
                max_epoch: 1,
                key_filter: None,
            },
        ] {
            let env = spec.to_env();
            assert_eq!(FetchChaos::from_env(&env), Some(spec), "spec {env:?} must roundtrip");
        }
        assert_eq!(FetchChaos::from_env("garbage|x|y|z"), None);
        assert_eq!(FetchChaos::from_env(""), None);
    }

    #[test]
    fn fetch_chaos_respects_epoch_filter_and_cap() {
        let state = FetchChaosState::new(
            FetchChaos::once(FetchPolicy::RefuseFetch)
                .with_max_strikes(2)
                .with_key_filter("task-00001/"),
        );
        // wrong key: never struck
        assert_eq!(state.draw("sh/task-00000/bucket-00000", 0), None);
        // regenerated epoch: never struck, even on a matching key
        assert_eq!(state.draw("sh/task-00001/bucket-00000", 1), None);
        // matching key at epoch 0: struck until the cap
        assert_eq!(state.draw("sh/task-00001/bucket-00000", 0), Some(FetchPolicy::RefuseFetch));
        assert_eq!(state.draw("sh/task-00001/bucket-00001", 0), Some(FetchPolicy::RefuseFetch));
        assert_eq!(state.draw("sh/task-00001/bucket-00002", 0), None, "cap exhausted");
        assert_eq!(state.injected(), 2);
    }

    #[test]
    fn max_strikes_caps_under_concurrency() {
        let c = std::sync::Arc::new(
            TransportChaos::new(5, 1.0, TransportPolicy::DropFrame).with_max_strikes(3),
        );
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for task in 0..100u64 {
                        let _ = c.draw(t, task, 0);
                    }
                });
            }
        });
        assert_eq!(c.injected(), 3);
    }
}
