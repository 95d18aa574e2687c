//! Deterministic fault injection for chaos testing.
//!
//! Spark's resilience story — failed tasks are retried, a lost worker's
//! work is reassigned, lost map outputs are recomputed from lineage — is
//! untestable by inspection, so the engine carries its own chaos
//! harness: one seeded [`FaultPlan`] holding a list of [`FaultRule`]s.
//! Each rule's [`Fault`] belongs to one of three sites, and each site's
//! hook consults the plan with its own coordinates:
//!
//! * **task** — the executor, at the start of every task attempt, as
//!   `(stage, partition, attempt)`; installed through
//!   [`EngineConfig::fault_injector`](crate::EngineConfig);
//! * **dispatch** — the worker pool, before sending every task frame, as
//!   `(job, task, attempt)`; installed through
//!   [`WorkerPoolConfig::faults`](crate::WorkerPoolConfig);
//! * **fetch** — every worker's shuffle server, on every bucket request,
//!   as the bucket key and the shuffle epoch. The pool hands its fetch
//!   rules to each forked worker as a `--faults <json>` argument.
//!
//! Whether a rule strikes is a pure function of the seed and the
//! coordinates, so a failing chaos run reproduces exactly from its seed
//! (CI exports it; locally `STARK_CHAOS_SEED=<n>` re-runs the same
//! schedule). A rule only strikes attempts below its `attempts` gate, so
//! recovery traffic — a retried or reassigned attempt, an output
//! regenerated at a bumped epoch — is never struck again. That is the
//! invariant that lets the chaos suites pin `retried == injected`.

use crate::memory::MemoryManager;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an injected fault does. Each variant strikes at one site: the
/// first four at task attempts, the next five at task dispatches, the
/// last five at shuffle bucket fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Task: the attempt panics, but a retry of the same task succeeds
    /// (a lost executor, a flaky fetch). Task retry must fully absorb
    /// these: results are identical to a fault-free run.
    Transient,
    /// Task: every attempt panics (a poison record, a deterministic bug);
    /// [`FaultRule::new`] gates no attempt. The retry budget exhausts and
    /// the job surfaces a permanent [`TaskError`](crate::TaskError).
    Panic,
    /// Task: sleep this long before computing (a straggler). The sleep is
    /// cooperative, so a stalled attempt that loses a speculation race
    /// or hits a deadline releases its thread promptly. A speculative
    /// duplicate runs with attempt numbers past the gate and escapes it.
    Delay(Duration),
    /// Task: shrink the context's effective memory budget to at most this
    /// many bytes (sticky until [`MemoryManager::lift_restriction`]). The
    /// struck attempt proceeds normally; every *later* reservation spills
    /// or evicts. Results must not change.
    MemoryPressure(u64),
    /// Dispatch: SIGKILL the worker right before the task frame is sent —
    /// a fail-stop crash mid-task, detected by connection EOF.
    KillWorker,
    /// Dispatch: drop the task frame. The worker idles, heartbeating
    /// healthily; only the driver's per-task deadline catches this.
    DropFrame,
    /// Dispatch: send a torn frame (correct length prefix, half the
    /// payload). The worker blocks mid-read, wedged but alive; caught by
    /// the task deadline.
    TruncateFrame,
    /// Dispatch: flip a payload byte after the checksum is computed. The
    /// worker's frame decoder rejects it and the worker fail-stops.
    CorruptFrame,
    /// Dispatch: stall this long before sending (a slow network). The task
    /// still completes; results must not change.
    DelayFrame(Duration),
    /// Fetch: the serving worker answers with an explicit refusal. The
    /// client retries with backoff.
    RefuseFetch,
    /// Fetch: send a valid header and half of the remaining bytes, then
    /// hang up. The client resumes from the received offset.
    DropBucket,
    /// Fetch: send the full payload with one byte flipped after the
    /// checksum was announced. The client's CRC check rejects it and the
    /// fetch restarts from offset 0.
    CorruptBucket,
    /// Fetch: stall this long before serving (a slow peer). No retry is
    /// consumed.
    DelayFetch(Duration),
    /// Fetch: the serving worker process exits. Its map outputs are lost
    /// and the pool must regenerate them via lineage on survivors.
    KillServingWorker,
}

/// The hook that consults a [`Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    Task,
    Dispatch,
    Fetch,
}

impl Fault {
    pub(crate) fn site(self) -> Site {
        match self {
            Fault::Transient | Fault::Panic | Fault::Delay(_) | Fault::MemoryPressure(_) => {
                Site::Task
            }
            Fault::KillWorker
            | Fault::DropFrame
            | Fault::TruncateFrame
            | Fault::CorruptFrame
            | Fault::DelayFrame(_) => Site::Dispatch,
            Fault::RefuseFetch
            | Fault::DropBucket
            | Fault::CorruptBucket
            | Fault::DelayFetch(_)
            | Fault::KillServingWorker => Site::Fetch,
        }
    }
}

/// Which strikes a rule targets. A site's coordinates are `(a, b)` —
/// `(stage, partition)` for tasks, `(job, task)` for dispatches — plus a
/// bucket key at the fetch site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scope {
    /// Seeded Bernoulli draw per `(a, b)` with this probability — the
    /// "p% of tasks fail" chaos configuration.
    Probability(f64),
    /// Every task computing this partition index, in every stage.
    Partition(usize),
    /// Every task of this stage ordinal (stages number job sweeps on a
    /// context, starting at 0).
    Stage(u64),
    /// Every bucket whose key contains this substring. Kill-chaos tests
    /// scope a fetch fault to one map task's outputs (`"task-00000/"`),
    /// so exactly one worker dies.
    Key(String),
}

/// One fault, where it strikes, and how often.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    pub fault: Fault,
    pub scope: Scope,
    /// Only attempts below this are struck — the fetch site passes the
    /// shuffle epoch as its attempt. `n` requires a retry budget of at
    /// least `n` for a transiently faulted job to recover.
    pub attempts: u64,
    /// Strike at most this many times (per process); `None` is unbounded.
    pub strikes: Option<u64>,
}

impl FaultRule {
    /// An uncapped rule striking only first attempts — every attempt for
    /// [`Fault::Panic`].
    pub fn new(fault: Fault, scope: Scope) -> Self {
        let attempts = if fault == Fault::Panic { u64::MAX } else { 1 };
        FaultRule { fault, scope, attempts, strikes: None }
    }

    /// A rule striking exactly the first attempt it sees, once.
    pub fn once(fault: Fault) -> Self {
        FaultRule { strikes: Some(1), ..Self::new(fault, Scope::Probability(1.0)) }
    }
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

/// A seed and the rules it drives, with one strike counter per rule.
///
/// ```
/// use stark_engine::{Context, EngineConfig, FaultPlan};
/// use std::sync::Arc;
///
/// let chaos = Arc::new(FaultPlan::transient(0xC4A05, 0.10));
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
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    struck: Vec<AtomicU64>,
}

impl FaultPlan {
    /// A plan drawing `rules` from `seed`. Panics on a probability
    /// outside `[0, 1]`.
    pub fn new(seed: u64, rules: Vec<FaultRule>) -> Self {
        for rule in &rules {
            if let Scope::Probability(p) = rule.scope {
                assert!((0.0..=1.0).contains(&p), "fault probability must be in [0, 1]");
            }
        }
        let struck = rules.iter().map(|_| AtomicU64::new(0)).collect();
        FaultPlan { seed, rules, struck }
    }

    /// Transient faults striking each `(stage, partition)` independently
    /// with probability `rate` — the standard chaos configuration.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self::new(seed, vec![FaultRule::new(Fault::Transient, Scope::Probability(rate))])
    }

    /// Memory-pressure faults striking each `(stage, partition)`
    /// independently with probability `rate`: a struck attempt shrinks
    /// the context's effective budget to `budget` bytes mid-job.
    pub fn memory_pressure(seed: u64, rate: f64, budget: u64) -> Self {
        let fault = Fault::MemoryPressure(budget);
        Self::new(seed, vec![FaultRule::new(fault, Scope::Probability(rate))])
    }

    /// A plan striking the first attempt it sees at `fault`'s site, once —
    /// "kill one worker mid-job", deterministically.
    pub fn once(fault: Fault) -> Self {
        Self::new(0, vec![FaultRule::once(fault)])
    }

    /// Strikes made so far in this process, over all rules.
    pub fn injected(&self) -> u64 {
        self.struck.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Rejects a rule that `consumer` would never consult.
    pub(crate) fn assert_sites(&self, consumer: &str, sites: &[Site]) {
        for rule in &self.rules {
            assert!(
                sites.contains(&rule.fault.site()),
                "{consumer} never consults {:?}",
                rule.fault
            );
        }
    }

    /// The seed and the fetch rules, as the pool passes them to a worker
    /// (`None` when there are none).
    pub(crate) fn fetch_arg(&self) -> Option<String> {
        let rules: Vec<&FaultRule> =
            self.rules.iter().filter(|r| r.fault.site() == Site::Fetch).collect();
        let arg = || serde_json::to_string(&(self.seed, &rules)).expect("fault rules serialise");
        (!rules.is_empty()).then(arg)
    }

    /// Decodes [`Self::fetch_arg`]; any other shape, or a rule for another
    /// site, is an error.
    pub(crate) fn from_fetch_arg(arg: &str) -> Result<Self, String> {
        let (seed, rules): (u64, Vec<FaultRule>) =
            serde_json::from_str(arg).map_err(|e| e.to_string())?;
        match rules.iter().find(|r| r.fault.site() != Site::Fetch) {
            Some(r) => Err(format!("{:?} is not a fetch fault", r.fault)),
            None => Ok(Self::new(seed, rules)),
        }
    }

    /// The fault to apply at `site` for coordinates `(a, b)` and `key` on
    /// `attempt`, or `None` to proceed normally. The first rule that
    /// targets the point and still has a strike left wins, and counts it.
    pub(crate) fn strike(
        &self,
        site: Site,
        a: u64,
        b: u64,
        key: &str,
        attempt: u64,
    ) -> Option<Fault> {
        self.rules.iter().zip(&self.struck).find_map(|(rule, struck)| {
            let targets = rule.fault.site() == site
                && attempt < rule.attempts
                && match &rule.scope {
                    Scope::Probability(p) => draw(self.seed, a, b) < *p,
                    Scope::Partition(p) => b == *p as u64,
                    Scope::Stage(s) => a == *s,
                    Scope::Key(k) => key.contains(k.as_str()),
                };
            (targets && claim(struck, rule.strikes)).then_some(rule.fault)
        })
    }

    /// The task hook, run by the executor inside the attempt's panic
    /// guard. May sleep ([`Fault::Delay`]), restrict the context's memory
    /// budget ([`Fault::MemoryPressure`]), or panic with a typed
    /// [`InjectedFault`] payload.
    pub(crate) fn on_attempt(
        &self,
        stage: u64,
        partition: usize,
        attempt: u32,
        memory: &MemoryManager,
    ) {
        let transient = match self.strike(Site::Task, stage, partition as u64, "", attempt.into()) {
            None => return,
            Some(Fault::MemoryPressure(budget)) => return memory.restrict(budget),
            Some(Fault::Delay(d)) => return crate::cancel::sleep_cooperative(d),
            Some(fault) => fault == Fault::Transient,
        };
        std::panic::panic_any(InjectedFault { stage, partition, attempt, transient });
    }
}

/// Uniform draw in `[0, 1)` for the point `(a, b)` under `seed`.
fn draw(seed: u64, a: u64, b: u64) -> f64 {
    let h = splitmix64(
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Claims one strike under `cap` atomically, so concurrent hooks cannot
/// overshoot it.
fn claim(struck: &AtomicU64, cap: Option<u64>) -> bool {
    let cap = cap.unwrap_or(u64::MAX);
    struck
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n < cap).then_some(n + 1))
        .is_ok()
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `plan` strikes the first attempt of task `(stage, partition)`.
    fn hits(plan: &FaultPlan, stage: u64, partition: u64) -> bool {
        plan.strike(Site::Task, stage, partition, "", 0).is_some()
    }

    /// FNV-1a over the little-endian bytes of `xs`.
    fn fnv(xs: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in xs.iter().flat_map(|x| x.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// The schedules the three separate injectors this plan replaced
    /// struck, computed with their draws: task strikes over 8 stages × 64
    /// partitions at rate 0.10 (index `stage * 64 + partition`), and
    /// dispatch strikes over 10 jobs × 100 tasks at rate 0.3 (index
    /// `job * 100 + task`). CI's pinned seed 805381 must keep striking
    /// exactly these tasks.
    #[test]
    fn golden_schedules_match_the_separate_injector_draws() {
        let task_golden: [(u64, &[u64]); 2] = [
            (
                42,
                &[
                    3, 6, 10, 12, 27, 52, 61, 63, 66, 67, 80, 83, 88, 101, 107, 121, 141, 143, 164,
                    174, 194, 203, 207, 229, 235, 254, 256, 264, 282, 286, 297, 304, 322, 341, 369,
                    386, 400, 406, 410, 430, 456, 479, 499, 502, 503,
                ],
            ),
            (
                805381,
                &[
                    17, 18, 27, 37, 38, 55, 58, 96, 101, 175, 183, 214, 218, 220, 233, 251, 262,
                    290, 293, 300, 325, 327, 357, 374, 388, 396, 402, 406, 408, 409, 421, 430, 443,
                    449, 450, 465, 470, 479, 482, 494, 509,
                ],
            ),
        ];
        for (seed, golden) in task_golden {
            let plan = FaultPlan::transient(seed, 0.10);
            let struck: Vec<u64> = (0..8 * 64).filter(|i| hits(&plan, i / 64, i % 64)).collect();
            assert_eq!(struck, golden, "seed {seed}");
            assert_eq!(plan.injected(), golden.len() as u64);
        }
        let dispatch_golden =
            [(99u64, 285usize, 0x5a7b_5046_6d31_550e_u64), (805381, 300, 0xc571_6e0d_fa99_1697)];
        for (seed, count, hash) in dispatch_golden {
            let plan = FaultPlan::new(
                seed,
                vec![FaultRule::new(Fault::KillWorker, Scope::Probability(0.3))],
            );
            let struck: Vec<u64> = (0..10 * 100)
                .filter(|i| plan.strike(Site::Dispatch, i / 100, i % 100, "", 0).is_some())
                .collect();
            assert_eq!((struck.len(), fnv(&struck)), (count, hash), "seed {seed}");
        }
    }

    #[test]
    fn probability_draws_are_deterministic_and_proportional() {
        let a = FaultPlan::transient(42, 0.25);
        let b = FaultPlan::transient(42, 0.25);
        let c = FaultPlan::transient(43, 0.25);
        let (mut hit_count, mut differs) = (0usize, false);
        for s in 0..40u64 {
            for p in 0..100u64 {
                let hit = hits(&a, s, p);
                assert_eq!(hit, hits(&b, s, p), "same seed must draw identically");
                hit_count += hit as usize;
                differs |= hit != hits(&c, s, p);
            }
        }
        let rate = hit_count as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "got hit rate {rate}, expected ~0.25");
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn scope_targets_partition_and_stage() {
        let p = FaultPlan::new(1, vec![FaultRule::new(Fault::Transient, Scope::Partition(3))]);
        assert!(hits(&p, 0, 3) && hits(&p, 9, 3));
        assert!(!hits(&p, 0, 2));
        let s = FaultPlan::new(1, vec![FaultRule::new(Fault::Transient, Scope::Stage(2))]);
        assert!(hits(&s, 2, 0) && hits(&s, 2, 7));
        assert!(!hits(&s, 3, 0));
    }

    #[test]
    fn transient_faults_stop_after_fail_attempts() {
        let mm = MemoryManager::new(None, std::sync::Arc::new(crate::metrics::Metrics::default()));
        let inj = FaultPlan::new(
            7,
            vec![FaultRule {
                attempts: 2,
                ..FaultRule::new(Fault::Transient, Scope::Partition(0))
            }],
        );
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
        let inj =
            FaultPlan::new(9, vec![FaultRule::new(Fault::MemoryPressure(64), Scope::Partition(1))]);
        inj.on_attempt(0, 1, 0, &mm); // strikes: no panic, budget shrinks
        assert_eq!(inj.injected(), 1);
        assert_eq!(mm.budget(), Some(64));
        inj.on_attempt(0, 1, 1, &mm); // past the attempts gate: no-op
        assert_eq!(inj.injected(), 1);
        inj.on_attempt(0, 0, 0, &mm); // untargeted partition: no-op
        assert_eq!(inj.injected(), 1);
        mm.lift_restriction();
        assert_eq!(mm.budget(), Some(1_000_000));
    }

    #[test]
    fn rate_bounds_validated() {
        let r = std::panic::catch_unwind(|| FaultPlan::transient(0, 1.5));
        assert!(r.is_err());
    }

    #[test]
    fn transport_draws_are_deterministic_and_skip_retries() {
        let mk =
            || FaultPlan::new(99, vec![FaultRule::new(Fault::KillWorker, Scope::Probability(0.3))]);
        let (a, b) = (mk(), mk());
        let mut hits = 0usize;
        for job in 0..10u64 {
            for task in 0..100u64 {
                let da = a.strike(Site::Dispatch, job, task, "", 0);
                assert_eq!(da, b.strike(Site::Dispatch, job, task, "", 0), "same seed, same draw");
                hits += da.is_some() as usize;
                // reassigned attempts are never struck again
                assert_eq!(a.strike(Site::Dispatch, job, task, "", 1), None);
                // nor does a dispatch rule strike at another site
                assert_eq!(a.strike(Site::Task, job, task, "", 0), None);
            }
        }
        let rate = hits as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.08, "got strike rate {rate}, expected ~0.3");
        assert_eq!(a.injected() as usize, hits);
    }

    #[test]
    fn once_strikes_exactly_one_dispatch() {
        let c = FaultPlan::once(Fault::CorruptFrame);
        assert_eq!(c.strike(Site::Dispatch, 0, 0, "", 0), Some(Fault::CorruptFrame));
        for task in 1..50 {
            assert_eq!(c.strike(Site::Dispatch, 0, task, "", 0), None);
        }
        assert_eq!(c.injected(), 1);
    }

    #[test]
    fn every_fault_roundtrips_through_the_faults_arg() {
        let d = Duration::from_micros(75_250);
        let faults = [
            Fault::Transient,
            Fault::Panic,
            Fault::Delay(d),
            Fault::MemoryPressure(1 << 40),
            Fault::KillWorker,
            Fault::DropFrame,
            Fault::TruncateFrame,
            Fault::CorruptFrame,
            Fault::DelayFrame(d),
            Fault::RefuseFetch,
            Fault::DropBucket,
            Fault::CorruptBucket,
            Fault::DelayFetch(d),
            Fault::KillServingWorker,
        ];
        let scopes = [
            Scope::Probability(0.125),
            Scope::Partition(3),
            Scope::Stage(2),
            Scope::Key("task-00000/".into()),
        ];
        for (i, fault) in faults.into_iter().enumerate() {
            let r = FaultRule {
                attempts: 1 + i as u64,
                strikes: (i % 2 == 0).then_some(i as u64),
                ..FaultRule::new(fault, scopes[i % scopes.len()].clone())
            };
            let json = serde_json::to_string(&r).unwrap();
            assert_eq!(serde_json::from_str::<FaultRule>(&json).unwrap(), r, "{json}");
        }
        // the pool's argument carries the seed and only the fetch rules
        let plan = FaultPlan::new(
            805381,
            vec![
                FaultRule::once(Fault::KillWorker),
                FaultRule {
                    scope: Scope::Key("task-00000/".into()),
                    ..FaultRule::once(Fault::KillServingWorker)
                },
                FaultRule::new(Fault::DelayFetch(d), Scope::Probability(0.5)),
            ],
        );
        let back = FaultPlan::from_fetch_arg(&plan.fetch_arg().unwrap()).unwrap();
        assert_eq!(back.seed, plan.seed);
        assert_eq!(back.rules, plan.rules[1..]);
        assert_eq!(FaultPlan::transient(1, 0.5).fetch_arg(), None, "no fetch rules, no argument");
        for bad in ["", "garbage", "[1]", "[1,[{\"fault\":\"Nope\"}]]"] {
            assert!(FaultPlan::from_fetch_arg(bad).is_err(), "{bad:?} must not decode");
        }
        let task_rule =
            serde_json::to_string(&(0u64, vec![FaultRule::new(Fault::Panic, Scope::Stage(0))]));
        assert!(FaultPlan::from_fetch_arg(&task_rule.unwrap()).is_err(), "task rules stay home");
    }

    #[test]
    fn fetch_chaos_respects_epoch_filter_and_cap() {
        let plan = FaultPlan::new(
            0,
            vec![FaultRule {
                strikes: Some(2),
                ..FaultRule::new(Fault::RefuseFetch, Scope::Key("task-00001/".into()))
            }],
        );
        let fetch = |key: &str, epoch| plan.strike(Site::Fetch, 0, 0, key, epoch);
        // wrong key: never struck
        assert_eq!(fetch("sh/task-00000/bucket-00000", 0), None);
        // regenerated epoch: never struck, even on a matching key
        assert_eq!(fetch("sh/task-00001/bucket-00000", 1), None);
        // matching key at epoch 0: struck until the cap
        assert_eq!(fetch("sh/task-00001/bucket-00000", 0), Some(Fault::RefuseFetch));
        assert_eq!(fetch("sh/task-00001/bucket-00001", 0), Some(Fault::RefuseFetch));
        assert_eq!(fetch("sh/task-00001/bucket-00002", 0), None, "cap exhausted");
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn rules_of_one_plan_strike_at_their_own_sites() {
        let plan = FaultPlan::new(
            0,
            vec![FaultRule::once(Fault::KillWorker), FaultRule::once(Fault::KillServingWorker)],
        );
        plan.assert_sites("pool", &[Site::Dispatch, Site::Fetch]);
        let r = std::panic::catch_unwind(|| plan.assert_sites("engine", &[Site::Task]));
        assert!(r.is_err(), "a consumer must reject rules for a site it never consults");
        assert_eq!(plan.strike(Site::Task, 0, 0, "", 0), None);
        assert_eq!(plan.strike(Site::Fetch, 0, 0, "k", 0), Some(Fault::KillServingWorker));
        assert_eq!(plan.strike(Site::Dispatch, 0, 0, "", 0), Some(Fault::KillWorker));
        assert_eq!(plan.strike(Site::Dispatch, 0, 1, "", 0), None);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn max_strikes_caps_under_concurrency() {
        let c = std::sync::Arc::new(FaultPlan::new(
            5,
            vec![FaultRule {
                strikes: Some(3),
                ..FaultRule::new(Fault::DropFrame, Scope::Probability(1.0))
            }],
        ));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for task in 0..100u64 {
                        let _ = c.strike(Site::Dispatch, t, task, "", 0);
                    }
                });
            }
        });
        assert_eq!(c.injected(), 3);
    }
}
