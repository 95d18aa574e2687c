//! `service` — the query server over real TCP, closed loop, two
//! connections.
//!
//! Connection 1 is tenant `light` (weight 8): literal-varying
//! `FILTER … LIMIT … DUMP` scripts, nine in ten from a few hot templates
//! and one in ten from a rotating pool of more distinct templates than
//! the plan cache holds, so that share always pays parse + plan.
//! Connection 2 is tenant `heavy` (weight 1) looping filter + `ORDER`
//! scripts as background. One op is one `light` request. This is the only
//! path through Piglet lex/parse/normalize, the plan cache, the fair
//! scheduler and request framing; engine work per request is tiny, so a
//! kernel change predicts no change here.

use super::{lattice_hotspots, salted, Checksum, Literals, Term, Timed, Workload};
use crate::layers::{self, Engine, Event, Generator, LocalPiglet, QueryOutcome, Relation, Session};
use crate::sizing::{Sizing, PARALLELISM, SPACE_SIDE};
use crate::trace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `t` values are folded into this range, so an equality filter keeps
/// about one row in a thousand.
const T_MODULUS: i64 = 1000;

pub struct Inputs {
    pub events: Vec<Event>,
    pub relation: Relation,
    /// Hot scripts first (`hot_templates × literals`), then the cold pool.
    pub scripts: Vec<String>,
    pub hot: usize,
    /// Script index of each light request, cycled.
    pub schedule: Vec<u32>,
    pub heavy_scripts: Vec<String>,
}

impl Inputs {
    pub fn generate(seed: u64, size: &Sizing) -> Inputs {
        let mut lit = Literals::new(salted(seed, 8));
        let events = lattice_hotspots(
            &mut Generator::new(salted(seed, 7)),
            &mut lit,
            size.service_rows,
            size.join_clusters,
            size.join_sigma,
            SPACE_SIDE,
        );
        let relation = Relation::from_events(&events, T_MODULUS);

        let literal = |lit: &mut Literals| lit.below(T_MODULUS as u64);
        let operators = ["==", "<=", ">=", "!="];
        let mut scripts = Vec::new();
        for template in 0..size.service_hot_templates {
            let op = operators[template % operators.len()];
            // the LIMIT is part of the template, so each is distinct
            let limit = 5 + template / operators.len();
            for _ in 0..size.service_literals {
                scripts.push(format!(
                    "f = FILTER ev BY t {op} {};\nx = LIMIT f {limit};\nDUMP x;",
                    literal(&mut lit)
                ));
            }
        }
        let hot = scripts.len();
        for cold in 0..size.service_cold_templates {
            scripts.push(format!(
                "f = FILTER ev BY t == {};\nx = LIMIT f {};\nDUMP x;",
                literal(&mut lit),
                100 + cold
            ));
        }
        // one full rotation of the cold pool per cycle of the schedule
        let cycle = size.service_cold_templates as u64 * size.service_cold_every;
        let mut next_cold = 0u32;
        let schedule = (0..cycle)
            .map(|i| {
                if i % size.service_cold_every == size.service_cold_every - 1 {
                    next_cold += 1;
                    hot as u32 + next_cold - 1
                } else {
                    lit.below(hot as u64) as u32
                }
            })
            .collect();
        let heavy_scripts = (0..64)
            .map(|_| {
                format!(
                    "h = FILTER ev BY t < {};\no = ORDER h BY t DESC;\nl = LIMIT o 5;\nDUMP l;",
                    40 + lit.below(40)
                )
            })
            .collect();
        Inputs { events, relation, scripts, hot, schedule, heavy_scripts }
    }

    pub fn checksum(&self) -> u64 {
        let mut c = Checksum::default();
        for e in &self.events {
            c.text(&layers::event_csv(e));
        }
        for s in self.scripts.iter().chain(&self.heavy_scripts) {
            c.text(s);
        }
        for i in &self.schedule {
            c.word(u64::from(*i));
        }
        c.finish()
    }
}

fn lines_checksum(lines: &[String]) -> u64 {
    let mut c = Checksum::default();
    for l in lines {
        c.text(l);
    }
    c.finish()
}

pub struct Service {
    inputs: Arc<Inputs>,
    engine: Engine,
    server: layers::Service,
    light: Session,
    /// Expected `DUMP` checksum per script, from the in-process executor.
    oracle: Vec<u64>,
    next_request: usize,
    cache_before: (u64, u64),
    requests: u64,
    last_p50_ms: f64,
}

impl Service {
    pub fn setup(seed: u64, size: &Sizing) -> Service {
        assert!(
            size.service_cold_templates > layers::Service::plan_cache_capacity(),
            "the cold pool must not fit the plan cache"
        );
        let inputs = Arc::new(Inputs::generate(seed, size));
        let engine = Engine::new(PARALLELISM);
        let server = layers::Service::start(
            &engine,
            &inputs.relation,
            &[("light", 8), ("heavy", 1)],
            PARALLELISM,
        );
        let mut light = Session::connect(server.addr());
        // warm-up: every hot script once, so every hot template is planned
        // and both tenants' paths have been taken
        for script in &inputs.scripts[..inputs.hot] {
            assert!(matches!(light.query("light", script), QueryOutcome::Ok { .. }));
        }
        assert!(matches!(light.query("heavy", &inputs.heavy_scripts[0]), QueryOutcome::Ok { .. }));
        let cache_before = server.cache_stats();
        Service {
            inputs,
            engine,
            server,
            light,
            oracle: Vec::new(),
            next_request: 0,
            cache_before,
            requests: 0,
            last_p50_ms: 0.0,
        }
    }
}

impl Workload for Service {
    fn prepare_oracle(&mut self, _size: &Sizing) {
        let local = LocalPiglet::new(&self.engine, &self.inputs.relation);
        self.oracle = self
            .inputs
            .scripts
            .iter()
            .map(|s| lines_checksum(&local.run(s).expect("benchmark scripts run in-process")))
            .collect();
    }

    fn run(&mut self, seconds: f64) -> Timed {
        let stop = Arc::new(AtomicBool::new(false));
        let heavy = {
            let (stop, inputs, addr) = (stop.clone(), self.inputs.clone(), self.server.addr());
            std::thread::spawn(move || {
                let mut session = Session::connect(addr);
                let (mut ok, mut failed) = (0u64, 0u64);
                // Relaxed: the flag publishes nothing but itself
                while !stop.load(Ordering::Relaxed) {
                    let script = &inputs.heavy_scripts[(ok + failed) as usize % 64];
                    match session.query("heavy", script) {
                        QueryOutcome::Ok { lines, .. } if !lines.is_empty() => ok += 1,
                        _ => failed += 1,
                    }
                }
                (ok, failed)
            })
        };

        let rows = self.inputs.relation.len() as u64;
        let mut timed = Timed::default();
        let tracer = trace::global();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let script_idx =
                self.inputs.schedule[self.next_request % self.inputs.schedule.len()] as usize;
            self.next_request += 1;
            tracer.set_op(timed.attempted);
            let t0 = Instant::now();
            let outcome = {
                let _s = trace::span("op");
                self.light.query("light", &self.inputs.scripts[script_idx])
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            timed.attempted += 1;
            match outcome {
                QueryOutcome::Ok { lines, cache_hit } => {
                    if lines_checksum(&lines) != self.oracle[script_idx] {
                        timed.fail(format!("script {script_idx}: output differs from in-process"));
                    } else if cache_hit != (script_idx < self.inputs.hot) {
                        timed
                            .fail(format!("script {script_idx}: unexpected cache_hit={cache_hit}"));
                    } else {
                        timed.latencies_ms.push(ms);
                        timed.records += rows;
                    }
                }
                QueryOutcome::Shed => timed.fail(format!("script {script_idx}: shed")),
                QueryOutcome::Failed(why) => timed.fail(format!("script {script_idx}: {why}")),
            }
        }
        timed.elapsed_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let (heavy_ok, heavy_failed) = heavy.join().expect("heavy client thread");
        // both tenants' requests are work the service did in the section
        timed.attempted += heavy_ok + heavy_failed;
        timed.records += heavy_ok * rows;
        for _ in 0..heavy_failed {
            timed.fail("heavy request failed".into());
        }
        self.requests += timed.attempted;
        self.last_p50_ms = crate::stats::median(&timed.latencies_ms).unwrap_or(0.0);
        timed
    }

    fn input_checksum(&self) -> u64 {
        self.inputs.checksum()
    }

    fn oracle_len(&self) -> usize {
        self.oracle.len()
    }

    fn corrupt_oracle(&mut self) {
        // every hot script, so whichever the schedule draws first mismatches
        for sum in self.oracle.iter_mut().take(self.inputs.hot) {
            *sum ^= 1;
        }
    }

    fn sample(&self, max: usize) -> Vec<Event> {
        self.inputs.events.iter().take(max).cloned().collect()
    }

    fn counters(&mut self, ledger: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
        let (hits, misses) = self.server.cache_stats();
        let (hits, misses) = (hits - self.cache_before.0, misses - self.cache_before.1);
        let exec_ms = ledger.get("piglet.exec_ms").copied().unwrap_or(0.0);
        BTreeMap::from([
            // what the service adds around executing the script itself
            ("server.overhead_ms", self.last_p50_ms - exec_ms),
            ("server.cache.hit_frac", hits as f64 / (hits + misses).max(1) as f64),
            ("server.shed_frac", self.light.shed_count() as f64 / self.requests.max(1) as f64),
        ])
    }

    fn model(&self, ledger: &BTreeMap<String, f64>) -> Vec<Term> {
        let get = |k: &str| ledger.get(k).copied().unwrap_or(0.0);
        vec![
            Term::new("server.rtt_floor", 1.0, get("server.rtt_floor_ms"), 1.0),
            Term::new("piglet.parse", 1.0, get("piglet.parse_us") / 1e3, 1.0),
            Term::new("piglet.normalize", 1.0, get("piglet.normalize_us") / 1e3, 1.0),
            Term::new("piglet.exec", 1.0, get("piglet.exec_ms"), 1.0),
        ]
    }

    fn teardown(self: Box<Self>) {
        // dropping the handle stops the accept loop and joins the sessions
        drop(self.light);
        drop(self.server);
    }
}
