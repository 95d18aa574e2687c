//! `stream` — the micro-batch pipeline under an open-loop source.
//!
//! Drifting-hotspot batches flow through `StreamContext::run` with the
//! incremental job: sliding windows + grid aggregation, three standing
//! queries on the indexed engine, one delta join. Each batch also
//! retracts the batch a fixed number back, so query and join state stay
//! flat and the same STR-tree and join code as `batch_join` is used for
//! *writes* (insert, retract, dirty-partition rebuild) beside reads — a
//! probe gain that taxes rebuild shows here.
//!
//! Set-up starts the stream and replays unpaced until windows expire and
//! the retention ring is full. The timed section has two phases. Phase A
//! is open loop at a committed rate: a batch's latency runs from when it
//! was *due* to `Sink::on_batch`, and how late the generator ran is
//! reported. Phase B replays unpaced under `ShedPolicy::Block` for
//! throughput.

use super::{
    checksum_rows, pair_hash, reference_join, salted, splitmix64, Checksum, Literals, Term, Timed,
    Workload,
};
use crate::layers::{
    self, BatchStats, Engine, Event, EventRow, Generator, STPredicate, StreamObserver,
    StreamParams, StreamPull,
};
use crate::sizing::{Sizing, PARALLELISM, SPACE_SIDE};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Event-time units one batch spans.
const BATCH_SPAN: i64 = 1000;
/// Event-time jitter, ±; larger than the allowed lateness, so a steady
/// share of every batch arrives late and is dropped by the windows.
const JITTER: i64 = 250;
const ALLOWED_LATENESS: i64 = 100;

pub struct Inputs {
    pub params: StreamParams,
    gen_seed: u64,
    /// Start and stride of the hotspot's drift, in units of the free span.
    drift: [f64; 4],
    hotspot_frac: f64,
}

impl Inputs {
    pub fn generate(seed: u64, size: &Sizing) -> Inputs {
        let space = layers::bounds(0.0, 0.0, SPACE_SIDE, SPACE_SIDE);
        let mut lit = Literals::new(salted(seed, 5));
        let forever = i64::MAX / 4;
        // a region covering 15 % of the space, a disc and a kNN focus
        let side = SPACE_SIDE * 0.15f64.sqrt();
        let (rx, ry) = (lit.range(0.0, SPACE_SIDE - side), lit.range(0.0, SPACE_SIDE - side));
        let params = StreamParams {
            space,
            state_grid_dims: 8,
            window_size: 4 * BATCH_SPAN,
            window_slide: BATCH_SPAN,
            allowed_lateness: ALLOWED_LATENESS,
            agg_grid_dims: 10,
            region: layers::timed_region(layers::rect(rx, ry, rx + side, ry + side), 0, forever),
            near: (
                layers::point(lit.range(300.0, 700.0), lit.range(300.0, 700.0)),
                SPACE_SIDE * 0.05,
            ),
            knn: (layers::point(lit.range(100.0, 900.0), lit.range(100.0, 900.0)), 20),
            join_modulus: 8,
            join_dist: 1.0,
            batch_records: size.stream_batch_records,
            channel_capacity: 4,
        };
        // irrational-ish strides so the path wraps without cycling
        let drift = [lit.unit(), lit.unit(), lit.range(0.11, 0.17), lit.range(0.26, 0.32)];
        Inputs { params, gen_seed: salted(seed, 6), drift, hotspot_frac: size.stream_hotspot_frac }
    }

    pub fn batches(&self) -> BatchGen {
        BatchGen {
            gen: Generator::new(self.gen_seed),
            batch: 0,
            next_id: 0,
            drift: self.drift,
            hotspot_frac: self.hotspot_frac,
            records: self.params.batch_records,
        }
    }

    pub fn checksum(&self) -> u64 {
        let mut c = Checksum::default();
        let mut gen = self.batches();
        for _ in 0..3 {
            c.word(checksum_rows(&gen.next_batch()));
        }
        c.text(&layers::describe(&self.params.region));
        c.text(&layers::describe(&self.params.near.0));
        c.text(&layers::describe(&self.params.knn.0));
        c.finish()
    }
}

/// The seeded batch sequence: batch `b` draws uniformly from a sub-box
/// covering `hotspot_frac` of each side, drifting across the space.
pub struct BatchGen {
    gen: Generator,
    batch: u64,
    next_id: u64,
    drift: [f64; 4],
    hotspot_frac: f64,
    records: usize,
}

impl BatchGen {
    pub fn next_batch(&mut self) -> Vec<EventRow> {
        let b = self.batch as f64;
        self.batch += 1;
        let side = SPACE_SIDE * self.hotspot_frac;
        let free = SPACE_SIDE - side;
        let ox = free * (self.drift[0] + b * self.drift[2]).fract();
        let oy = free * (self.drift[1] + b * self.drift[3]).fract();
        let events = self.gen.uniform(self.records, &layers::bounds(ox, oy, ox + side, oy + side));
        let base = (self.batch as i64 - 1) * BATCH_SPAN;
        let n = self.records as i64;
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let id = self.next_id;
                self.next_id += 1;
                let jitter = (splitmix64(id) % (2 * JITTER as u64 + 1)) as i64 - JITTER;
                let t = base + BATCH_SPAN * i as i64 / n + jitter;
                layers::stamped_row(e, id, t)
            })
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Section {
    Warm,
    Paced,
    Unpaced,
}

#[derive(Clone, Copy)]
enum Phase {
    /// The source waits for the next command.
    Idle,
    Warm {
        left: usize,
    },
    Paced {
        start: Instant,
        interval: Duration,
        sent: u32,
        until: Instant,
        then_until: Instant,
    },
    Unpaced {
        until: Instant,
    },
    End,
}

struct Emit {
    section: Section,
    due: Option<Instant>,
    at: Instant,
}

struct Done {
    at: Instant,
    records: u64,
    late_dropped: u64,
    rebuilt: usize,
    queue_depth: usize,
    failed: bool,
}

/// A batch still held by the query and join state.
struct Retained {
    rows: Vec<EventRow>,
    /// The windows' watermark before this batch was observed.
    watermark_before: Option<i64>,
}

#[derive(Default)]
struct QueryView {
    batch: u64,
    count: usize,
    xor: u64,
}

/// Everything the source thread, the sink and the driver share.
struct State {
    phase: Phase,
    emits: Vec<Emit>,
    done: Vec<Done>,
    ring: VecDeque<Retained>,
    max_event_time: Option<i64>,
    // what the sink has been told
    join_pairs: i64,
    join_sum: u64,
    queries: HashMap<String, QueryView>,
    windows: VecDeque<(i64, i64, u64)>,
}

struct Shared {
    state: Mutex<State>,
    changed: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("no holder of the stream state panics")
    }
}

struct Recorder(Arc<Shared>);

impl StreamObserver for Recorder {
    fn on_batch(&mut self, m: BatchStats) {
        let mut s = self.0.lock();
        s.done.push(Done {
            at: Instant::now(),
            records: m.records,
            late_dropped: m.late_dropped,
            rebuilt: m.partitions_rebuilt,
            queue_depth: m.queue_depth,
            failed: m.failed,
        });
        self.0.changed.notify_all();
    }

    fn on_window(&mut self, start: i64, end: i64, count: u64) {
        let mut s = self.0.lock();
        s.windows.push_back((start, end, count));
        if s.windows.len() > 64 {
            s.windows.pop_front();
        }
    }

    fn on_join(
        &mut self,
        inserted: &mut dyn Iterator<Item = (u64, u64)>,
        retracted: &mut dyn Iterator<Item = (u64, u64)>,
    ) {
        let (mut pairs, mut sum) = (0i64, 0u64);
        for (l, r) in inserted {
            pairs += 1;
            sum = sum.wrapping_add(pair_hash(l, r));
        }
        for (l, r) in retracted {
            pairs -= 1;
            sum = sum.wrapping_sub(pair_hash(l, r));
        }
        let mut s = self.0.lock();
        s.join_pairs += pairs;
        s.join_sum = s.join_sum.wrapping_add(sum);
    }

    fn on_query(&mut self, batch: u64, name: &str, ids: &mut dyn Iterator<Item = u64>) {
        let (mut count, mut xor) = (0usize, 0u64);
        for id in ids {
            count += 1;
            xor ^= splitmix64(id);
        }
        self.0.lock().queries.insert(name.to_string(), QueryView { batch, count, xor });
    }
}

/// The paced source: generates the next batch ahead of time, waits until
/// it is due (phase A) or not at all (warm-up, phase B), and retracts the
/// batch `retention` back.
fn source(shared: Arc<Shared>, mut gen: BatchGen, retention: usize) -> StreamPull {
    let mut ahead: Option<Vec<EventRow>> = None;
    Box::new(move |_max| loop {
        let rows = ahead.take().unwrap_or_else(|| gen.next_batch());
        let mut s = shared.lock();
        let now = Instant::now();
        let (section, due) = match s.phase {
            Phase::End => return None,
            Phase::Idle => {
                ahead = Some(rows);
                drop(shared.changed.wait(s).expect("no holder of the stream state panics"));
                continue;
            }
            Phase::Warm { left: 0 } => {
                ahead = Some(rows);
                s.phase = Phase::Idle;
                shared.changed.notify_all();
                continue;
            }
            Phase::Warm { left } => {
                s.phase = Phase::Warm { left: left - 1 };
                (Section::Warm, None)
            }
            Phase::Paced { start, interval, sent, until, then_until } => {
                let due = start + interval * sent;
                if due >= until {
                    ahead = Some(rows);
                    s.phase = Phase::Unpaced { until: then_until };
                    continue;
                }
                if now < due {
                    ahead = Some(rows);
                    drop(s);
                    std::thread::sleep(due - now);
                    continue;
                }
                s.phase = Phase::Paced { start, interval, sent: sent + 1, until, then_until };
                (Section::Paced, Some(due))
            }
            Phase::Unpaced { until } => {
                if now >= until {
                    ahead = Some(rows);
                    s.phase = Phase::Idle;
                    shared.changed.notify_all();
                    continue;
                }
                (Section::Unpaced, None)
            }
        };
        s.emits.push(Emit { section, due, at: now });
        let watermark_before = s.max_event_time.map(|t| t - ALLOWED_LATENESS);
        let batch_max = rows.iter().filter_map(|r| layers::event_time(&r.0)).max();
        s.max_event_time = s.max_event_time.max(batch_max);
        s.ring.push_back(Retained { rows: rows.clone(), watermark_before });
        let retracts =
            if s.ring.len() > retention { s.ring.pop_front().map(|r| r.rows) } else { None };
        return Some((rows, retracts.unwrap_or_default()));
    })
}

pub struct Stream {
    inputs: Inputs,
    size: Sizing,
    shared: Arc<Shared>,
    /// The thread inside `StreamContext::run`; yields the records shed.
    runner: Option<std::thread::JoinHandle<u64>>,
    oracle_values: usize,
    corrupt: bool,
    /// Index into `emits`/`done` where the timed sections began.
    first_timed: usize,
    lag_ms: Vec<f64>,
}

impl Stream {
    pub fn setup(seed: u64, size: &Sizing) -> Stream {
        let inputs = Inputs::generate(seed, size);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                // long enough for windows to expire and the ring to fill
                phase: Phase::Warm { left: 3 * size.stream_retention + size.warmup_ops },
                emits: Vec::new(),
                done: Vec::new(),
                ring: VecDeque::new(),
                max_event_time: None,
                join_pairs: 0,
                join_sum: 0,
                queries: HashMap::new(),
                windows: VecDeque::new(),
            }),
            changed: Condvar::new(),
        });
        let runner = {
            let (params, shared) = (inputs.params.clone(), shared.clone());
            let pull = source(shared.clone(), inputs.batches(), size.stream_retention);
            std::thread::spawn(move || {
                let engine = Engine::new(PARALLELISM);
                layers::stream_run(&engine, &params, pull, Recorder(shared))
            })
        };
        let mut stream = Stream {
            inputs,
            size: size.clone(),
            shared,
            runner: Some(runner),
            oracle_values: 0,
            corrupt: false,
            first_timed: 0,
            lag_ms: Vec::new(),
        };
        stream.wait_quiescent();
        stream.first_timed = stream.shared.lock().done.len();
        stream
    }

    /// Blocks until the source is idle and the sink has seen every batch
    /// the source emitted.
    fn wait_quiescent(&self) {
        let mut s = self.shared.lock();
        while !(matches!(s.phase, Phase::Idle) && s.done.len() == s.emits.len()) {
            // a runner that died would never signal; fail loudly instead of hanging
            let alive = self.runner.as_ref().is_some_and(|r| !r.is_finished());
            assert!(alive, "the stream runner thread ended before the stream did");
            s = self
                .shared
                .changed
                .wait_timeout(s, Duration::from_millis(200))
                .expect("no holder of the stream state panics")
                .0;
        }
    }

    /// One-shot recompute of what the standing state must hold now, from
    /// the retained batches alone: join pairs, the three query results,
    /// and the latest fired windows. Returns mismatches.
    fn check_final_state(&mut self) -> Vec<String> {
        let s = self.shared.lock();
        let p = &self.inputs.params;
        let rows: Vec<&EventRow> = s.ring.iter().flat_map(|b| b.rows.iter()).collect();
        let mut wrong = Vec::new();
        let mut values = 0usize;

        // standing join: left ids ≡ 0, right ids ≡ 1 (mod m), within join_dist
        let pred = STPredicate::within_distance(p.join_dist);
        let side =
            |residue: u64| rows.iter().copied().filter(move |r| r.1 .0 % p.join_modulus == residue);
        let (mut pairs, mut sum) = (0i64, 0u64);
        reference_join(side(0), side(1), &pred, p.join_dist, |l, r| {
            pairs += 1;
            sum = sum.wrapping_add(pair_hash(l.1 .0, r.1 .0));
        });
        values += pairs as usize;
        if self.corrupt {
            pairs += 1;
        }
        if (pairs, sum) != (s.join_pairs, s.join_sum) {
            wrong.push(format!(
                "standing join holds {} pairs, recompute finds {pairs}",
                s.join_pairs
            ));
        }

        // standing queries, as of the last batch
        let last_batch = s.done.len() as u64 - 1;
        let summarise = |ids: &mut dyn Iterator<Item = u64>| {
            ids.fold((0usize, 0u64), |(n, x), id| (n + 1, x ^ splitmix64(id)))
        };
        let near_pred = STPredicate::within_distance(p.near.1);
        let mut by_distance: Vec<(f64, u64)> =
            rows.iter().map(|r| (layers::distance(&r.0, &p.knn.0), r.1 .0)).collect();
        by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
        let expected = [
            (
                "region",
                summarise(
                    &mut rows
                        .iter()
                        .filter(|r| layers::eval(&STPredicate::Intersects, &r.0, &p.region))
                        .map(|r| r.1 .0),
                ),
            ),
            (
                "near",
                summarise(
                    &mut rows
                        .iter()
                        .filter(|r| layers::eval(&near_pred, &r.0, &p.near.0))
                        .map(|r| r.1 .0),
                ),
            ),
            ("knn", summarise(&mut by_distance.iter().take(p.knn.1).map(|(_, id)| *id))),
        ];
        for (name, (count, xor)) in expected {
            values += count;
            match s.queries.get(name) {
                Some(v) if v.batch == last_batch && (v.count, v.xor) == (count, xor) => {}
                Some(v) => wrong.push(format!(
                    "query {name}: sink saw {} matches at batch {}, recompute finds {count} at {last_batch}",
                    v.count, v.batch
                )),
                None => wrong.push(format!("query {name}: no result reached the sink")),
            }
        }

        // windows fired lately: every record of theirs is still retained
        let oldest_base = (s.emits.len() as i64 - s.ring.len() as i64) * BATCH_SPAN;
        let covered = oldest_base + BATCH_SPAN + JITTER;
        for &(start, end, count) in s.windows.iter().filter(|w| w.0 >= covered) {
            let expected = s
                .ring
                .iter()
                .flat_map(|b| b.rows.iter().map(move |r| (r, b.watermark_before)))
                .filter_map(|(r, wm)| layers::event_time(&r.0).map(|t| (t, wm)))
                .filter(|(t, wm)| (start..end).contains(t) && wm.is_none_or(|w| *t >= w))
                .count() as u64;
            values += 1;
            if expected != count {
                wrong.push(format!(
                    "window [{start}, {end}) fired {count}, recompute finds {expected}"
                ));
            }
        }
        drop(s);
        self.oracle_values = values;
        wrong
    }
}

impl Workload for Stream {
    /// The stream's reference is a recompute of the *final* state, so it
    /// runs after each timed section (see `check_final_state`); here it
    /// only proves itself non-empty on the warmed-up state.
    fn prepare_oracle(&mut self, _size: &Sizing) {
        let wrong = self.check_final_state();
        assert!(wrong.is_empty() || self.corrupt, "warm-up state already diverged: {wrong:?}");
    }

    fn run(&mut self, seconds: f64) -> Timed {
        let from = self.shared.lock().done.len();
        {
            let mut s = self.shared.lock();
            let start = Instant::now();
            s.phase = Phase::Paced {
                start,
                interval: Duration::from_secs_f64(1.0 / self.size.stream_rate_batches_s),
                sent: 0,
                until: start + Duration::from_secs_f64(seconds * self.size.stream_paced_frac),
                then_until: start + Duration::from_secs_f64(seconds),
            };
            self.shared.changed.notify_all();
        }
        self.wait_quiescent();

        let mut timed = Timed::default();
        {
            let s = self.shared.lock();
            let expected_records = self.inputs.params.batch_records as u64;
            let mut unpaced: Option<(Instant, Instant, u64)> = None;
            for (emit, done) in s.emits[from..].iter().zip(&s.done[from..]) {
                timed.attempted += 1;
                if done.failed || done.records != expected_records {
                    timed.fail(format!("batch failed or carried {} records", done.records));
                    continue;
                }
                match emit.section {
                    Section::Paced => {
                        let due = emit.due.expect("paced batches carry their due time");
                        timed.latencies_ms.push((done.at - due).as_secs_f64() * 1e3);
                        self.lag_ms.push((emit.at - due).as_secs_f64() * 1e3);
                    }
                    Section::Unpaced => {
                        let u = unpaced.get_or_insert((emit.at, done.at, 0));
                        u.1 = done.at;
                        u.2 += done.records;
                    }
                    Section::Warm => unreachable!("warm-up ended before the timed section"),
                }
            }
            if let Some((first_emit, last_done, records)) = unpaced {
                timed.records = records;
                timed.elapsed_s = (last_done - first_emit).as_secs_f64();
            }
        }
        for why in self.check_final_state() {
            timed.fail(why);
        }
        timed
    }

    fn input_checksum(&self) -> u64 {
        self.inputs.checksum()
    }

    fn oracle_len(&self) -> usize {
        self.oracle_values
    }

    fn corrupt_oracle(&mut self) {
        self.corrupt = true;
    }

    fn sample(&self, max: usize) -> Vec<Event> {
        // the stream's own first batches, as plain events
        let mut gen = self.inputs.batches();
        let mut out = Vec::with_capacity(max);
        while out.len() < max {
            for row in gen.next_batch() {
                out.push(layers::row_to_event(&row));
                if out.len() == max {
                    break;
                }
            }
        }
        out
    }

    fn counters(&mut self, _ledger: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64> {
        let s = self.shared.lock();
        let timed = &s.done[self.first_timed..];
        let batches = timed.len().max(1) as f64;
        let records: u64 = timed.iter().map(|d| d.records).sum();
        BTreeMap::from([
            (
                "stream.rebuilt_per_batch",
                timed.iter().map(|d| d.rebuilt).sum::<usize>() as f64 / batches,
            ),
            (
                "stream.queue_depth_max",
                timed.iter().map(|d| d.queue_depth).max().unwrap_or(0) as f64,
            ),
            (
                "stream.late_dropped_frac",
                timed.iter().map(|d| d.late_dropped).sum::<u64>() as f64 / records.max(1) as f64,
            ),
            (
                "stream.generator_lag_p90_ms",
                crate::stats::percentile(&self.lag_ms, 0.9).unwrap_or(0.0),
            ),
            ("stream.state_records", s.ring.iter().map(|b| b.rows.len()).sum::<usize>() as f64),
        ])
    }

    fn model(&self, ledger: &BTreeMap<String, f64>) -> Vec<Term> {
        let get = |k: &str| ledger.get(k).copied().unwrap_or(0.0);
        let n = self.inputs.params.batch_records as f64;
        vec![
            Term::new(
                "stream.window.observe",
                n,
                get("stream.window.observe_ns_per_rec") / 1e6,
                1.0,
            ),
            Term::new("stream.query.on_batch", 1.0, get("stream.query.on_batch_ms"), 1.0),
            Term::new("stream.join.on_delta", 1.0, get("stream.join.on_delta_ms"), 1.0),
        ]
    }

    fn teardown(mut self: Box<Self>) {
        self.shared.lock().phase = Phase::End;
        self.shared.changed.notify_all();
        if let Some(runner) = self.runner.take() {
            let records_shed = runner.join().expect("stream runner thread");
            assert_eq!(records_shed, 0, "ShedPolicy::Block sheds nothing");
        }
    }
}
