//! The five workloads and what they share: the timed-section record, the
//! closed-loop driver, seeded input helpers and failure accounting.
//!
//! Each workload builds its inputs from `--seed` alone, hands the program
//! under test nothing but those inputs, and checks every op against an
//! oracle computed independently of the code path being timed.

pub mod batch_join;
pub mod batch_scan;
pub mod dist;
pub mod service;
pub mod stream;

use crate::layers::{self, EngineDelta, Event, EventRow, STPredicate};
use crate::sizing::{Sizing, PARALLELISM};
use crate::trace;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// The names `BENCHMARK.json` declares, in its order.
#[cfg(test)]
pub const NAMES: [&str; 5] = ["batch_join", "batch_scan", "stream", "service", "dist"];

/// What one timed section produced.
#[derive(Debug, Default, Clone)]
pub struct Timed {
    /// Latency of every op that completed and passed its oracle.
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    /// Errors, refusals/sheds and oracle mismatches.
    pub failed: u64,
    /// Input records processed (rows scanned, events ingested, rows shipped).
    pub records: u64,
    pub elapsed_s: f64,
    /// First few failure reasons, for the human-readable report.
    pub failures: Vec<String>,
}

impl Timed {
    /// Pools another section's ops into this one.
    pub fn absorb(&mut self, other: Timed) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.records += other.records;
        self.elapsed_s += other.elapsed_s;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// One term of a workload's cost model: a layer's unit cost from the
/// ledger times how many units one op consumes.
#[derive(Debug, Clone)]
pub struct Term {
    pub layer: &'static str,
    /// Modelled milliseconds per op on the op's critical path.
    pub ms_per_op: f64,
    /// The units behind the number, for the printed table.
    pub basis: String,
}

impl Term {
    /// `units` of work per op at `unit_ms` each, spread over `lanes`
    /// threads or processes working side by side.
    pub fn new(layer: &'static str, units: f64, unit_ms: f64, lanes: f64) -> Term {
        Term {
            layer,
            ms_per_op: units * unit_ms / lanes,
            basis: format!("{units:.1} x {unit_ms:.6} ms / {lanes}"),
        }
    }
}

/// The row codec's cost as a function of blob size, fitted to the
/// ledger's two sizes: `t(b) = a·b + c·b²`. The quadratic term is what
/// `engine.codec.*.small` vs `.large` exposes.
pub struct CodecFit {
    a: f64,
    c: f64,
}

impl CodecFit {
    /// `which` is `"encode"` or `"decode"`.
    pub fn from_ledger(ledger: &BTreeMap<String, f64>, which: &str, size: &Sizing) -> CodecFit {
        let get = |k: String| ledger.get(&k).copied().unwrap_or(0.0);
        let per_row = get("engine.codec.bytes_per_row".into());
        let (b1, b2) =
            (size.codec_small_rows as f64 * per_row, size.codec_large_rows as f64 * per_row);
        // seconds per byte at each size
        let s1 = 1.0 / (get(format!("engine.codec.{which}_mb_s.small")) * 1e6).max(1e-9);
        let s2 = 1.0 / (get(format!("engine.codec.{which}_mb_s.large")) * 1e6).max(1e-9);
        let c = ((s2 - s1) / (b2 - b1).max(1.0)).max(0.0);
        CodecFit { a: (s1 - c * b1).max(0.0), c }
    }

    /// Milliseconds to code one blob of `bytes`.
    pub fn blob_ms(&self, bytes: f64) -> f64 {
        (self.a * bytes + self.c * bytes * bytes) * 1e3
    }
}

pub trait Workload {
    /// Computes the reference results, once, outside set-up and outside
    /// the timed section.
    fn prepare_oracle(&mut self, size: &Sizing);

    /// The timed section: runs ops for `seconds` and checks each one.
    fn run(&mut self, seconds: f64) -> Timed;

    /// Checksum of the generated inputs (same seed → same value).
    fn input_checksum(&self) -> u64;

    /// Number of reference values the oracle holds; a run whose oracle
    /// is empty proves nothing and exits non-zero.
    fn oracle_len(&self) -> usize;

    /// Flips one oracle value, so tests can see a mismatch reported.
    fn corrupt_oracle(&mut self);

    /// The workload's own events, for the ledger to time layers on.
    fn sample(&self, max: usize) -> Vec<Event>;

    /// Counters read from what the program exposes, over the timed
    /// section(s) run so far; names are per-layer metric names. `ledger`
    /// holds the unit costs measured on this workload's inputs.
    fn counters(&mut self, ledger: &BTreeMap<String, f64>) -> BTreeMap<&'static str, f64>;

    /// The workload's cost model over the ledger's unit costs.
    fn model(&self, ledger: &BTreeMap<String, f64>) -> Vec<Term>;

    /// Stops threads, servers and worker processes, and waits for them.
    fn teardown(self: Box<Self>);
}

/// Set-up from `seed`: everything up to the first timed op.
pub fn build(name: &str, seed: u64, size: &Sizing) -> Option<Box<dyn Workload>> {
    Some(match name {
        "batch_join" => Box::new(batch_join::BatchJoin::setup(seed, size)),
        "batch_scan" => Box::new(batch_scan::BatchScan::setup(seed, size)),
        "stream" => Box::new(stream::Stream::setup(seed, size)),
        "service" => Box::new(service::Service::setup(seed, size)),
        "dist" => Box::new(dist::Dist::setup(seed, size)),
        _ => return None,
    })
}

/// One driver issuing the next op only after the previous one returned.
/// `op` returns the input records it processed, or why it failed.
pub fn closed_loop(seconds: f64, mut op: impl FnMut(u64) -> Result<u64, String>) -> Timed {
    let mut timed = Timed::default();
    let tracer = trace::global();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        tracer.set_op(timed.attempted);
        let t0 = Instant::now();
        let result = {
            let _s = trace::span("op");
            op(timed.attempted)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        timed.attempted += 1;
        match result {
            Ok(records) => {
                timed.latencies_ms.push(ms);
                timed.records += records;
            }
            Err(why) => timed.fail(why),
        }
    }
    timed.elapsed_s = start.elapsed().as_secs_f64();
    timed
}

/// Untimed ops at the end of set-up, so caches, sidecars and indexes
/// exist before the first timed op.
pub fn warm_up(ops: usize, mut op: impl FnMut(u64) -> Result<u64, String>) {
    for i in 0..ops {
        op(i as u64).expect("warm-up op fails only if the workload is broken");
    }
}

/// The per-layer counters every in-process engine exposes, from a
/// `Context::metrics()` delta over `ops` ops.
pub fn engine_counters(delta: &EngineDelta, ops: u64) -> BTreeMap<&'static str, f64> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    BTreeMap::from([
        (
            "core.filter.pruned_frac",
            ratio(delta.partitions_pruned, delta.partitions_pruned + delta.tasks_launched),
        ),
        // share of the job intervals' thread-time spent inside tasks
        (
            "engine.ctx.task_busy_frac",
            ratio(delta.task_nanos, delta.job_nanos * PARALLELISM as u64),
        ),
        ("engine.ctx.records_cloned_per_op", ratio(delta.records_cloned, ops)),
    ])
}

/// Reference distance join for the oracles, independent of the indexes
/// and joins under test: `right` is bucketed into cells `cell` wide (at
/// least the predicate's distance), and every left row is compared,
/// through the predicate itself, with the rows of its own and the eight
/// neighbouring cells.
pub fn reference_join<'a>(
    left: impl IntoIterator<Item = &'a EventRow>,
    right: impl IntoIterator<Item = &'a EventRow>,
    pred: &STPredicate,
    cell: f64,
    mut on_pair: impl FnMut(&EventRow, &EventRow),
) {
    let key = |row: &EventRow| {
        let (x, y) = layers::position(&row.0);
        ((x / cell).floor() as i64, (y / cell).floor() as i64)
    };
    let mut cells: HashMap<(i64, i64), Vec<&EventRow>> = HashMap::new();
    for r in right {
        cells.entry(key(r)).or_default().push(r);
    }
    for l in left {
        let (cx, cy) = key(l);
        for (dx, dy) in (-1..=1).flat_map(|dx| (-1..=1).map(move |dy| (dx, dy))) {
            for r in cells.get(&(cx + dx, cy + dy)).into_iter().flatten() {
                if layers::eval(pred, &l.0, &r.0) {
                    on_pair(l, r);
                }
            }
        }
    }
}

/// `clusters` Gaussian hotspots of equal size on a jittered lattice over
/// a square of `side`. The lattice keeps hotspots clear of each other and
/// of the border, so how much work the points make is a property of the
/// sizes, not of the seed; the seed moves every hotspot (by up to the
/// slack the lattice leaves) and draws every point.
pub fn lattice_hotspots(
    gen: &mut layers::Generator,
    lit: &mut Literals,
    points: usize,
    clusters: usize,
    sigma: f64,
    side: f64,
) -> Vec<Event> {
    let cols = (clusters as f64).sqrt().ceil() as usize;
    let rows = clusters.div_ceil(cols);
    let (dx, dy) = (side / cols as f64, side / rows as f64);
    let slack = (dx.min(dy) / 2.0 - 4.0 * sigma).max(0.0);
    let mut events = Vec::with_capacity(points);
    for c in 0..clusters {
        // spread the remainder so the sizes differ by at most one
        let n = points / clusters + usize::from(c < points % clusters);
        let centre = (
            ((c % cols) as f64 + 0.5) * dx + lit.range(-slack, slack),
            ((c / cols) as f64 + 0.5) * dy + lit.range(-slack, slack),
        );
        events.extend(gen.hotspot(n, sigma, centre));
    }
    events
}

/// Derives an independent stream from the run's seed.
pub fn salted(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A small seeded generator for query and script literals.
pub struct Literals(u64);

impl Literals {
    pub fn new(seed: u64) -> Literals {
        Literals(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// FNV-1a over a sequence of words.
#[derive(Clone, Copy)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xCBF2_9CE4_8422_2325)
    }
}

impl Checksum {
    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.word(s.len() as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Order-sensitive checksum of generated rows: id, position, time, tag.
pub fn checksum_rows(rows: &[EventRow]) -> u64 {
    let mut c = Checksum::default();
    for (obj, (id, category)) in rows {
        let (x, y) = layers::position(obj);
        c.word(*id);
        c.word(x.to_bits());
        c.word(y.to_bits());
        c.word(layers::event_time(obj).map_or(u64::MAX, |t| t as u64));
        c.text(category);
    }
    c.finish()
}

/// Order-insensitive hash of an id pair, for join-result checksums that
/// are maintained by adding inserts and subtracting retractions.
pub fn pair_hash(a: u64, b: u64) -> u64 {
    splitmix64(a.wrapping_mul(0x1_0000_0001).wrapping_add(splitmix64(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_are_seeded_and_in_range() {
        let a: Vec<u64> = {
            let mut l = Literals::new(7);
            (0..8).map(|_| l.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut l = Literals::new(7);
            (0..8).map(|_| l.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut l = Literals::new(8);
        assert_ne!(a[0], l.next_u64());
        for _ in 0..1000 {
            let x = l.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    /// Satellite: same seed → identical input checksum, another seed →
    /// another checksum, for every workload's generated inputs.
    #[test]
    fn inputs_follow_the_seed() {
        let size = Sizing::quick();
        let sums = |seed: u64| {
            vec![
                batch_join::Inputs::generate(seed, &size).checksum(),
                batch_scan::Inputs::generate(seed, &size).checksum(),
                stream::Inputs::generate(seed, &size).checksum(),
                service::Inputs::generate(seed, &size).checksum(),
                dist::Inputs::generate(seed, &size).checksum(),
            ]
        };
        let (a, b, c) = (sums(11), sums(11), sums(12));
        assert_eq!(a, b, "same seed must regenerate the same inputs");
        for (w, (x, y)) in NAMES.iter().zip(a.iter().zip(&c)) {
            assert_ne!(x, y, "{w}: another seed must give other inputs");
        }
    }

    #[test]
    fn closed_loop_counts_failures_and_keeps_their_latency_out() {
        let timed = closed_loop(0.05, |i| if i % 2 == 0 { Ok(10) } else { Err("odd".into()) });
        assert!(timed.attempted >= 2);
        assert_eq!(timed.latencies_ms.len() as u64 + timed.failed, timed.attempted);
        assert_eq!(timed.records, 10 * timed.latencies_ms.len() as u64);
        assert!(timed.failed >= 1 && !timed.failures.is_empty());
    }
}
