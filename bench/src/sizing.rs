//! Committed workload sizes for this box (`nproc` = 2).
//!
//! Load is never derived from a measurement taken at run time: every
//! size, rate and literal range below is a constant, and a run differs
//! from another only in its seed. `--quick` shrinks the inputs so the
//! smoke tests finish in seconds; its numbers are not comparable.

/// Threads in the in-process engine, server workers and forked workers.
pub const PARALLELISM: usize = 2;

/// The planar space of the clustered and streaming inputs.
pub const SPACE_SIDE: f64 = 1000.0;

/// Event times are drawn from `0..TIME_RANGE`.
pub const TIME_RANGE: i64 = 1_000_000;

#[derive(Debug, Clone)]
pub struct Sizing {
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Untimed ops (or batches) run at the end of set-up.
    pub warmup_ops: usize,

    // batch_join: clustered points, BSP, withinDistance self-join
    pub join_points: usize,
    pub join_clusters: usize,
    pub join_sigma: f64,
    /// ≈6 result pairs per point at the full size.
    pub join_distance: f64,

    // batch_scan: half uniform, half land/sea world events, grid(8)
    pub scan_points: usize,
    pub scan_grid_dims: usize,
    /// Share of the world the selective polygon covers.
    pub scan_selective_frac: f64,
    /// Share of the time range the temporal window covers.
    pub scan_window_frac: f64,
    pub scan_haversine_m: f64,

    // stream: drifting-hotspot micro-batches
    pub stream_batch_records: usize,
    /// Batches of state kept: each batch retracts the one this far back.
    pub stream_retention: usize,
    /// Open-loop arrival rate of phase A, ≈40 % of this box's capacity
    /// (≈61 batches/s unpaced at the full size).
    pub stream_rate_batches_s: f64,
    /// Share of the timed section spent in phase A; the rest is phase B.
    pub stream_paced_frac: f64,
    pub stream_hotspot_frac: f64,

    // service: rows of the served relation, script pools
    pub service_rows: usize,
    pub service_hot_templates: usize,
    /// Distinct cold templates; must exceed the plan cache's capacity so
    /// each one is evicted before it comes round again.
    pub service_cold_templates: usize,
    /// One light request in this many draws a cold template.
    pub service_cold_every: u64,
    /// Distinct literals per hot template.
    pub service_literals: usize,

    // dist: rows shipped through two remote shuffles per op
    pub dist_rows: usize,
    pub dist_map_tasks: usize,
    pub dist_grid_dims: usize,
    pub dist_filter_frac: f64,
    pub dist_join_distance: f64,

    /// Events handed to the ledger's microbenchmarks.
    pub ledger_sample: usize,
    /// Row counts of the codec's two sizes. Decoding is superlinear in the
    /// blob size (20k rows take ~20 s on this box), so the large size is
    /// the largest that fits a run; the two rates still expose the term.
    pub codec_small_rows: usize,
    pub codec_large_rows: usize,
}

impl Sizing {
    pub fn full() -> Sizing {
        Sizing {
            setup_repeats: 3,
            warmup_ops: 5,
            join_points: 50_000,
            join_clusters: 40,
            join_sigma: 8.0,
            join_distance: 1.0,
            scan_points: 400_000,
            scan_grid_dims: 8,
            scan_selective_frac: 0.05,
            scan_window_frac: 0.05,
            scan_haversine_m: 1_500_000.0,
            stream_batch_records: 4_000,
            stream_retention: 6,
            stream_rate_batches_s: 25.0,
            stream_paced_frac: 0.5,
            stream_hotspot_frac: 0.25,
            service_rows: 5_000,
            service_hot_templates: 4,
            service_cold_templates: 320,
            service_cold_every: 10,
            service_literals: 50,
            dist_rows: 2_000,
            dist_map_tasks: 4,
            dist_grid_dims: 4,
            dist_filter_frac: 0.25,
            dist_join_distance: 5.0,
            ledger_sample: 20_000,
            codec_small_rows: 2_000,
            codec_large_rows: 6_000,
        }
    }

    pub fn quick() -> Sizing {
        Sizing {
            setup_repeats: 1,
            warmup_ops: 1,
            join_points: 3_000,
            scan_points: 16_000,
            stream_batch_records: 400,
            stream_rate_batches_s: 50.0,
            service_rows: 500,
            dist_rows: 300,
            ledger_sample: 1_500,
            codec_small_rows: 200,
            codec_large_rows: 600,
            ..Sizing::full()
        }
    }
}
