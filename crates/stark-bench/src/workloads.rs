//! Benchmark datasets, produced with fixed seeds for reproducibility.

use stark::{STObject, SpatialRdd, SpatialRddExt};
use stark_engine::{Context, Rdd};
use stark_eventsim::EventGenerator;
use stark_geo::Envelope;

/// The value payload carried alongside each STObject in the benchmarks
/// (an id and a category, as in the paper's running example).
pub type Payload = (u64, String);

/// The benchmark space for non-world workloads.
pub fn space() -> Envelope {
    Envelope::from_bounds(0.0, 0.0, 1000.0, 1000.0)
}

/// Converts events into the paper's pair form.
pub fn to_pairs(
    ctx: &Context,
    events: Vec<stark_eventsim::Event>,
    partitions: usize,
) -> Rdd<(STObject, Payload)> {
    let pairs: Vec<(STObject, Payload)> = events
        .into_iter()
        .map(|e| {
            let (st, (id, cat)) = e.to_pair();
            (st, (id, cat))
        })
        .collect();
    ctx.parallelize(pairs, partitions.max(1))
}

/// Figure 4's dataset: `n` clustered points (hotspots make the self-join
/// non-trivial and the partitioning decisions matter).
pub fn figure4_points(ctx: &Context, n: usize, partitions: usize) -> Rdd<(STObject, Payload)> {
    let mut g = EventGenerator::new(4242);
    to_pairs(ctx, g.clustered_points(n, 40, 8.0, &space()), partitions)
}

/// Uniform points for filter/kNN experiments.
pub fn uniform_points(ctx: &Context, n: usize, partitions: usize) -> Rdd<(STObject, Payload)> {
    let mut g = EventGenerator::new(7);
    to_pairs(ctx, g.uniform_points(n, &space()), partitions)
}

/// The skewed land/sea workload motivating the BSP partitioner.
pub fn world_points(ctx: &Context, n: usize, partitions: usize) -> Rdd<(STObject, Payload)> {
    let mut g = EventGenerator::new(99);
    to_pairs(ctx, g.world_events(n), partitions)
}

/// Region (small rectangle) events for containment joins.
pub fn regions(ctx: &Context, n: usize, partitions: usize) -> Rdd<(STObject, Payload)> {
    let mut g = EventGenerator::new(2023);
    to_pairs(ctx, g.rect_regions(n, 10.0, &space()), partitions)
}

/// A query polygon covering roughly `fraction` of [`space`], centred.
pub fn query_polygon(fraction: f64) -> STObject {
    let s = space();
    let side = (fraction.clamp(0.0001, 1.0)).sqrt();
    let w = s.width() * side;
    let h = s.height() * side;
    let cx = s.center().x;
    let cy = s.center().y;
    STObject::from_wkt_interval(
        &format!(
            "POLYGON(({} {}, {} {}, {} {}, {} {}, {} {}))",
            cx - w / 2.0,
            cy - h / 2.0,
            cx + w / 2.0,
            cy - h / 2.0,
            cx + w / 2.0,
            cy + h / 2.0,
            cx - w / 2.0,
            cy + h / 2.0,
            cx - w / 2.0,
            cy - h / 2.0
        ),
        0,
        1_000_000,
    )
    .expect("well-formed query polygon")
}

/// Wraps a pair dataset for STARK operations.
pub fn spatial(rdd: &Rdd<(STObject, Payload)>) -> SpatialRdd<Payload> {
    rdd.spatial()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_requested_sizes() {
        let ctx = Context::with_parallelism(2);
        assert_eq!(figure4_points(&ctx, 1000, 4).count(), 1000);
        assert_eq!(uniform_points(&ctx, 500, 4).count(), 500);
        assert_eq!(world_points(&ctx, 300, 4).count(), 300);
        assert_eq!(regions(&ctx, 200, 4).count(), 200);
    }

    #[test]
    fn query_polygon_fraction_controls_area() {
        let q = query_polygon(0.25);
        let area = q.envelope().area();
        let total = space().area();
        assert!((area / total - 0.25).abs() < 0.01, "got fraction {}", area / total);
        // full-space query covers everything
        assert!(query_polygon(1.0).envelope().contains_envelope(&space()));
    }

    #[test]
    fn datasets_are_deterministic() {
        let ctx = Context::with_parallelism(2);
        let a = uniform_points(&ctx, 100, 2).collect();
        let b = uniform_points(&ctx, 100, 2).collect();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 == y.1));
    }
}
