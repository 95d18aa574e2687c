//! `EventRow`s through the binary row codec: every `Geometry` variant
//! (polygons with holes included), no time, an instant, closed and open
//! intervals, and the float values a text codec mangles (`-0.0`, ±∞,
//! NaN, subnormals, `f64::MAX`) round-trip with their exact bits and
//! re-encode byte-identically; no prefix of a blob decodes.

use proptest::prelude::*;
use stark::distributed::EventRow;
use stark::{STObject, Temporal};
use stark_engine::plan::{decode_rows, encode_rows};
use stark_geo::{Coord, Geometry, LineString, Point, Polygon, Ring};

/// Finite values worth pinning, mixed with ordinary ones.
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        -1e3..1e3,
        Just(0.0),
        Just(-0.0),
        Just(f64::MIN_POSITIVE / 8.0),
        Just(-f64::MAX),
        Just(f64::MAX),
    ]
}

/// Point coordinates carry no validity check, so they also get the
/// non-finite values.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        finite_f64(),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(f64::from_bits(0xfff4_0000_0bad_f00d)),
    ]
}

fn point() -> impl Strategy<Value = Point> {
    (any_f64(), any_f64()).prop_map(|(x, y)| Point::new(x, y))
}

fn coords(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Coord>> {
    proptest::collection::vec((finite_f64(), finite_f64()), len)
        .prop_map(|cs| cs.into_iter().map(|(x, y)| Coord::new(x, y)).collect())
}

fn line() -> impl Strategy<Value = LineString> {
    coords(2..6).prop_filter_map("a valid line", |cs| LineString::new(cs).ok())
}

fn ring() -> impl Strategy<Value = Ring> {
    coords(3..7).prop_filter_map("a valid ring", |cs| Ring::new(cs).ok())
}

fn polygon() -> impl Strategy<Value = Polygon> {
    (ring(), proptest::collection::vec(ring(), 0..3))
        .prop_map(|(exterior, holes)| Polygon::new(exterior, holes))
}

fn geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        point().prop_map(Geometry::Point),
        proptest::collection::vec(point(), 0..5).prop_map(Geometry::MultiPoint),
        line().prop_map(Geometry::LineString),
        proptest::collection::vec(line(), 0..3).prop_map(Geometry::MultiLineString),
        polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(polygon(), 0..3).prop_map(Geometry::MultiPolygon),
    ]
}

fn time() -> impl Strategy<Value = Option<Temporal>> {
    prop_oneof![
        Just(None),
        any::<i64>().prop_map(|t| Some(Temporal::instant(t))),
        (any::<i64>(), 0i64..1_000_000)
            .prop_map(|(t, d)| Some(Temporal::interval(t, t.saturating_add(d)))),
        any::<i64>().prop_map(|t| Some(Temporal::from_instant_on(t))),
    ]
}

fn event_row() -> impl Strategy<Value = EventRow> {
    (geometry(), time(), any::<u64>(), "[a-zé😀]{0,8}").prop_map(|(geo, time, id, category)| {
        let obj = match time {
            Some(t) => STObject::with_time(geo, t),
            None => STObject::new(geo),
        };
        (obj, (id, category))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn event_rows_roundtrip_with_exact_bits(rows in proptest::collection::vec(event_row(), 0..6)) {
        let blob = encode_rows(&rows).unwrap();
        let back: Vec<EventRow> = decode_rows(&blob).unwrap();
        // Debug tells -0.0 from 0.0 and shows NaN, which `==` cannot compare
        prop_assert_eq!(format!("{back:?}"), format!("{rows:?}"));
        // bits are exact, so the re-encoding is byte-identical
        prop_assert_eq!(encode_rows(&back).unwrap(), blob.clone());
        for cut in 0..blob.len() {
            prop_assert!(decode_rows::<EventRow>(&blob[..cut]).is_err(), "prefix of {} decoded", cut);
        }
    }
}

#[test]
fn a_point_row_is_compact() {
    let row: EventRow = (STObject::point_at(1.0, 2.0, 3), (4, "cat".into()));
    // count, variant + 2 coords, time tag + variant + instant, id,
    // length + text: variant indices and lengths take a byte each
    assert_eq!(encode_rows(&[row]).unwrap().len(), 1 + (1 + 16) + (1 + 1 + 8) + 8 + (1 + 3));
}
