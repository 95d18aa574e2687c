//! The geometry sum type shared by the whole workspace.

use crate::algorithms::relate;
use crate::coord::Coord;
use crate::envelope::Envelope;
use crate::error::GeoError;
use crate::linestring::LineString;
use crate::point::Point;
use crate::polygon::Polygon;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple-features geometry.
///
/// Predicate semantics used throughout this kernel:
///
/// * [`Geometry::intersects`] — the closed point sets share at least one
///   point (boundaries included).
/// * [`Geometry::contains`] — *covers* semantics: every point of the
///   argument lies in the closed region of `self`. Unlike strict OGC
///   `contains`, a boundary-only touch still counts; this matches what
///   spatio-temporal event queries need and sidesteps the classic JTS
///   "polygon does not contain its own boundary point" surprise.
/// * [`Geometry::distance`] — minimum Euclidean distance between the
///   closed point sets; zero if they intersect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Geometry {
    Point(Point),
    MultiPoint(Vec<Point>),
    LineString(LineString),
    MultiLineString(Vec<LineString>),
    Polygon(Polygon),
    MultiPolygon(Vec<Polygon>),
}

impl Geometry {
    /// Parses a geometry from its WKT representation.
    pub fn from_wkt(wkt: &str) -> Result<Self, GeoError> {
        crate::wkt::parse_wkt(wkt)
    }

    /// Serialises the geometry to WKT.
    pub fn to_wkt(&self) -> String {
        crate::wkt::write_wkt(self)
    }

    /// Shorthand for a point geometry.
    pub fn point(x: f64, y: f64) -> Self {
        Geometry::Point(Point::new(x, y))
    }

    /// Axis-aligned rectangle as a polygon geometry.
    pub fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        let env = Envelope::from_bounds(min_x, min_y, max_x, max_y);
        Geometry::Polygon(Polygon::from_envelope(&env).expect("non-empty envelope"))
    }

    /// Minimum bounding rectangle of the geometry.
    pub fn envelope(&self) -> Envelope {
        match self {
            Geometry::Point(p) => p.envelope(),
            Geometry::MultiPoint(ps) => {
                ps.iter().fold(Envelope::empty(), |e, p| e.union(&p.envelope()))
            }
            Geometry::LineString(l) => l.envelope(),
            Geometry::MultiLineString(ls) => {
                ls.iter().fold(Envelope::empty(), |e, l| e.union(&l.envelope()))
            }
            Geometry::Polygon(p) => p.envelope(),
            Geometry::MultiPolygon(ps) => {
                ps.iter().fold(Envelope::empty(), |e, p| e.union(&p.envelope()))
            }
        }
    }

    /// Representative centroid.
    ///
    /// Points: the point; multipoints and linestrings: vertex mean;
    /// polygons: area-weighted centroid. STARK assigns geometries to
    /// partitions by this centroid (paper §2.1).
    pub fn centroid(&self) -> Coord {
        match self {
            Geometry::Point(p) => *p.coord(),
            Geometry::MultiPoint(ps) => mean(ps.iter().map(|p| *p.coord())),
            Geometry::LineString(l) => mean(l.coords().iter().copied()),
            Geometry::MultiLineString(ls) => {
                mean(ls.iter().flat_map(|l| l.coords().iter().copied()))
            }
            Geometry::Polygon(p) => p.centroid(),
            Geometry::MultiPolygon(ps) => {
                // area-weighted combination of member centroids
                let total: f64 = ps.iter().map(Polygon::area).sum();
                if total < f64::EPSILON {
                    return mean(ps.iter().map(|p| p.centroid()));
                }
                let (cx, cy) = ps.iter().fold((0.0, 0.0), |(cx, cy), p| {
                    let c = p.centroid();
                    let a = p.area();
                    (cx + c.x * a, cy + c.y * a)
                });
                Coord::new(cx / total, cy / total)
            }
        }
    }

    /// Whether the closed point sets of `self` and `other` share a point.
    pub fn intersects(&self, other: &Geometry) -> bool {
        relate::intersects(self, other)
    }

    /// Whether every point of `other` lies in the closed region of `self`
    /// (covers semantics, see the type-level docs).
    pub fn contains(&self, other: &Geometry) -> bool {
        relate::covers(self, other)
    }

    /// Reverse of [`Geometry::contains`].
    pub fn contained_by(&self, other: &Geometry) -> bool {
        other.contains(self)
    }

    /// Minimum Euclidean distance between the closed point sets.
    pub fn distance(&self, other: &Geometry) -> f64 {
        relate::distance(self, other)
    }

    /// Enclosed area: zero for points and lines, ring area minus holes
    /// for polygons, summed over multi-polygon members.
    pub fn area(&self) -> f64 {
        match self {
            Geometry::Point(_) | Geometry::MultiPoint(_) => 0.0,
            Geometry::LineString(_) | Geometry::MultiLineString(_) => 0.0,
            Geometry::Polygon(p) => p.area(),
            Geometry::MultiPolygon(ps) => ps.iter().map(Polygon::area).sum(),
        }
    }

    /// Total length: zero for points, path length for lines, boundary
    /// perimeter (all rings) for polygons.
    pub fn length(&self) -> f64 {
        match self {
            Geometry::Point(_) | Geometry::MultiPoint(_) => 0.0,
            Geometry::LineString(l) => l.length(),
            Geometry::MultiLineString(ls) => ls.iter().map(LineString::length).sum(),
            Geometry::Polygon(p) => p.rings().map(|r| r.perimeter()).sum(),
            Geometry::MultiPolygon(ps) => {
                ps.iter().flat_map(|p| p.rings()).map(|r| r.perimeter()).sum()
            }
        }
    }

    /// Total number of coordinates across all components.
    pub fn num_coords(&self) -> usize {
        match self {
            Geometry::Point(_) => 1,
            Geometry::MultiPoint(ps) => ps.len(),
            Geometry::LineString(l) => l.num_coords(),
            Geometry::MultiLineString(ls) => ls.iter().map(LineString::num_coords).sum(),
            Geometry::Polygon(p) => p.rings().map(|r| r.coords_closed().len()).sum(),
            Geometry::MultiPolygon(ps) => {
                ps.iter().flat_map(|p| p.rings()).map(|r| r.coords_closed().len()).sum()
            }
        }
    }
}

fn mean<I: IntoIterator<Item = Coord>>(coords: I) -> Coord {
    let mut n = 0usize;
    let mut sx = 0.0;
    let mut sy = 0.0;
    for c in coords {
        n += 1;
        sx += c.x;
        sy += c.y;
    }
    if n == 0 {
        Coord::new(f64::NAN, f64::NAN)
    } else {
        Coord::new(sx / n as f64, sy / n as f64)
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_wkt())
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::LineString(l)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_of_multipolygon_unions_members() {
        let g = Geometry::MultiPolygon(vec![
            match Geometry::rect(0.0, 0.0, 1.0, 1.0) {
                Geometry::Polygon(p) => p,
                _ => unreachable!(),
            },
            match Geometry::rect(5.0, 5.0, 6.0, 7.0) {
                Geometry::Polygon(p) => p,
                _ => unreachable!(),
            },
        ]);
        assert_eq!(g.envelope(), Envelope::from_bounds(0.0, 0.0, 6.0, 7.0));
    }

    #[test]
    fn centroid_of_rect() {
        let g = Geometry::rect(0.0, 0.0, 4.0, 2.0);
        assert!(g.centroid().approx_eq(&Coord::new(2.0, 1.0)));
    }

    #[test]
    fn centroid_of_point_is_itself() {
        assert!(Geometry::point(3.0, 4.0).centroid().approx_eq(&Coord::new(3.0, 4.0)));
    }

    #[test]
    fn num_coords() {
        assert_eq!(Geometry::point(0.0, 0.0).num_coords(), 1);
        assert_eq!(Geometry::rect(0.0, 0.0, 1.0, 1.0).num_coords(), 5);
    }

    #[test]
    fn area_and_length() {
        assert_eq!(Geometry::point(1.0, 2.0).area(), 0.0);
        assert_eq!(Geometry::point(1.0, 2.0).length(), 0.0);
        let rect = Geometry::rect(0.0, 0.0, 4.0, 3.0);
        assert_eq!(rect.area(), 12.0);
        assert_eq!(rect.length(), 14.0);
        let line = Geometry::from_wkt("LINESTRING(0 0, 3 4)").unwrap();
        assert_eq!(line.area(), 0.0);
        assert_eq!(line.length(), 5.0);
        let holed =
            Geometry::from_wkt("POLYGON((0 0, 10 0, 10 10, 0 10, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))")
                .unwrap();
        assert_eq!(holed.area(), 99.0);
        assert_eq!(holed.length(), 44.0);
    }

    #[test]
    fn contained_by_is_reverse_contains() {
        let big = Geometry::rect(0.0, 0.0, 10.0, 10.0);
        let p = Geometry::point(5.0, 5.0);
        assert!(p.contained_by(&big));
        assert!(big.contains(&p));
        assert!(!big.contained_by(&p));
    }
}
