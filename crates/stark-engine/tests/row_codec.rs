//! Properties of the binary row codec (`encode_rows` / `decode_rows`),
//! which carries every row blob: inline task input, shuffle buckets,
//! `Collect` payloads, spills and checkpoints. Rows round-trip with
//! their exact float bits and re-encode byte-identically; every
//! truncated, mangled or hostile blob is a typed `PlanError` — never a
//! panic, never an allocation sized by an untrusted count.

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use stark_engine::plan::{decode_rows, encode_rows, int_arg, PlanError, PlanOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks the largest single allocation made on the current thread, so
/// a test can bound what a decode reserved.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Dot(f64, f64),
    Path { pts: Vec<(f64, f64)>, closed: bool },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Row {
    id: u64,
    name: String,
    delta: i32,
    shape: Shape,
    tag: Option<char>,
    weight: f32,
}

/// Finite floats plus the values a text codec mangles or needs special
/// tokens for: both zeros, both infinities, NaN with a payload, a
/// subnormal.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(f64::from_bits(0xfff8_dead_beef_0001)),
        Just(f64::MIN_POSITIVE / 4.0),
        Just(f64::MAX),
    ]
}

/// Strings mixing ASCII, control characters, quotes and 2-, 3- and
/// 4-byte UTF-8.
fn any_string() -> impl Strategy<Value = String> {
    let ranged = |lo: u32, hi: u32| (lo..hi).prop_filter_map("a Unicode scalar", char::from_u32);
    let c = prop_oneof![
        ranged(0x00, 0x80),
        Just('"'),
        Just('\\'),
        ranged(0x80, 0x800),
        ranged(0x800, 0x1_0000),
        ranged(0x1_0000, 0x11_0000),
    ];
    proptest::collection::vec(c, 0..16).prop_map(|cs| cs.into_iter().collect())
}

fn any_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Empty),
        (any_f64(), any_f64()).prop_map(|(x, y)| Shape::Dot(x, y)),
        (proptest::collection::vec((any_f64(), any_f64()), 0..5), any::<bool>())
            .prop_map(|(pts, closed)| Shape::Path { pts, closed }),
    ]
}

fn any_row() -> impl Strategy<Value = Row> {
    let tag = prop_oneof![
        Just(None),
        (0u32..0x11_0000).prop_filter_map("a Unicode scalar", char::from_u32).prop_map(Some),
    ];
    (any::<u64>(), any_string(), any::<i32>(), any_shape(), tag, any_f64()).prop_map(
        |(id, name, delta, shape, tag, w)| Row { id, name, delta, shape, tag, weight: w as f32 },
    )
}

fn any_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(any_row(), 0..6)
}

/// The `PlanError::Serde` message of a decode that must fail.
fn serde_err<T: Deserialize + std::fmt::Debug>(blob: &[u8]) -> String {
    match decode_rows::<T>(blob) {
        Err(PlanError::Serde(m)) => m,
        other => panic!("expected PlanError::Serde, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rows_roundtrip_and_reencode_byte_identically(rows in any_rows()) {
        let blob = encode_rows(&rows).unwrap();
        let back: Vec<Row> = decode_rows(&blob).unwrap();
        // Debug shows -0.0 and NaN, which `==` cannot compare
        prop_assert_eq!(format!("{back:?}"), format!("{rows:?}"));
        // floats travel as raw bits, so the re-encoding is byte-identical
        prop_assert_eq!(encode_rows(&back).unwrap(), blob);
    }

    #[test]
    fn every_truncation_of_a_blob_is_an_error(rows in any_rows()) {
        let blob = encode_rows(&rows).unwrap();
        for cut in 0..blob.len() {
            prop_assert!(
                decode_rows::<Row>(&blob[..cut]).is_err(),
                "prefix of {} of {} bytes decoded",
                cut,
                blob.len()
            );
        }
    }

    #[test]
    fn mangled_blobs_never_panic(
        rows in any_rows(),
        at in any::<usize>(),
        byte in any::<u8>(),
        insert in any::<bool>(),
    ) {
        let mut blob = encode_rows(&rows).unwrap();
        let at = at % (blob.len() + 1);
        if insert || at == blob.len() {
            blob.insert(at, byte);
        } else {
            blob[at] = byte;
        }
        // Ok or Err are both fine; reaching the next line is the property
        let _ = decode_rows::<Row>(&blob);
    }
}

#[test]
fn a_count_of_u32_max_on_a_short_blob_allocates_nothing_beyond_the_blob() {
    fn check<T: Deserialize + std::fmt::Debug>(blob: &[u8]) {
        LARGEST.with(|m| m.set(0));
        let err = decode_rows::<T>(blob);
        let largest = LARGEST.with(Cell::get);
        assert!(matches!(err, Err(PlanError::Serde(ref m)) if m.contains("exceeds")), "{err:?}");
        assert!(
            largest <= blob.len(),
            "largest allocation {largest} B for a {} B blob",
            blob.len()
        );
    }
    // u32::MAX as a varint
    let mut blob = vec![0xff, 0xff, 0xff, 0xff, 0x0f];
    blob.extend([0u8; 96]);
    check::<u64>(&blob);
    check::<Row>(&blob);
    check::<Value>(&blob);
    // the same count one level down
    let mut nested = vec![1];
    nested.extend(&blob);
    check::<Vec<u64>>(&nested);
    check::<String>(&nested);
}

#[test]
fn an_unknown_variant_index_is_typed() {
    let mut blob = encode_rows(&[Shape::Empty]).unwrap();
    assert_eq!(blob, [1, 0], "one row, variant 0");
    blob[1] = 3;
    assert!(serde_err::<Shape>(&blob).contains("unknown Shape variant index 3"));
}

#[test]
fn invalid_utf8_is_typed() {
    let mut blob = encode_rows(&["ab".to_string()]).unwrap();
    assert_eq!(blob, [1, 2, b'a', b'b']);
    blob[2] = 0xff;
    assert!(serde_err::<String>(&blob).contains("invalid UTF-8"));
}

#[test]
fn a_bool_byte_outside_zero_and_one_is_typed() {
    let blob = [1, 2];
    assert!(serde_err::<bool>(&blob).contains("not 0 or 1"));
    // an Option tag is the same kind of flag
    assert!(serde_err::<Option<u8>>(&blob).contains("not 0 or 1"));
}

#[test]
fn trailing_bytes_are_typed() {
    let mut blob = encode_rows(&[7u64]).unwrap();
    blob.push(0);
    assert!(serde_err::<u64>(&blob).contains("trailing"));
}

/// A `Value` of `depth` nested arrays.
fn nest(depth: usize) -> Value {
    (0..depth).fold(Value::Null, |inner, _| Value::Array(vec![inner]))
}

#[test]
fn values_nest_up_to_the_json_parsers_cap_and_no_deeper() {
    let cap = serde::value::MAX_DEPTH;
    assert_eq!(
        serde::bin::from_slice::<Value>(&serde::bin::to_vec(&nest(cap))).unwrap(),
        nest(cap)
    );
    let err = serde::bin::from_slice::<Value>(&serde::bin::to_vec(&nest(cap + 1))).unwrap_err();
    assert!(err.to_string().contains("recursion limit"), "{err}");
    // as in JSON, the row vector around the values is a level of its own
    assert!(decode_rows::<Value>(&encode_rows(&[nest(cap - 1)]).unwrap()).is_ok());
    let blob = encode_rows(&[nest(cap + 1)]).unwrap();
    assert!(serde_err::<Value>(&blob).contains("recursion limit"));
    // far past the cap must not recurse far either
    let mut deep = Vec::new();
    for _ in 0..100_000 {
        deep.extend([6u8, 1]);
    }
    assert!(serde::bin::from_slice::<Value>(&deep).is_err());
}

#[test]
fn values_keep_int_distinct_from_uint() {
    let values = vec![Value::Int(3), Value::UInt(3), Value::Int(-3), Value::Float(3.0)];
    let back: Vec<Value> = decode_rows(&encode_rows(&values).unwrap()).unwrap();
    assert!(
        matches!(back[..], [Value::Int(3), Value::UInt(3), Value::Int(-3), Value::Float(f)] if f == 3.0)
    );
    // an op argument keeps its kind too (JSON text would turn Int(3) into UInt(3))
    let op = PlanOp::Map { op: "add".into(), arg: int_arg("k", 3) };
    match serde::bin::from_slice::<PlanOp>(&serde::bin::to_vec(&op)).unwrap() {
        PlanOp::Map { arg, .. } => assert!(matches!(arg.get_field("k"), Some(Value::Int(3)))),
        other => panic!("expected Map, got {other:?}"),
    }
}

/// `Pool::empty_task` in the frozen benchmark adapter sends a literal
/// JSON `[]`; exactly those two bytes read as zero rows.
#[test]
fn the_frozen_benchmarks_empty_json_array_reads_as_zero_rows() {
    assert_eq!(decode_rows::<i64>(b"[]").unwrap(), Vec::<i64>::new());
    assert_eq!(decode_rows::<Row>(b"[]").unwrap(), Vec::<Row>::new());
    for other in [&b""[..], b"[ ]", b"[]\n", b"[1]", b"{}", b"null", b"[[]]"] {
        assert!(
            matches!(decode_rows::<i64>(other), Err(PlanError::Serde(_))),
            "{:?} decoded",
            String::from_utf8_lossy(other)
        );
    }
}
