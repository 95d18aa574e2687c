//! Property tests of the vendored JSON codec, which still parses every
//! control frame (`recv_msg`), op argument and collector output:
//! arbitrary strings round-trip byte-identically, hand-written `\u`
//! escapes decode, every truncated or mangled document is a typed error
//! (never a panic), and hostile nesting is refused before it can
//! overflow the stack of a process decoding untrusted frames. Row blobs
//! use the binary codec instead; `row_codec.rs` holds its properties.

use proptest::prelude::*;
use stark_engine::transport::{recv_msg, write_frame, DriverMsg};
use std::io::{Cursor, ErrorKind};

type Row = (u64, String);

/// One char from a mix that stresses the string codec: ASCII, control
/// characters, quotes, backslashes and 2-, 3- and 4-byte UTF-8.
fn any_char() -> impl Strategy<Value = char> {
    let ranged = |lo: u32, hi: u32| (lo..hi).prop_filter_map("a Unicode scalar", char::from_u32);
    prop_oneof![
        ranged(0x20, 0x7F),
        ranged(0x00, 0x20),
        Just('"'),
        Just('\\'),
        Just('/'),
        Just('\u{7F}'),
        ranged(0x80, 0x800),
        ranged(0x800, 0x1_0000),
        ranged(0x1_0000, 0x11_0000),
    ]
}

/// Strings built from [`any_char`]s and from text that merely looks like
/// an escape (a backslash, `u` and four hex digits; `\n`), which must
/// survive as literal text.
fn any_string() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        any_char().prop_map(String::from),
        (0u32..0x1_0000).prop_map(|code| format!("\\u{code:04x}")),
        Just("\\n".to_string()),
        Just("\"\"".to_string()),
    ];
    proptest::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat())
}

fn any_rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((any::<u64>(), any_string()), 0..8)
}

fn encode(rows: &[Row]) -> Vec<u8> {
    serde_json::to_vec(rows).unwrap()
}

fn decode(doc: &[u8]) -> Result<Vec<Row>, serde_json::Error> {
    serde_json::from_slice(doc)
}

/// `s` as a JSON string literal with *every* char written as a `\u`
/// escape — astral chars as surrogate pairs — the way an ASCII-only
/// encoder in another language would send it.
fn escape_all(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        let mut units = [0u16; 2];
        for unit in c.encode_utf16(&mut units) {
            out.push_str(&format!("\\u{unit:04X}"));
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rows_with_arbitrary_strings_roundtrip(rows in any_rows()) {
        let doc = encode(&rows);
        let back = decode(&doc).unwrap();
        prop_assert_eq!(&back, &rows);
        // and the re-encoding is byte-identical
        prop_assert_eq!(encode(&back), doc);
    }

    #[test]
    fn escaped_strings_decode_to_the_original(s in any_string()) {
        let doc = format!("[[7,{}]]", escape_all(&s));
        let back = decode(doc.as_bytes()).unwrap();
        prop_assert_eq!(back, vec![(7, s)]);
    }

    #[test]
    fn every_truncation_of_a_document_is_an_error(rows in any_rows()) {
        let doc = encode(&rows);
        for cut in 0..doc.len() {
            prop_assert!(
                decode(&doc[..cut]).is_err(),
                "prefix of {} of {} bytes decoded: {:?}",
                cut,
                doc.len(),
                String::from_utf8_lossy(&doc[..cut])
            );
        }
    }

    #[test]
    fn mangled_documents_never_panic(
        rows in any_rows(),
        at in any::<usize>(),
        byte in any::<u8>(),
        insert in any::<bool>(),
    ) {
        let mut doc = encode(&rows);
        let at = at % (doc.len() + 1);
        if insert || at == doc.len() {
            doc.insert(at, byte);
        } else {
            doc[at] = byte;
        }
        // Ok or Err are both fine; reaching the next line is the property
        let _ = decode(&doc);
    }
}

#[test]
fn deeply_nested_frames_are_invalid_data_not_a_stack_overflow() {
    for payload in ["[".repeat(100_000), "{\"a\":".repeat(100_000), "[".repeat(129)] {
        let mut frame = Vec::new();
        write_frame(&mut frame, payload.as_bytes()).unwrap();
        let err = recv_msg::<DriverMsg>(&mut Cursor::new(frame)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }
}

#[test]
fn nesting_up_to_the_cap_still_decodes() {
    let depth = serde::value::MAX_DEPTH;
    let doc = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<serde_json::Value>(&doc).is_ok());
}
