//! The response frame, pinned byte for byte, and its reader under
//! hostile bytes.
//!
//! `GOLDEN` holds the bytes the document-tree encoder that preceded
//! `Response::to_bytes` produced for every case of `cases()`; `to_bytes`
//! must produce exactly those bytes, and `Response::from_bytes` must
//! return each reply. The mutation test then feeds `from_bytes` 5 000
//! seeded corruptions of those frames.

use just_core::Dataset;
use just_geo::{Geometry, LineString, Point};
use just_obs::Rng;
use just_ql::{JsonValue, QlError, QueryResult};
use just_server::Response;
use just_storage::{Row, Value};

fn ds(columns: &[&str], rows: Vec<Vec<Value>>) -> Dataset {
    Dataset::new(
        columns.iter().map(|c| c.to_string()).collect(),
        rows.into_iter().map(Row::new).collect(),
    )
}

fn data(d: Dataset) -> Response {
    Response::Result(QueryResult::Data(d))
}

/// A GPS list as storage hands it back: built in the raw fixed-width
/// layout (tag 8), then once through the compressed codec, which
/// quantizes, so the wire round trip is bit-exact.
fn gps_list() -> Value {
    let mut raw = vec![8u8, 2];
    for (lng, lat, t) in [(116.4f64, 39.9f64, 1_000i64), (116.41, 39.91, 61_000)] {
        raw.extend_from_slice(&lng.to_le_bytes());
        raw.extend_from_slice(&lat.to_le_bytes());
        raw.extend_from_slice(&t.to_le_bytes());
    }
    let mut buf = Vec::new();
    Value::decode(&raw, &mut 0).unwrap().encode(&mut buf);
    Value::decode(&buf, &mut 0).unwrap()
}

/// The replies the golden bytes pin, by name.
fn cases() -> Vec<(&'static str, Response)> {
    use std::f64::consts::PI;
    let floats = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        1e300,
        PI,
        f64::MIN_POSITIVE,
        0.1,
        3.0,
    ];
    vec![
        (
            "ints_and_dates",
            data(ds(
                &["n", "t"],
                vec![
                    vec![Value::Int(0), Value::Date(1_600_000_000_000)],
                    vec![Value::Int(i64::MIN), Value::Date(-1)],
                    vec![Value::Int(i64::MAX), Value::Null],
                ],
            )),
        ),
        (
            "floats",
            data(ds(
                &["f"],
                floats.iter().map(|&f| vec![Value::Float(f)]).collect(),
            )),
        ),
        (
            "bools_and_null",
            data(ds(
                &["b", "x"],
                vec![
                    vec![Value::Bool(true), Value::Null],
                    vec![Value::Bool(false), Value::Str(String::new())],
                ],
            )),
        ),
        (
            "strings",
            data(ds(
                &["say \"q\"", "naïve\\"],
                vec![
                    vec![
                        Value::Str("say \"hi\"".into()),
                        Value::Str("C:\\dir\\".into()),
                    ],
                    vec![
                        Value::Str("tab\tnl\ncr\r bell\u{7} nul\u{0} esc\u{1b} del\u{7f}".into()),
                        Value::Str("北京 naïve 😀 \u{2028}/".into()),
                    ],
                ],
            )),
        ),
        (
            "geometries",
            data(ds(
                &["geom", "path", "gps"],
                vec![vec![
                    Value::Geom(Geometry::Point(Point::new(116.4, 39.9))),
                    Value::Geom(Geometry::LineString(LineString::new(vec![
                        Point::new(0.125, -7.5),
                        Point::new(1.0, 2.0),
                    ]))),
                    gps_list(),
                ]],
            )),
        ),
        ("zero_rows", data(ds(&["fid", "geom"], vec![]))),
        ("zero_columns", data(ds(&[], vec![vec![], vec![]]))),
        (
            "message",
            Response::Result(QueryResult::Message("3 rows \"inserted\"".into())),
        ),
        (
            "traced",
            Response::Traced {
                data: ds(&["n"], vec![vec![Value::Int(7)]]),
                trace: "query 1.2ms\n  scan [pts] 0.8ms rows=1".into(),
            },
        ),
        (
            "text",
            Response::Text("# TYPE just_server_requests counter\njust_server_requests 3\n".into()),
        ),
        (
            "error",
            Response::error("BUSY", "at capacity (64 sessions)"),
        ),
        (
            "error_with_request_id",
            Response::from_ql_error(&QlError::Parse("unexpected token 'SELEKT'".into()))
                .tag_request(42),
        ),
    ]
}

/// `cases()` as the tree encoder wrote them, in the same order.
const GOLDEN: &[(&str, &str)] = &[
    (
        "ints_and_dates",
        r#"{"ok":true,"result":{"columns":["n","t"],"kind":"data","rows":[[{"i":0},{"d":1600000000000}],[{"i":-9223372036854775808},{"d":-1}],[{"i":9223372036854775807},null]]}}"#,
    ),
    (
        "floats",
        r#"{"ok":true,"result":{"columns":["f"],"kind":"data","rows":[[{"f":"NaN"}],[{"f":"inf"}],[{"f":"-inf"}],[{"f":"-0"}],[{"f":"1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"}],[{"f":"3.141592653589793"}],[{"f":"0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014"}],[{"f":"0.1"}],[{"f":"3"}]]}}"#,
    ),
    (
        "bools_and_null",
        r#"{"ok":true,"result":{"columns":["b","x"],"kind":"data","rows":[[true,null],[false,{"s":""}]]}}"#,
    ),
    (
        "strings",
        concat!(
            r#"{"ok":true,"result":{"columns":["say \"q\"","naïve\\"],"kind":"data","rows":[[{"s":"say \"hi\""},{"s":"C:\\dir\\"}],[{"s":"tab\tnl\ncr\r bell\u0007 nul\u0000 esc\u001b del"#,
            "\u{7f}",
            r#""},{"s":"北京 naïve 😀 "#,
            "\u{2028}",
            r#"/"}]]}}"#
        ),
    ),
    (
        "geometries",
        r#"{"ok":true,"result":{"columns":["geom","path","gps"],"kind":"data","rows":[[{"b":"06019a99999999195d403333333333f34340"},{"b":"060202000000000000c03f0000000000001ec0000000000000f03f0000000000000040"},{"b":"07160280ec89d6088087c2fc02d00fc09a0cc09a0cc0a907"}]]}}"#,
    ),
    (
        "zero_rows",
        r#"{"ok":true,"result":{"columns":["fid","geom"],"kind":"data","rows":[]}}"#,
    ),
    (
        "zero_columns",
        r#"{"ok":true,"result":{"columns":[],"kind":"data","rows":[[],[]]}}"#,
    ),
    (
        "message",
        r#"{"ok":true,"result":{"kind":"message","text":"3 rows \"inserted\""}}"#,
    ),
    (
        "traced",
        r#"{"ok":true,"result":{"columns":["n"],"kind":"data","rows":[[{"i":7}]]},"trace":"query 1.2ms\n  scan [pts] 0.8ms rows=1"}"#,
    ),
    (
        "text",
        r##"{"ok":true,"text":"# TYPE just_server_requests counter\njust_server_requests 3\n"}"##,
    ),
    (
        "error",
        r#"{"code":"BUSY","message":"at capacity (64 sessions)","ok":false}"#,
    ),
    (
        "error_with_request_id",
        r#"{"code":"PARSE","message":"unexpected token 'SELEKT'","ok":false,"request_id":42}"#,
    ),
];

#[test]
fn responses_encode_to_the_golden_bytes_and_decode_back() {
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len());
    for ((name, response), (golden_name, golden)) in cases.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        let bytes = response.to_bytes();
        assert!(
            bytes == golden.as_bytes(),
            "{name}: wrote\n{}\nwant\n{golden}",
            String::from_utf8_lossy(&bytes)
        );
        let want = format!("{response:?}");
        let back = Response::from_bytes(golden.as_bytes()).unwrap();
        assert_eq!(format!("{back:?}"), want, "{name}");
        let tree = JsonValue::parse(golden).unwrap();
        let shim = Response::from_json(&tree).unwrap();
        assert_eq!(format!("{shim:?}"), want, "{name}");
    }
}

/// Inserts `text` into `frame` at `at`.
fn insert(frame: &[u8], at: usize, text: &[u8]) -> Vec<u8> {
    [&frame[..at], text, &frame[at..]].concat()
}

/// Where `pat` starts in `frame`.
fn find_all(frame: &[u8], pat: &[u8]) -> Vec<usize> {
    (0..=frame.len().saturating_sub(pat.len()))
        .filter(|&i| frame[i..].starts_with(pat))
        .collect()
}

fn pick<'a, T>(rng: &mut Rng, items: &'a [T]) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.gen_range(0..items.len())])
}

/// One seeded corruption of `frame`; `kind` picks the family.
fn mutate(rng: &mut Rng, frame: &[u8], kind: usize) -> Vec<u8> {
    let mut out = frame.to_vec();
    let at = rng.gen_range(0..frame.len() + 1);
    let opens = find_all(frame, b"{");
    let after_open = pick(rng, &opens).map_or(1, |&i| i + 1);
    match kind {
        // Bit flips.
        0 => {
            for _ in 0..rng.gen_range(1..4) {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
            out
        }
        // Truncations.
        1 => frame[..at.min(frame.len() - 1)].to_vec(),
        // Insertions of structural, digit, letter and non-UTF-8 bytes.
        2 => {
            let alphabet = b"{}[]\":,\\ 0-9.eE+aiztnu\xff\xc3";
            let n = rng.gen_range(1..4);
            let text: Vec<u8> = (0..n).map(|_| *pick(rng, alphabet).unwrap()).collect();
            insert(frame, at, &text)
        }
        // Bracket runs around the cap, as an unknown member's value.
        3 => {
            let depth = rng.gen_range(100..300usize);
            let (open, close) = match rng.gen_bool(0.5) {
                true => ("[".repeat(depth), "]".repeat(depth)),
                false => ("{\"k\":".repeat(depth) + "0", "}".repeat(depth)),
            };
            let balanced = rng.gen_bool(0.7);
            let member = format!("\"zz\":{open}{},", if balanced { &close } else { "" });
            insert(frame, after_open, member.as_bytes())
        }
        // Bad escapes and surrogates, valid ones too, inside a string.
        4 => {
            let escapes: [&str; 10] = [
                "\\x",
                "\\u12",
                "\\u+041",
                "\\ud800",
                "\\udc00",
                "\\ud83d\\u0041",
                "\\ud83d\\ude00",
                "\\u00e9",
                "\\/",
                "\\",
            ];
            let quotes = find_all(frame, b"\"");
            let at = pick(rng, &quotes).map_or(at, |&i| i + 1);
            insert(frame, at, pick(rng, &escapes).unwrap().as_bytes())
        }
        // Unknown members, at any object.
        5 => {
            let values = [
                "1",
                "\"x\"",
                "null",
                "[1,{\"a\":[]}]",
                "{\"i\":1}",
                "-2.5e3",
            ];
            let member = format!("\"zz\":{},", pick(rng, &values).unwrap());
            insert(frame, after_open, member.as_bytes())
        }
        // Known members again, which duplicates them where they already are.
        6 => {
            let members = [
                "\"ok\":true,",
                "\"ok\":false,",
                "\"kind\":\"data\",",
                "\"kind\":\"message\",",
                "\"columns\":[],",
                "\"rows\":[[]],",
                "\"text\":\"t\",",
                "\"trace\":\"t\",",
                "\"code\":\"X\",",
                "\"request_id\":-1,",
                "\"i\":3,",
                "\"f\":\"1.5\",",
                "\"result\":{\"kind\":\"message\",\"text\":\"m\"},",
            ];
            insert(frame, after_open, pick(rng, &members).unwrap().as_bytes())
        }
        // Cells with no tag or a second one.
        7 => {
            let cells: Vec<usize> = [
                &b"{\"i\":"[..],
                b"{\"d\":",
                b"{\"f\":",
                b"{\"s\":",
                b"{\"b\":",
            ]
            .iter()
            .flat_map(|tag| find_all(frame, tag))
            .collect();
            let Some(&cell) = pick(rng, &cells) else {
                return mutate(rng, frame, 0);
            };
            match rng.gen_range(0..3) {
                0 => insert(frame, cell + 1, b"\"s\":\"x\","),
                1 => insert(frame, cell + 1, b"\"d\":1,"),
                _ => {
                    out[cell + 2] = b'q';
                    out
                }
            }
        }
        // Bad hex: a sign, a non-digit, upper case, a dropped digit.
        _ => {
            let payloads = find_all(frame, b"{\"b\":\"");
            let Some(&start) = pick(rng, &payloads) else {
                return mutate(rng, frame, 0);
            };
            let start = start + 6;
            let len = frame[start..].iter().position(|&b| b == b'"').unwrap();
            let i = start + rng.gen_range(0..len);
            match rng.gen_range(0..4) {
                0 => out[i] = b'+',
                1 => out[i] = b'g',
                2 => out[i] = out[i].to_ascii_uppercase(),
                _ => {
                    out.remove(i);
                }
            }
            out
        }
    }
}

/// Object members written in `text`, duplicates included: the `:`s
/// outside strings of a document that parses.
fn members_written(text: &str) -> usize {
    let (mut n, mut in_str, mut esc) = (0, false, false);
    for b in text.bytes() {
        match (in_str, esc, b) {
            (true, true, _) => esc = false,
            (true, false, b'\\') => esc = true,
            (_, false, b'"') => in_str = !in_str,
            (false, _, b':') => n += 1,
            _ => {}
        }
    }
    n
}

/// Object members held by `tree`, where a duplicate key kept only one.
fn members_held(tree: &JsonValue) -> usize {
    match tree {
        JsonValue::Object(map) => map.len() + map.values().map(members_held).sum::<usize>(),
        JsonValue::Array(items) => items.iter().map(members_held).sum(),
        _ => 0,
    }
}

fn outcome(r: &Result<Response, QlError>) -> String {
    match r {
        Ok(response) => format!("{response:?}"),
        Err(e) => format!("error {}", e.code()),
    }
}

#[test]
fn mutated_frames_decode_or_fail_malformed_and_match_the_tree_path() {
    const KINDS: usize = 9;
    let mut rng = Rng::seed_from_u64(0x6a75_7374);
    let (mut accepted, mut compared, mut compared_ok) = (0, 0, 0);
    for i in 0..5_000 {
        let (_, golden) = GOLDEN[rng.gen_range(0..GOLDEN.len())];
        let raw = mutate(&mut rng, golden.as_bytes(), i % KINDS);
        let shown = String::from_utf8_lossy(&raw).into_owned();
        let direct = std::panic::catch_unwind(|| Response::from_bytes(&raw))
            .unwrap_or_else(|_| panic!("from_bytes panicked on {shown}"));
        match &direct {
            Ok(_) => accepted += 1,
            Err(e) => assert_eq!(e.code(), "MALFORMED", "{e} on {shown}"),
        }
        // Against the tree path, where the tree holds the document: it
        // parses, no key repeats, and re-rendering it loses nothing (a
        // number past f64's range would come back as `null`).
        let Ok(text) = std::str::from_utf8(&raw) else {
            continue;
        };
        let Ok(tree) = JsonValue::parse(text) else {
            continue;
        };
        if members_written(text) != members_held(&tree)
            || JsonValue::parse(&tree.render()).as_ref() != Ok(&tree)
        {
            continue;
        }
        let via_tree = Response::from_json(&tree);
        assert_eq!(outcome(&direct), outcome(&via_tree), "on {shown}");
        compared += 1;
        compared_ok += usize::from(direct.is_ok());
    }
    println!("5000 mutants: {accepted} decoded, {compared} compared with the tree path ({compared_ok} of them decoded)");
    assert!(accepted > 500 && compared > 1_000 && compared_ok > 500);
}
