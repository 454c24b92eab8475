//! Property tests for the wire codec: encode/decode round-trips, and
//! "never panic, always a typed error" over truncated, oversized, and
//! garbage frames; a differential test holding the direct `query` reply
//! codec to the tree functions it replaces; and malformed result documents,
//! each a typed `PROTOCOL` error through both.

use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use arcs_core::cluster::Rect;
use arcs_core::engine::{BinnedRule, Thresholds};
use arcs_core::jsonio::{self, Json};
use arcs_core::request::Request;
use arcs_core::serve::{QueryResponse, QueryResult};
use arcs_daemon::protocol::{
    query_outcome_from_json, query_response_to_json, read_frame, read_query_reply, split_response,
    write_frame, write_query_response, FrameError, QueryOutcome, WireError, WireRequest,
    CODE_PROTOCOL, HEADER_LEN, MAGIC, VERSION,
};

/// The reference decode the direct reader must match: parse the tree,
/// split the envelope, decode the outcome.
fn tree_decode(text: &str) -> Result<QueryOutcome, WireError> {
    let json = jsonio::parse(text).map_err(WireError::from)?;
    query_outcome_from_json(&split_response(json)?)
}

/// A grid coordinate: mostly small, sometimes up to 2^53.
fn coord(rng: &mut StdRng) -> usize {
    if rng.gen_bool(0.9) {
        rng.gen_range(0..512usize)
    } else {
        rng.gen_range(0..=(1usize << 53))
    }
}

/// A tuple total: a handful, past `u32::MAX`, or up to 2^53, and at least
/// `min`.
fn tuples(rng: &mut StdRng, min: u64) -> u64 {
    match rng.gen_range(0..3u32) {
        0 => rng.gen_range(min..=1_000),
        1 => rng.gen_range(min..=(1u64 << 34)),
        _ => rng.gen_range(min..=(1u64 << 53)),
    }
}

/// A response the daemon could send: every rule built by
/// `BinnedRule::from_counts` from counts a bin array can hold
/// (`1 <= count <= total <= n_tuples`, `count <= group_total <= n_tuples`).
fn response(seed: u64, n_rules: usize) -> QueryResponse {
    let mut rng = StdRng::seed_from_u64(seed);
    let min = u64::from(n_rules > 0);
    let n_tuples = tuples(&mut rng, min);
    let group_total = rng.gen_range(min..=n_tuples);
    let group = rng.gen::<u32>();
    let rules = (0..n_rules)
        .map(|_| {
            let total = rng.gen_range(1..=n_tuples.min(u32::MAX.into()));
            let count = rng.gen_range(1..=total.min(group_total));
            let (x, y) = (coord(&mut rng), coord(&mut rng));
            BinnedRule::from_counts(x, y, group, count as u32, total as u32, n_tuples, group_total)
        })
        .collect();
    let clusters = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some(Vec::new()),
        _ => Some(
            (0..rng.gen_range(1..8usize))
                .map(|_| {
                    let (x0, y0) = (coord(&mut rng), coord(&mut rng));
                    let (w, h) = (rng.gen_range(0..64usize), rng.gen_range(0..64usize));
                    Rect::new(x0, y0, x0 + w, y0 + h).unwrap()
                })
                .collect(),
        ),
    };
    QueryResponse {
        result: Arc::new(QueryResult {
            epoch: rng.gen_range(0..=(1u64 << 53)),
            group,
            n_tuples,
            group_total,
            rules,
            clusters,
        }),
        cache_hit: rng.gen::<bool>(),
        retries: rng.gen::<u32>(),
        elapsed: Duration::from_micros(rng.gen_range(0..=(1u64 << 53))),
    }
}

/// Rebuilds `json` with every object's members in a shuffled order and,
/// when `insert` is set, two members added to each object that both
/// decoders ignore: an unknown one (of any kind, escapes and nesting
/// included) and a later duplicate of a known one (the first counts).
fn reshape(json: &Json, rng: &mut StdRng, insert: bool) -> Json {
    match json {
        Json::Arr(items) => Json::Arr(items.iter().map(|v| reshape(v, rng, insert)).collect()),
        Json::Obj(pairs) => {
            let mut pairs: Vec<_> =
                pairs.iter().map(|(k, v)| (k.clone(), reshape(v, rng, insert))).collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..=i));
            }
            if insert {
                let unknown = match rng.gen_range(0..4u32) {
                    0 => Json::Null,
                    1 => Json::Str("q\"\\\u{1}\u{e9}\n".into()),
                    2 => Json::Arr(vec![Json::Num(-1.5e-300), Json::Obj(vec![]), Json::Bool(true)]),
                    _ => Json::Obj(vec![("x".into(), Json::Str("not a number".into()))]),
                };
                let duplicate = pairs[rng.gen_range(0..pairs.len())].0.clone();
                let at = rng.gen_range(0..=pairs.len());
                pairs.insert(at, ("zz_unknown".into(), unknown));
                pairs.push((duplicate, Json::Str("later duplicate".into())));
            }
            Json::Obj(pairs)
        }
        other => other.clone(),
    }
}

/// Truncations and single-byte flips of `text`.
fn mutations(text: &str, rng: &mut StdRng, count: usize) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..count {
        let cut = rng.gen_range(0..text.len());
        if text.is_char_boundary(cut) {
            out.push(text[..cut].to_string());
        }
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_range(0..bytes.len());
        bytes[at] = rng.gen_range(0..128u8);
        if let Ok(flipped) = String::from_utf8(bytes) {
            out.push(flipped);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any payload round-trips through one frame exactly.
    #[test]
    fn payloads_round_trip(payload in vec(any::<u8>(), 0..2048)) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        prop_assert_eq!(wire.len(), HEADER_LEN + payload.len());
        let back = read_frame(&mut &wire[..]).unwrap();
        prop_assert_eq!(back, payload);
    }

    /// Arbitrary bytes never panic the decoder: they decode as a frame,
    /// a clean close, or a typed frame error.
    #[test]
    fn garbage_never_panics(bytes in vec(any::<u8>(), 0..64)) {
        match read_frame(&mut &bytes[..]) {
            Ok(_) | Err(FrameError::Closed) | Err(FrameError::Protocol(_)) => {}
            Err(FrameError::Io(err)) => prop_assert!(false, "io error from memory: {err}"),
        }
    }

    /// Every strict prefix of a valid frame is a protocol error (cut
    /// connection), never a panic and never a silent success.
    #[test]
    fn truncated_frames_are_protocol_errors(cut_fraction in 0u8..100) {
        let request = WireRequest::Open { dataset: "trades".into() };
        let mut wire = Vec::new();
        write_frame(&mut wire, request.to_json().to_string().as_bytes()).unwrap();
        let cut = 1 + (cut_fraction as usize * (wire.len() - 2)) / 100;
        prop_assert!(cut < wire.len());
        let err = read_frame(&mut &wire[..cut]).unwrap_err();
        prop_assert!(matches!(err, FrameError::Protocol(_)), "cut {cut}: {err}");
    }

    /// A header advertising more payload than [`MAX_FRAME`] is rejected
    /// before any allocation happens.
    #[test]
    fn oversized_lengths_are_rejected(extra in 1u32..=u32::MAX - (8 << 20)) {
        let len = (8u32 << 20) + extra;
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(VERSION);
        wire.push(0);
        wire.extend_from_slice(&len.to_be_bytes());
        let err = read_frame(&mut &wire[..]).unwrap_err();
        prop_assert!(matches!(err, FrameError::Protocol(_)), "{err}");
    }

    /// Query requests with arbitrary finite thresholds survive the wire
    /// bit-identically (floats included).
    #[test]
    fn query_requests_round_trip(
        support_millis in 0u32..=1000,
        confidence_millis in 0u32..=1000,
        label in "[A-Za-z0-9 _\"\\\\\u{e9}]{1,12}",
    ) {
        let thresholds = Thresholds::new(
            support_millis as f64 / 1000.0,
            confidence_millis as f64 / 1000.0,
        ).unwrap();
        let request = WireRequest::Query {
            dataset: Some("d".into()),
            request: Request::new().group(label).thresholds(thresholds),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, request.to_json().to_string().as_bytes()).unwrap();
        let payload = read_frame(&mut &wire[..]).unwrap();
        let json = jsonio::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        prop_assert_eq!(WireRequest::from_json(&json).unwrap(), request);
    }

    /// Arbitrary JSON documents fed to the request parser yield a typed
    /// PROTOCOL error or a valid request — never a panic.
    #[test]
    fn arbitrary_json_documents_never_panic_the_request_parser(
        text in "[a-z{}\\[\\]\",:0-9.]{0,40}",
    ) {
        if let Ok(json) = jsonio::parse(&text) {
            if let Err(err) = WireRequest::from_json(&json) {
                prop_assert_eq!(err.code.as_str(), CODE_PROTOCOL, "{}", text);
            }
        }
    }

    /// Error replies decode to the typed error the daemon sent, through
    /// either decoder and however their members are arranged. Mutated,
    /// both decoders fail, and on text that is still JSON with the same
    /// typed error.
    #[test]
    fn error_replies_decode_to_the_same_wire_error(
        seed in any::<u64>(),
        code in 0usize..5,
        message in "[a-z \"\\\\\n\t\u{1}\u{e9}\u{1F600}]{0,40}",
    ) {
        let codes =
            ["OVERLOADED", "DEADLINE_EXCEEDED", "UNKNOWN_GROUP", CODE_PROTOCOL, "NOT_PRIMARY"];
        let err = WireError::new(codes[code], message);
        let tree = err.to_json();
        let text = tree.to_string();
        prop_assert_eq!(read_query_reply(&text), Err(err.clone()));
        prop_assert_eq!(tree_decode(&text), Err(err.clone()));

        let mut rng = StdRng::seed_from_u64(seed);
        for insert in [false, true] {
            let reshaped = reshape(&tree, &mut rng, insert).to_string();
            prop_assert_eq!(read_query_reply(&reshaped), Err(err.clone()), "{}", reshaped);
        }
        for mutated in mutations(&text, &mut rng, 8) {
            let (direct, reference) = (read_query_reply(&mutated), tree_decode(&mutated));
            if jsonio::parse(&mutated).is_ok() {
                prop_assert_eq!(direct, reference, "{}", mutated);
            } else {
                prop_assert!(direct.is_err() && reference.is_err(), "{}", mutated);
            }
        }
    }
}

proptest! {
    // Each case encodes and decodes up to 2,000 rules some 40 times, so
    // fewer cases than above keep the debug-build suite quick.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The direct `query` reply codec against the tree functions: the
    /// same bytes, the same decoded outcome, and under truncation, byte
    /// flips, reordered members and unknown members the same outcome as
    /// parse → split → decode (both `Ok` and equal, or both errors),
    /// never a panic and never a rule with a non-finite measure.
    #[test]
    fn query_replies_match_the_tree_codec(seed in any::<u64>(), n_rules in 0usize..=2000) {
        let response = response(seed, n_rules);
        let want = QueryOutcome {
            result: (*response.result).clone(),
            cache_hit: response.cache_hit,
            retries: response.retries,
        };
        let mut text = String::new();
        write_query_response(&response, &mut text);
        prop_assert_eq!(&text, &query_response_to_json(&response).to_string());
        prop_assert_eq!(read_query_reply(&text), Ok(want.clone()));
        prop_assert_eq!(tree_decode(&text), Ok(want.clone()));

        // A reply whose result still carries the retired
        // `coarsening_steps` member reads as the same outcome.
        let Json::Obj(mut members) = jsonio::parse(&text).unwrap() else { unreachable!() };
        let Some((_, Json::Obj(result))) = members.iter_mut().find(|(key, _)| key == "result")
        else {
            unreachable!()
        };
        result.push(("coarsening_steps".into(), Json::Num(0.0)));
        let older = Json::Obj(members).to_string();
        prop_assert_eq!(read_query_reply(&older), Ok(want.clone()), "{}", older);
        prop_assert_eq!(tree_decode(&older), Ok(want.clone()), "{}", older);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let tree = jsonio::parse(&text).unwrap();
        for insert in [false, true] {
            let reshaped = reshape(&tree, &mut rng, insert).to_string();
            prop_assert_eq!(read_query_reply(&reshaped), Ok(want.clone()), "{}", reshaped);
        }
        for mutated in mutations(&text, &mut rng, 8) {
            let (direct, reference) = (read_query_reply(&mutated), tree_decode(&mutated));
            prop_assert!(
                direct.is_ok() == reference.is_ok() && (direct.is_err() || direct == reference),
                "direct {:?} vs tree {:?} on {}",
                direct.as_ref().map(|o| o.retries),
                reference.as_ref().map(|o| o.retries),
                mutated
            );
            if let Ok(outcome) = direct {
                prop_assert!(outcome.result.rules.iter().all(finite), "{}", mutated);
            }
        }
    }
}

fn finite(rule: &BinnedRule) -> bool {
    [rule.support, rule.confidence, rule.lift, rule.leverage].iter().all(|m| m.is_finite())
}

/// Result documents that are not the counts-only shape, or whose counts
/// no bin array could hold, decode as a typed `PROTOCOL` error through
/// both decoders.
#[test]
fn malformed_result_documents_are_protocol_errors() {
    const HEAD: &str = r#""epoch":0,"group":0,"n_tuples":100,"group_total":40"#;
    let with_rules = |rules: &str| format!(r#"{{{HEAD},"rules":[{rules}]}}"#);
    let well_formed = with_rules("[1,2,5,10]");
    let mut documents = vec![
        with_rules("[1,2,0,10]"),  // count 0
        with_rules("[1,2,11,10]"), // count > total
        with_rules("[1,2,0,0]"),   // total 0
        with_rules("[1,2,5,101]"), // total > n_tuples
        with_rules("[1,2,41,50]"), // count > group_total
        with_rules("[1,2,5]"),     // arity 3
        with_rules("[1,2,5,10,0]"),
        with_rules("[]"),
        with_rules("[1.5,2,5,10]"), // non-integers
        with_rules("[1,2,5.25,10]"),
        with_rules(r#"[1,2,"5",10]"#),
        with_rules("[1,2,null,10]"),
        with_rules("[-1,2,5,10]"),
        with_rules("[1,2,5,1e300]"),
        with_rules("7"),
        format!(r#"{{{HEAD},"rules":[],"clusters":[[1,2,3]]}}"#),
        format!(r#"{{{HEAD},"rules":[],"clusters":[[3,2,1,4]]}}"#),
        format!(r#"{{{HEAD},"rules":{{}}}}"#),
        r#"{"epoch":0,"group":0.5,"n_tuples":100,"group_total":40,"rules":[]}"#.to_string(),
        r#"{"epoch":0,"group":0,"n_tuples":"100","group_total":40,"rules":[]}"#.to_string(),
        r#"{"epoch":0,"group":0,"n_tuples":10,"group_total":40,"rules":[]}"#.to_string(),
    ];
    // Each member missing in turn: `n_tuples` and `group_total` among
    // them.
    for key in ["epoch", "group", "n_tuples", "group_total", "rules"] {
        let tree = jsonio::parse(&well_formed).unwrap();
        let Json::Obj(pairs) = tree else { unreachable!() };
        let kept = pairs.into_iter().filter(|(k, _)| k != key).collect();
        documents.push(Json::Obj(kept).to_string());
    }
    // An old-shape result, whose rules are objects of float measures: as
    // the previous format printed it, and with the new header added.
    let old_rule = r#"{"x":1,"y":2,"group":0,"support":0.05,"confidence":0.5,"count":5,"lift":1.25,"leverage":0.01}"#;
    documents.push(format!(r#"{{"epoch":0,"rules":[{old_rule}],"coarsening_steps":0}}"#));
    documents.push(with_rules(old_rule));

    let reply =
        |result: &str| format!(r#"{{"ok":true,"result":{result},"cache_hit":false,"retries":0}}"#);
    let outcome = read_query_reply(&reply(&well_formed)).unwrap();
    assert_eq!(tree_decode(&reply(&well_formed)).unwrap(), outcome);
    assert_eq!(outcome.result.rules, vec![BinnedRule::from_counts(1, 2, 0, 5, 10, 100, 40)]);
    // A result that still carries the retired `coarsening_steps` member
    // reads the same through both decoders.
    let older = reply(&format!(r#"{{{HEAD},"rules":[[1,2,5,10]],"coarsening_steps":0}}"#));
    assert_eq!(read_query_reply(&older).unwrap(), outcome);
    assert_eq!(tree_decode(&older).unwrap(), outcome);
    for document in documents {
        let text = reply(&document);
        for (decoder, decoded) in
            [("direct", read_query_reply(&text)), ("tree", tree_decode(&text))]
        {
            match decoded {
                Err(err) => assert_eq!(err.code, CODE_PROTOCOL, "{decoder} on {document}: {err}"),
                Ok(outcome) => panic!("{decoder} accepted {document}: {:?}", outcome.result),
            }
        }
    }
}
