//! The canonical request schema shared by library, wire, and CLI.
//!
//! [`Request`] is the one serde-able shape of a query
//! ([`Request::to_json`] / [`Request::from_json`]): the daemon's wire
//! protocol, the CLI client and the library all carry it, so the wire
//! payload *is* the request. It names a criterion group by its label,
//! explicit thresholds, an optional [`ClusterSpec`] and a deadline, and
//! each of these means the same at every front door.
//!
//! [`ClusterSpec`] has one canonical encoding,
//! `{"smoothing":{"passes":P},"bitop":{"min_area_fraction":F}}`
//! ([`ClusterSpec::to_json`] / [`ClusterSpec::from_json`] /
//! [`ClusterSpec::cache_token`]), used by both the result cache key and
//! the wire payload, with round-trip tests so the two can never drift
//! from the library structs. It deliberately **excludes**
//! [`BitOpConfig::threads`]: the engine guarantees bit-identical results
//! at any thread count, so the thread count is an execution knob, not
//! part of a query's identity. Both decoders ignore unknown keys, so a
//! payload that still names a setting which is now a constant (the
//! smoothing kernel, threshold or border mode, the BitOp cell floor or
//! cluster cap) or a per-request memory budget, which earlier clients
//! could send, decodes with that key dropped.
//!
//! Two narrower shapes remain beside it. [`SegmentRequest`] binds the
//! attributes when a session is opened, and [`QueryRequest`] is what the
//! serving core runs once the group is resolved to a code
//! ([`Request::to_query_request`]). Both stay public because downstream
//! code, the benchmark among it, builds them directly. A label becomes a
//! code in one place, [`group_code`].
//!
//! Entry points over a `Request`: [`crate::serve::Server::query_unified`]
//! for the serving core and [`crate::session::Session::query`] for an
//! owned session. Both end in the same query body, `serve::answer`, and
//! both require explicit thresholds: the threshold search is
//! [`crate::session::Session::segment`].
//!
//! [`SegmentRequest`]: crate::session::SegmentRequest

use std::time::Duration;

use crate::bitop::BitOpConfig;
use crate::cluster::Rect;
use crate::engine::{BinnedRule, Thresholds};
use crate::error::ArcsError;
use crate::jsonio::{exact_u64, obj, write_number, Json, Kind, Reader};
use crate::serve::{ClusterSpec, QueryRequest, QueryResult};
use crate::smooth::SmoothConfig;

fn bad(message: impl Into<String>) -> ArcsError {
    ArcsError::InvalidConfig(message.into())
}

/// The code of the criterion group labelled `label`: its index in
/// `labels`, the criterion attribute's labels in code order. Every front
/// door resolves a group name here; an unknown label is
/// [`ArcsError::UnknownGroup`].
pub fn group_code(labels: &[String], label: &str) -> Result<u32, ArcsError> {
    labels
        .iter()
        .position(|l| l == label)
        .map(|p| p as u32)
        .ok_or_else(|| ArcsError::UnknownGroup(label.to_string()))
}

/// One query — the canonical shape shared by the library entry points,
/// the daemon wire protocol, and the CLI.
///
/// Every field is optional: a session falls back to the group it was
/// opened with, while the serving core needs `group`; both need
/// `thresholds` ([`Request::to_query_request`] states what the serving
/// core requires). `cluster` and `deadline` refine either alike.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Request {
    /// The label of the criterion group to mine.
    pub group: Option<String>,
    /// Explicit thresholds. Both [`Session::query`] and the serving core
    /// refuse a request without them: the threshold search is
    /// [`Session::segment`], and has no wire op yet.
    ///
    /// [`Session::query`]: crate::session::Session::query
    /// [`Session::segment`]: crate::session::Session::segment
    pub thresholds: Option<Thresholds>,
    /// When set, also smooth + cluster the rule grid.
    pub cluster: Option<ClusterSpec>,
    /// Per-request deadline, checked before mining and before
    /// clustering (and, by the serving core, at admission).
    pub deadline: Option<Duration>,
}

impl Request {
    /// An empty request; chain builders to fill it in.
    pub fn new() -> Self {
        Request::default()
    }

    /// Targets a criterion group by label.
    pub fn group(mut self, label: impl Into<String>) -> Self {
        self.group = Some(label.into());
        self
    }

    /// Mines at explicit thresholds instead of searching.
    pub fn thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }

    /// Also smooth + cluster with `spec`.
    pub fn cluster(mut self, spec: ClusterSpec) -> Self {
        self.cluster = Some(spec);
        self
    }

    /// Sets the per-request deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Lowers to the serving core's [`QueryRequest`], resolving the group
    /// label against `labels` ([`group_code`]). Requires `group` and
    /// `thresholds`.
    pub fn to_query_request(&self, labels: &[String]) -> Result<QueryRequest, ArcsError> {
        let group = self.group.as_deref().ok_or_else(|| bad("request names no group"))?;
        let thresholds = self
            .thresholds
            .ok_or_else(|| bad("request has no thresholds (required for serving queries)"))?;
        let mut query = QueryRequest::new(group_code(labels, group)?, thresholds);
        query.cluster = self.cluster.clone();
        query.deadline = self.deadline;
        Ok(query)
    }

    // -- the canonical JSON encoding ---------------------------------------

    /// Serializes to the canonical JSON object (the wire payload shape).
    /// Absent fields are omitted, so the encoding is minimal and stable.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        if let Some(label) = &self.group {
            pairs.push(("group", obj(vec![("label", Json::Str(label.clone()))])));
        }
        if let Some(t) = self.thresholds {
            pairs.push(("thresholds", thresholds_to_json(t)));
        }
        if let Some(spec) = &self.cluster {
            pairs.push(("cluster", spec.to_json()));
        }
        if let Some(deadline) = self.deadline {
            // Whole milliseconds, rounded up: a nonzero deadline must not
            // arrive as an already-expired `0`.
            let millis = deadline.as_nanos().div_ceil(1_000_000);
            pairs.push(("deadline_ms", Json::Num(millis as f64)));
        }
        obj(pairs)
    }

    /// Decodes the canonical JSON object. Unknown keys are ignored
    /// (forward compatibility); known keys with wrong types, invalid
    /// threshold ranges, or a group that is not `{"label": L}` (a group
    /// named by `code` among them) are typed [`ArcsError::InvalidConfig`]
    /// errors.
    pub fn from_json(json: &Json) -> Result<Self, ArcsError> {
        if !matches!(json, Json::Obj(_)) {
            return Err(bad("request must be a JSON object"));
        }
        let group = match json.get("group") {
            None => None,
            Some(g) if g.get("code").is_some() => {
                return Err(bad("group.code is not accepted: name the group by its `label`"));
            }
            Some(g) => Some(
                g.get("label")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("group.label must be a string"))?
                    .to_string(),
            ),
        };
        let thresholds = json.get("thresholds").map(thresholds_from_json).transpose()?;
        let cluster = json.get("cluster").map(ClusterSpec::from_json).transpose()?;
        let deadline = match json.get("deadline_ms") {
            None => None,
            Some(ms) => Some(Duration::from_millis(
                ms.as_u64().ok_or_else(|| bad("deadline_ms must be a non-negative integer"))?,
            )),
        };
        Ok(Request { group, thresholds, cluster, deadline })
    }
}

fn require_f64(json: &Json, key: &str, what: &str) -> Result<f64, ArcsError> {
    number(json.get(key).and_then(Json::as_f64), what)
}

fn require_usize(json: &Json, key: &str, what: &str) -> Result<usize, ArcsError> {
    index(json.get(key).and_then(Json::as_f64), what)
}

/// Canonical JSON for [`Thresholds`] (`{"min_support", "min_confidence"}`).
fn thresholds_to_json(t: Thresholds) -> Json {
    obj(vec![
        ("min_support", Json::Num(t.min_support)),
        ("min_confidence", Json::Num(t.min_confidence)),
    ])
}

/// Decodes [`Thresholds`] from canonical JSON, re-validating the `[0, 1]`
/// ranges through [`Thresholds::new`].
fn thresholds_from_json(json: &Json) -> Result<Thresholds, ArcsError> {
    Thresholds::new(
        require_f64(json, "min_support", "thresholds.min_support")?,
        require_f64(json, "min_confidence", "thresholds.min_confidence")?,
    )
}

impl ClusterSpec {
    /// The canonical JSON encoding of this spec,
    /// `{"smoothing":{"passes":P},"bitop":{"min_area_fraction":F}}` — the
    /// **single conversion point** shared by wire payloads and the serving
    /// cache key, so the two can never drift. [`BitOpConfig::threads`] is
    /// excluded: results are bit-identical at any thread count, so it is
    /// not part of a query's identity.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("smoothing", obj(vec![("passes", Json::Num(self.smoothing.passes as f64))])),
            ("bitop", obj(vec![("min_area_fraction", Json::Num(self.bitop.min_area_fraction))])),
        ])
    }

    /// Decodes a spec from canonical JSON. Unknown keys are ignored, as
    /// [`Request::from_json`] ignores them, so a payload that still
    /// carries the smoothing kernel, threshold or border mode, or the
    /// BitOp cell floor or cluster cap, decodes with those keys dropped.
    /// The thread count (not part of the encoding) comes back as the local
    /// default — an execution choice of the decoding host, never of the
    /// wire.
    pub fn from_json(json: &Json) -> Result<Self, ArcsError> {
        let smoothing =
            json.get("smoothing").ok_or_else(|| bad("cluster spec missing `smoothing`"))?;
        let bitop = json.get("bitop").ok_or_else(|| bad("cluster spec missing `bitop`"))?;
        Ok(ClusterSpec {
            smoothing: SmoothConfig {
                passes: require_usize(smoothing, "passes", "smoothing.passes")?,
            },
            bitop: BitOpConfig {
                min_area_fraction: require_f64(
                    bitop,
                    "min_area_fraction",
                    "bitop.min_area_fraction",
                )?,
                ..BitOpConfig::default()
            },
        })
    }

    /// The spec's identity as a compact string — the serving cache keys
    /// cluster configurations by this token, which is exactly the
    /// canonical JSON rendering, so a cache key and a wire payload always
    /// agree on what a configuration *is*.
    pub fn cache_token(&self) -> String {
        self.to_json().to_string()
    }
}

/// Canonical JSON for a served [`QueryResult`] — the response payload
/// shape shared by the daemon and the CLI client. It holds integers only:
///
/// ```text
/// {"epoch":E,"group":G,"n_tuples":N,"group_total":T,
///  "rules":[[x,y,count,total],…],"clusters":[[x0,y0,x1,y1],…]}
/// ```
///
/// with `clusters` present only when the query clustered. A rule's
/// measures are not printed: the decoders rebuild each rule from its
/// counts through [`BinnedRule::from_counts`], the constructor the miner
/// built it with. The tree form of [`write_query_result`], which prints the
/// same text without building it; kept as the reference the codec tests
/// compare against.
pub fn query_result_to_json(result: &QueryResult) -> Json {
    let quads = |quads: &mut dyn Iterator<Item = [u64; 4]>| {
        Json::Arr(quads.map(|quad| Json::Arr(quad.map(|v| Json::Num(v as f64)).into())).collect())
    };
    let mut pairs = vec![
        ("epoch", Json::Num(result.epoch as f64)),
        ("group", Json::Num(result.group as f64)),
        ("n_tuples", Json::Num(result.n_tuples as f64)),
        ("group_total", Json::Num(result.group_total as f64)),
        ("rules", quads(&mut result.rules.iter().map(rule_quad))),
    ];
    if let Some(clusters) = &result.clusters {
        pairs.push(("clusters", quads(&mut clusters.iter().map(rect_quad))));
    }
    obj(pairs)
}

/// Decodes a [`QueryResult`] from its canonical JSON, rebuilding every
/// rule from its counts, so a decoded result compares `==` against the
/// in-process original — the property the daemon's end-to-end oracle test
/// rests on. A document that is not in this shape, such as one whose rules
/// are objects of float measures, is an [`ArcsError::InvalidConfig`]; so
/// are counts no bin array could hold: `group_total > n_tuples`, or a rule
/// outside `1 <= count <= total <= n_tuples` and `count <= group_total`.
/// The tree form of [`read_query_result`].
pub fn query_result_from_json(json: &Json) -> Result<QueryResult, ArcsError> {
    let number = |key: &str| json.get(key).and_then(Json::as_f64);
    let rules = json
        .get("rules")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("result missing `rules` array"))?
        .iter()
        .map(|r| cell(quad(r, "rule")?))
        .collect::<Result<Vec<_>, ArcsError>>()?;
    let clusters = match json.get("clusters") {
        None => None,
        Some(c) => Some(
            c.as_arr()
                .ok_or_else(|| bad("`clusters` must be an array"))?
                .iter()
                .map(|r| rect(quad(r, "cluster")?))
                .collect::<Result<Vec<_>, ArcsError>>()?,
        ),
    };
    ResultMembers {
        epoch: number("epoch"),
        group: number("group"),
        n_tuples: number("n_tuples"),
        group_total: number("group_total"),
        rules,
        clusters,
    }
    .into_result()
}

/// Appends the canonical JSON of `result`: the text
/// `query_result_to_json(result).to_string()` prints, written without the
/// tree. Every number goes through [`write_number`], as the tree's do.
pub fn write_query_result(result: &QueryResult, out: &mut String) {
    for (i, (key, value)) in [
        ("epoch", result.epoch),
        ("group", result.group.into()),
        ("n_tuples", result.n_tuples),
        ("group_total", result.group_total),
    ]
    .into_iter()
    .enumerate()
    {
        out.push_str(if i == 0 { "{\"" } else { ",\"" });
        out.push_str(key);
        out.push_str("\":");
        write_number(value as f64, out);
    }
    out.push_str(",\"rules\":");
    write_quads(result.rules.iter().map(rule_quad), out);
    if let Some(clusters) = &result.clusters {
        out.push_str(",\"clusters\":");
        write_quads(clusters.iter().map(rect_quad), out);
    }
    out.push('}');
}

/// A rule's entry in the result document: `[x, y, count, total]`.
fn rule_quad(rule: &BinnedRule) -> [u64; 4] {
    [rule.x as u64, rule.y as u64, rule.count.into(), rule.total.into()]
}

/// A cluster's entry in the result document: `[x0, y0, x1, y1]`.
fn rect_quad(rect: &Rect) -> [u64; 4] {
    [rect.x0 as u64, rect.y0 as u64, rect.x1 as u64, rect.y1 as u64]
}

/// Writes an array of integer quadruples.
fn write_quads(quads: impl Iterator<Item = [u64; 4]>, out: &mut String) {
    out.push('[');
    for (i, quad) in quads.enumerate() {
        out.push_str(if i == 0 { "[" } else { ",[" });
        for (j, value) in quad.into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_number(value as f64, out);
        }
        out.push(']');
    }
    out.push(']');
}

/// Reads a [`QueryResult`] object from `reader`, accepting exactly what
/// [`query_result_from_json`] accepts without building a tree: members in
/// any order, unknown members skipped, and of a repeated key the first
/// occurrence, as `Json::get` finds it.
pub fn read_query_result(reader: &mut Reader<'_>) -> Result<QueryResult, ArcsError> {
    let (mut epoch, mut group, mut n_tuples, mut group_total) = (None, None, None, None);
    let (mut rules, mut clusters) = (None, None);
    reader.begin_object()?;
    while let Some(key) = reader.key()? {
        match &*key {
            "epoch" => read_first_number(reader, &mut epoch)?,
            "group" => read_first_number(reader, &mut group)?,
            "n_tuples" => read_first_number(reader, &mut n_tuples)?,
            "group_total" => read_first_number(reader, &mut group_total)?,
            "rules" if rules.is_none() => {
                rules = Some(read_quads(reader, "result missing `rules` array", "rule", cell)?);
            }
            "clusters" if clusters.is_none() => {
                clusters =
                    Some(read_quads(reader, "`clusters` must be an array", "cluster", rect)?);
            }
            _ => reader.skip_value()?,
        }
    }
    ResultMembers {
        epoch: epoch.flatten(),
        group: group.flatten(),
        n_tuples: n_tuples.flatten(),
        group_total: group_total.flatten(),
        rules: rules.ok_or_else(|| bad("result missing `rules` array"))?,
        clusters,
    }
    .into_result()
}

/// Reads a member's value into `slot` if it is the key's first occurrence:
/// `Some(None)` when it is not a number, what `Json::get` and
/// `Json::as_f64` would give. A later occurrence is skipped.
fn read_first_number(
    reader: &mut Reader<'_>,
    slot: &mut Option<Option<f64>>,
) -> Result<(), ArcsError> {
    if slot.is_some() {
        return Ok(reader.skip_value()?);
    }
    *slot = Some(reader.read_if(Kind::Num, Reader::number)?);
    Ok(())
}

/// Reads an array of integer quadruples, converting each with `convert`.
fn read_quads<T>(
    reader: &mut Reader<'_>,
    not_an_array: &str,
    what: &str,
    convert: fn([Option<f64>; 4]) -> Result<T, ArcsError>,
) -> Result<Vec<T>, ArcsError> {
    begin_array(reader, not_an_array)?;
    let mut list = Vec::new();
    while reader.next_element()? {
        if reader.kind()? != Kind::Arr {
            return Err(not_a_quad(what));
        }
        reader.begin_array()?;
        let mut values = [None; 4];
        let mut len = 0;
        while reader.next_element()? {
            let value = reader.read_if(Kind::Num, Reader::number)?;
            if let Some(slot) = values.get_mut(len) {
                *slot = value;
            }
            len += 1;
        }
        if len != values.len() {
            return Err(not_a_quad(what));
        }
        list.push(convert(values)?);
    }
    Ok(list)
}

/// A tree array of four members as [`read_quads`] reads one: each `None`
/// when it is not a number.
fn quad(json: &Json, what: &str) -> Result<[Option<f64>; 4], ArcsError> {
    match json.as_arr() {
        Some([a, b, c, d]) => Ok([a.as_f64(), b.as_f64(), c.as_f64(), d.as_f64()]),
        _ => Err(not_a_quad(what)),
    }
}

fn not_a_quad(what: &str) -> ArcsError {
    bad(format!("{what} must be an array of four integers"))
}

/// A rule's `[x, y, count, total]`, before it is checked against the
/// document's totals.
type Cell = (usize, usize, u32, u32);

fn cell([x, y, count, total]: [Option<f64>; 4]) -> Result<Cell, ArcsError> {
    Ok((
        index(x, "rule.x")?,
        index(y, "rule.y")?,
        index_u32(count, "rule.count")?,
        index_u32(total, "rule.total")?,
    ))
}

fn rect([x0, y0, x1, y1]: [Option<f64>; 4]) -> Result<Rect, ArcsError> {
    Rect::new(
        index(x0, "cluster.x0")?,
        index(y0, "cluster.y0")?,
        index(x1, "cluster.x1")?,
        index(y1, "cluster.y1")?,
    )
}

/// A result document's members as both decoders find them: each number
/// `None` when absent or not a number, each rule as its [`Cell`].
struct ResultMembers {
    epoch: Option<f64>,
    group: Option<f64>,
    n_tuples: Option<f64>,
    group_total: Option<f64>,
    rules: Vec<Cell>,
    clusters: Option<Vec<Rect>>,
}

impl ResultMembers {
    /// Checks the counts and rebuilds every rule with
    /// [`BinnedRule::from_counts`]. The counts must be ones a bin array
    /// can hold: `group_total <= n_tuples`, and for every rule
    /// `1 <= count <= total <= n_tuples` and `count <= group_total`. So a
    /// decoded rule is never built from a zero or inverted ratio.
    fn into_result(self) -> Result<QueryResult, ArcsError> {
        let epoch = self.epoch.and_then(exact_u64).ok_or_else(|| bad("result missing `epoch`"))?;
        let group = index_u32(self.group, "group")?;
        let n_tuples = integer(self.n_tuples, "n_tuples")?;
        let group_total = integer(self.group_total, "group_total")?;
        if group_total > n_tuples {
            return Err(bad(format!("group_total {group_total} exceeds n_tuples {n_tuples}")));
        }
        let rules = self
            .rules
            .into_iter()
            .map(|(x, y, count, total)| {
                if count == 0 || count > total {
                    return Err(bad(format!(
                        "rule ({x}, {y}) has count {count} outside 1..={total}, its cell total"
                    )));
                }
                if u64::from(total) > n_tuples || u64::from(count) > group_total {
                    return Err(bad(format!(
                        "rule ({x}, {y}) counts {count} of {total} exceed the result's \
                         totals ({group_total} of {n_tuples})"
                    )));
                }
                Ok(BinnedRule::from_counts(x, y, group, count, total, n_tuples, group_total))
            })
            .collect::<Result<Vec<_>, ArcsError>>()?;
        Ok(QueryResult { epoch, group, n_tuples, group_total, rules, clusters: self.clusters })
    }
}

fn begin_array(reader: &mut Reader<'_>, message: &str) -> Result<(), ArcsError> {
    if reader.kind()? != Kind::Arr {
        return Err(bad(message));
    }
    Ok(reader.begin_array()?)
}

/// A member's number, or the error naming `what` when it is absent or not
/// a number.
fn number(n: Option<f64>, what: &str) -> Result<f64, ArcsError> {
    n.ok_or_else(|| bad(format!("{what} must be a number")))
}

/// A member's number as a non-negative integer an `f64` holds exactly.
fn integer(n: Option<f64>, what: &str) -> Result<u64, ArcsError> {
    n.and_then(exact_u64).ok_or_else(|| bad(format!("{what} must be a non-negative integer")))
}

/// [`integer`] as a `usize`.
fn index(n: Option<f64>, what: &str) -> Result<usize, ArcsError> {
    usize::try_from(integer(n, what)?)
        .map_err(|_| bad(format!("{what} must be a non-negative integer")))
}

/// [`index`] narrowed to a `u32`: a larger value is an error, not a
/// truncation.
fn index_u32(n: Option<f64>, what: &str) -> Result<u32, ArcsError> {
    let n = index(n, what)?;
    u32::try_from(n).map_err(|_| bad(format!("{what} {n} does not fit in a u32")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_request() -> Request {
        Request::new()
            .group("excellent")
            .thresholds(Thresholds::new(0.017, 0.53).unwrap())
            .cluster(ClusterSpec {
                smoothing: SmoothConfig { passes: 2 },
                bitop: BitOpConfig { min_area_fraction: 0.013, threads: 4 },
            })
            .deadline(Duration::from_millis(250))
    }

    #[test]
    fn request_round_trips_through_json() {
        let request = full_request();
        let text = request.to_json().to_string();
        let back = Request::from_json(&crate::jsonio::parse(&text).unwrap()).unwrap();
        // Everything except the (deliberately non-wire) thread count
        // round-trips; compare with threads normalised.
        let mut normalised = request.clone();
        if let Some(spec) = &mut normalised.cluster {
            spec.bitop.threads = BitOpConfig::default().threads;
        }
        assert_eq!(back, normalised);

        // A sub-millisecond deadline rounds up to 1 ms, never down to an
        // already-expired 0; whole milliseconds stay exact.
        for (deadline, wire) in [
            (Duration::from_micros(500), Duration::from_millis(1)),
            (Duration::from_nanos(1), Duration::from_millis(1)),
            (Duration::from_micros(1_001), Duration::from_millis(2)),
            (Duration::ZERO, Duration::ZERO),
        ] {
            let text = Request::new().deadline(deadline).to_json().to_string();
            let back = Request::from_json(&crate::jsonio::parse(&text).unwrap()).unwrap();
            assert_eq!(back.deadline, Some(wire), "{deadline:?} -> {text}");
        }
    }

    #[test]
    fn minimal_request_round_trips() {
        let request = Request::new().group("A").thresholds(Thresholds::new(0.0, 0.0).unwrap());
        let text = request.to_json().to_string();
        assert_eq!(
            text,
            r#"{"group":{"label":"A"},"thresholds":{"min_support":0,"min_confidence":0}}"#
        );
        let back = Request::from_json(&crate::jsonio::parse(&text).unwrap()).unwrap();
        assert_eq!(back, request);
        assert!(back.cluster.is_none());

        // Unknown keys are ignored, such as the `attrs` binding and the
        // per-request memory budget older clients still send.
        for older in [
            r#"{"attrs": {"x": "a"}, "group": {"label": "A"}}"#,
            r#"{"memory_budget": 1048576, "group": {"label": "A"}}"#,
        ] {
            let older = crate::jsonio::parse(older).unwrap();
            assert_eq!(Request::from_json(&older).unwrap(), Request::new().group("A"));
        }
        // So are the cluster-spec keys that are now constants.
        let older = crate::jsonio::parse(
            r#"{"cluster": {"smoothing": {"kernel": "box3", "threshold": 0.4, "passes": 1, "border": "full_kernel"}, "bitop": {"min_area_fraction": 0.01, "min_area_cells": 1, "max_clusters": 10000}}}"#,
        )
        .unwrap();
        assert_eq!(
            Request::from_json(&older).unwrap(),
            Request::new().cluster(ClusterSpec::default())
        );
    }

    #[test]
    fn cluster_spec_cache_token_ignores_threads_but_nothing_else() {
        let base = ClusterSpec::default();
        let mut threads_differ = base.clone();
        threads_differ.bitop.threads = base.bitop.threads + 7;
        assert_eq!(base.cache_token(), threads_differ.cache_token());

        // Every canonical field must perturb the token.
        let mut m = base.clone();
        m.smoothing.passes += 1;
        assert_ne!(base.cache_token(), m.cache_token());
        let mut m = base.clone();
        m.bitop.min_area_fraction += 1e-12;
        assert_ne!(base.cache_token(), m.cache_token());
        assert_eq!(
            base.cache_token(),
            r#"{"smoothing":{"passes":1},"bitop":{"min_area_fraction":0.01}}"#
        );
    }

    #[test]
    fn cluster_spec_round_trips_and_token_matches_wire_payload() {
        let spec = full_request().cluster.unwrap();
        let wire = spec.to_json().to_string();
        let back = ClusterSpec::from_json(&crate::jsonio::parse(&wire).unwrap()).unwrap();
        // The wire payload and the cache token are the same bytes — the
        // single-conversion-point guarantee.
        assert_eq!(wire, spec.cache_token());
        assert_eq!(back.cache_token(), spec.cache_token());
        assert_eq!(back.smoothing, spec.smoothing);
        assert_eq!(back.bitop.min_area_fraction, spec.bitop.min_area_fraction);
    }

    #[test]
    fn lowering_to_a_query_request() {
        let request = full_request();
        let labels = vec!["excellent".to_string(), "other".to_string()];
        let query = request.to_query_request(&labels).unwrap();
        assert_eq!(query.gk, 0);
        assert_eq!(query.thresholds, request.thresholds.unwrap());
        assert_eq!(query.deadline, request.deadline);
        assert_eq!(query.cluster, request.cluster);

        // Missing required halves are typed errors.
        assert!(Request::new().to_query_request(&labels).is_err());
        assert!(Request::new().group("x").to_query_request(&labels).is_err());
        assert!(matches!(
            Request::new()
                .group("nope")
                .thresholds(Thresholds::new(0.1, 0.1).unwrap())
                .to_query_request(&labels),
            Err(ArcsError::UnknownGroup(_))
        ));
    }

    #[test]
    fn malformed_request_json_is_a_typed_error() {
        for bad_doc in [
            "[]",
            r#"{"group": {}}"#,
            r#"{"group": {"label": 7}}"#,
            r#"{"group": {"label": "a", "code": 1}}"#,
            r#"{"group": {"code": 3}}"#,
            r#"{"group": {"code": -1}}"#,
            r#"{"thresholds": {"min_support": 2.0, "min_confidence": 0.5}}"#,
            r#"{"thresholds": {"min_support": 0.1}}"#,
            r#"{"cluster": {"smoothing": {"passes": -1}, "bitop": {"min_area_fraction": 0}}}"#,
            r#"{"cluster": {"smoothing": {"passes": 1}, "bitop": {"min_area_fraction": "x"}}}"#,
            r#"{"cluster": {"smoothing": {"passes": 1}}}"#,
            r#"{"cluster": {}}"#,
            r#"{"deadline_ms": -5}"#,
        ] {
            let parsed = crate::jsonio::parse(bad_doc).unwrap();
            assert!(
                matches!(Request::from_json(&parsed), Err(ArcsError::InvalidConfig(_))),
                "should reject {bad_doc}"
            );
        }
    }

    fn demo_result() -> QueryResult {
        let (n_tuples, group_total) = (3_000, 1_234);
        QueryResult {
            epoch: 3,
            group: 1,
            n_tuples,
            group_total,
            rules: vec![
                BinnedRule::from_counts(2, 5, 1, 41, 97, n_tuples, group_total),
                BinnedRule::from_counts(3, 5, 1, 7, 7, n_tuples, group_total),
            ],
            clusters: Some(vec![Rect::new(1, 2, 3, 4).unwrap()]),
        }
    }

    /// Both decoders of `text`, which must agree.
    fn decode_both(text: &str) -> Result<QueryResult, ArcsError> {
        let tree = query_result_from_json(&crate::jsonio::parse(text).unwrap());
        let mut reader = Reader::new(text);
        let direct = read_query_result(&mut reader);
        match (&tree, &direct) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{text}"),
            (Err(ArcsError::InvalidConfig(_)), Err(ArcsError::InvalidConfig(_))) => {}
            _ => panic!("decoders disagree on {text}: tree {tree:?}, direct {direct:?}"),
        }
        tree
    }

    #[test]
    fn query_results_round_trip_bit_identically() {
        let result = demo_result();
        let no_clusters = QueryResult { clusters: None, ..result.clone() };
        let empty = QueryResult { rules: Vec::new(), clusters: Some(Vec::new()), ..result.clone() };
        for case in [result, no_clusters, empty] {
            let text = query_result_to_json(&case).to_string();
            assert_eq!(decode_both(&text).unwrap(), case);
            // The direct codec prints the tree's text.
            let mut direct = String::new();
            write_query_result(&case, &mut direct);
            assert_eq!(direct, text);
        }
    }

    #[test]
    fn result_documents_hold_counts_only() {
        let mut text = String::new();
        write_query_result(&demo_result(), &mut text);
        assert_eq!(
            text,
            r#"{"epoch":3,"group":1,"n_tuples":3000,"group_total":1234,"rules":[[2,5,41,97],[3,5,7,7]],"clusters":[[1,2,3,4]]}"#
        );
    }

    #[test]
    fn out_of_range_integers_are_errors() {
        let doc = |group: &str, count: &str| {
            format!(
                r#"{{"epoch":1,"group":{group},"n_tuples":9007199254740992,"group_total":9007199254740992,"rules":[[1,2,{count},{count}]]}}"#
            )
        };
        assert!(decode_both(&doc("0", "7")).is_ok());
        assert!(decode_both(&doc("0", "4294967295")).is_ok());
        for text in [doc("0", "4294967296"), doc("4294967296", "7")] {
            assert!(decode_both(&text).is_err(), "{text}");
        }
    }

    /// Counts no bin array could hold are typed errors in both decoders,
    /// never a rule with a zero, infinite or NaN ratio.
    #[test]
    fn impossible_counts_are_errors() {
        let doc = |n: u64, gt: u64, rule: &str| {
            format!(r#"{{"epoch":0,"group":0,"n_tuples":{n},"group_total":{gt},"rules":[{rule}]}}"#)
        };
        assert!(decode_both(&doc(10, 5, "[0,0,5,10]")).is_ok());
        for text in [
            doc(10, 5, "[0,0,0,3]"),  // count 0
            doc(10, 5, "[0,0,4,3]"),  // count > total
            doc(10, 5, "[0,0,0,0]"),  // total 0
            doc(10, 5, "[0,0,3,11]"), // total > n_tuples
            doc(10, 5, "[0,0,6,8]"),  // count > group_total
            doc(4, 5, "[0,0,1,1]"),   // group_total > n_tuples
            doc(0, 0, "[0,0,1,1]"),   // rules of an empty array
        ] {
            assert!(decode_both(&text).is_err(), "{text}");
        }
    }
}
