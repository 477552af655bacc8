//! Line-delimited JSON framing for the query daemon.
//!
//! One request per line, one response per line, in request order. The
//! response writer renders fields in a *fixed* order with the vendored
//! `serde_json` float format, so equal answers are equal bytes — the
//! property the identity suite and the CI smoke diff pin.
//!
//! Request grammar (`id` is echoed; unknown fields are ignored):
//!
//! ```json
//! {"id":1,"op":"whatif","policy":"aheft","add":[[...column...]],"remove":[3]}
//! {"id":2,"op":"place","policy":"aheft","job":17}
//! {"id":3,"op":"replan","policy":"aheft"}
//! {"id":4,"op":"delta","event":"finished","job":5,"resource":2,"time":510.0}
//! {"id":5,"op":"delta","event":"joined","column":[...]}
//! {"id":6,"op":"delta","event":"left","resource":1}
//! {"id":7,"op":"delta","event":"clock","clock":520.0}
//! {"id":8,"op":"info"}
//! {"id":9,"op":"stats"}
//! ```
//!
//! Responses: `{"id":N,"ok":true,...}` or `{"id":N,"ok":false,"error":"…"}`.
//! `stats` answers with the current `version`, then the engine-lifetime
//! counters: `requests` (an object of per-op counts: `whatif`, `place`,
//! `replan`, `delta`, `info`, `stats`), cache `hits` and `misses`, current
//! cache `entries`, AHEFT `passes` run, `deltas` applied and `ok:false`
//! answers (`errors`).

use aheft_workflow::{JobId, ResourceId};
use serde::Value;

use crate::scenario::Delta;

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// Request operations.
#[derive(Debug, Clone)]
pub enum Op {
    /// Evaluate a hypothetical pool change under a named planned policy.
    WhatIf {
        /// Planned policy name (default `"aheft"`).
        policy: String,
        /// Cost columns of hypothetical new resources.
        add: Vec<Vec<f64>>,
        /// Resources leaving the hypothetical pool.
        remove: Vec<ResourceId>,
    },
    /// Report the planned `(resource, start, eft)` of one job.
    Place {
        /// Planned policy name (default `"aheft"`).
        policy: String,
        /// The job to look up.
        job: JobId,
    },
    /// Report the predicted makespan and an assignment fingerprint of the
    /// plan on the current pool.
    Replan {
        /// Planned policy name (default `"aheft"`).
        policy: String,
    },
    /// Mutate the scenario (barrier: later queries see the new version).
    Delta(Delta),
    /// Report the current scenario dimensions.
    Info,
    /// Report the engine's counters (barrier, never cached).
    Stats,
}

impl Request {
    /// Parse one request line. Errors are human-readable and end up in an
    /// `"ok":false` response carrying the line's id when one was readable.
    pub fn parse(line: &str) -> Result<Request, (u64, String)> {
        let v: Value = serde_json::from_str(line).map_err(|e| (0, format!("parse error: {e}")))?;
        let id = as_u64(v.field("id")).unwrap_or(0);
        let fail = |msg: String| (id, msg);
        let op_name =
            v.field("op").as_str().ok_or_else(|| fail("missing or non-string `op`".to_string()))?;
        let policy = || match v.field("policy") {
            Value::Null => Ok("aheft".to_string()),
            other => other
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| fail("`policy` must be a string".to_string())),
        };
        let op = match op_name {
            "whatif" => {
                let add = match v.field("add") {
                    Value::Null => Vec::new(),
                    other => columns(other).map_err(fail)?,
                };
                let remove = match v.field("remove") {
                    Value::Null => Vec::new(),
                    other => id_list(other).map_err(fail)?,
                };
                Op::WhatIf { policy: policy()?, add, remove }
            }
            "place" => {
                let job = parse_id(v.field("job"), "job").map_err(fail)?;
                Op::Place { policy: policy()?, job: JobId(job) }
            }
            "replan" => Op::Replan { policy: policy()? },
            "delta" => Op::Delta(parse_delta(&v).map_err(fail)?),
            "info" => Op::Info,
            "stats" => Op::Stats,
            other => return Err(fail(format!("unknown op {other:?}"))),
        };
        Ok(Request { id, op })
    }
}

fn parse_delta(v: &Value) -> Result<Delta, String> {
    let event =
        v.field("event").as_str().ok_or_else(|| "missing or non-string `event`".to_string())?;
    match event {
        "finished" => {
            let job = parse_id(v.field("job"), "job")?;
            let resource = parse_id(v.field("resource"), "resource")?;
            let time = as_f64(v.field("time"))
                .ok_or_else(|| "`finished` needs a numeric `time`".to_string())?;
            Ok(Delta::JobFinished { job: JobId(job), resource: ResourceId(resource), time })
        }
        "joined" => {
            let column = f64_list(v.field("column"))
                .map_err(|_| "`joined` needs a numeric `column` array".to_string())?;
            Ok(Delta::ResourceJoined { column })
        }
        "left" => {
            let resource = parse_id(v.field("resource"), "resource")?;
            Ok(Delta::ResourceLeft { resource: ResourceId(resource) })
        }
        "clock" => {
            let clock = as_f64(v.field("clock"))
                .ok_or_else(|| "`clock` needs a numeric `clock`".to_string())?;
            Ok(Delta::AdvanceClock { clock })
        }
        other => Err(format!("unknown delta event {other:?}")),
    }
}

/// Read the job or resource id in field `field`. Ids are dense `u32`
/// indices, so a value of 2^32 or more is an error here instead of a
/// silent wrap onto a low id.
fn parse_id(v: &Value, field: &str) -> Result<u32, String> {
    let n = as_u64(v).ok_or_else(|| format!("`{field}` must be a non-negative integer id"))?;
    u32::try_from(n).map_err(|_| format!("`{field}` id {n} is out of range (ids are below 2^32)"))
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => Some(*f as u64),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

fn f64_list(v: &Value) -> Result<Vec<f64>, ()> {
    let items = v.as_seq().ok_or(())?;
    items.iter().map(|x| as_f64(x).ok_or(())).collect()
}

fn columns(v: &Value) -> Result<Vec<Vec<f64>>, String> {
    let items = v.as_seq().ok_or_else(|| "`add` must be an array of columns".to_string())?;
    items
        .iter()
        .map(|col| f64_list(col).map_err(|()| "`add` columns must be numeric arrays".to_string()))
        .collect()
}

fn id_list(v: &Value) -> Result<Vec<ResourceId>, String> {
    let items = v.as_seq().ok_or_else(|| "`remove` must be an array of ids".to_string())?;
    items.iter().map(|x| parse_id(x, "remove").map(ResourceId)).collect()
}

// ---------------------------------------------------------------------------
// Deterministic response rendering
// ---------------------------------------------------------------------------

/// Append `v`'s decimal digits without a heap round-trip.
// analyzer: hot
pub fn push_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

/// Append `f` in the vendored `serde_json` float format (shortest
/// round-trip, integral floats forced to `.0`, non-finite as `null`), so
/// responses and the JSON layer agree byte-for-byte.
pub fn push_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let start = out.len();
        let mut w = FmtAppend(out);
        use std::fmt::Write as _;
        let _ = write!(w, "{f}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

struct FmtAppend<'a>(&'a mut String);

impl std::fmt::Write for FmtAppend<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.push_str(s);
        Ok(())
    }
}

/// Frame a response line: `{"id":N,<tail>}\n`. The tail is everything
/// after the id field — the cacheable, id-independent part of the answer.
// analyzer: hot
pub fn push_response(out: &mut String, id: u64, tail: &str) {
    out.push_str("{\"id\":");
    push_u64(out, id);
    out.push(',');
    out.push_str(tail);
    out.push_str("}\n");
}

/// Render an `"ok":false` tail from an error message.
pub fn error_tail(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len() + 24);
    out.push_str("\"ok\":false,\"error\":");
    push_json_string(&mut out, msg);
    out
}

/// Append a JSON string literal (same escaping as the vendored writer).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(FmtAppend(out), "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Canonical cache key of a read-only [`Op`]: a pure function of the
/// query *semantics* (ids and textual float variants normalise away), so
/// two lines asking the same question share one cache entry. `None` for
/// the ops that are never cached (`delta`, `stats`).
pub fn cache_key(op: &Op) -> Option<String> {
    let mut key = String::new();
    match op {
        Op::WhatIf { policy, add, remove } => {
            key.push_str("w|");
            key.push_str(policy);
            key.push_str("|a:");
            for col in add {
                key.push('[');
                for &x in col {
                    push_f64(&mut key, x);
                    key.push(',');
                }
                key.push(']');
            }
            key.push_str("|r:");
            for r in remove {
                push_u64(&mut key, r.idx() as u64);
                key.push(',');
            }
        }
        Op::Place { policy, job } => {
            key.push_str("p|");
            key.push_str(policy);
            key.push('|');
            push_u64(&mut key, job.idx() as u64);
        }
        Op::Replan { policy } => {
            key.push_str("r|");
            key.push_str(policy);
        }
        Op::Info => key.push('i'),
        Op::Delta(_) | Op::Stats => return None,
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        let r = Request::parse(r#"{"id":1,"op":"whatif","add":[[1.0,2]],"remove":[3]}"#).unwrap();
        assert_eq!(r.id, 1);
        match r.op {
            Op::WhatIf { policy, add, remove } => {
                assert_eq!(policy, "aheft");
                assert_eq!(add, vec![vec![1.0, 2.0]]);
                assert_eq!(remove, vec![ResourceId(3)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let r = Request::parse(r#"{"id":2,"op":"place","job":17,"policy":"heft"}"#).unwrap();
        assert!(
            matches!(r.op, Op::Place { ref policy, job } if policy == "heft" && job == JobId(17))
        );
        let r = Request::parse(r#"{"id":3,"op":"replan"}"#).unwrap();
        assert!(matches!(r.op, Op::Replan { .. }));
        let r = Request::parse(
            r#"{"id":4,"op":"delta","event":"finished","job":5,"resource":2,"time":510.5}"#,
        )
        .unwrap();
        assert!(matches!(r.op, Op::Delta(Delta::JobFinished { .. })));
        let r = Request::parse(r#"{"id":5,"op":"info"}"#).unwrap();
        assert!(matches!(r.op, Op::Info));
        let r = Request::parse(r#"{"id":6,"op":"stats"}"#).unwrap();
        assert!(matches!(r.op, Op::Stats));
        assert_eq!(cache_key(&r.op), None);
    }

    #[test]
    fn parse_errors_keep_the_id_when_readable() {
        let (id, msg) = Request::parse(r#"{"id":9,"op":"bogus"}"#).unwrap_err();
        assert_eq!(id, 9);
        assert!(msg.contains("bogus"));
        let (id, _) = Request::parse("not json").unwrap_err();
        assert_eq!(id, 0);
        let (id, msg) = Request::parse(r#"{"id":4,"op":"delta","event":"nope"}"#).unwrap_err();
        assert_eq!(id, 4);
        assert!(msg.contains("nope"));
    }

    #[test]
    fn ids_of_2_pow_32_and_above_are_rejected_not_wrapped() {
        for line in [
            r#"{"id":3,"op":"place","job":4294967296}"#,
            r#"{"id":3,"op":"place","job":4.5e9}"#,
            r#"{"id":3,"op":"whatif","remove":[1,4294967296]}"#,
            r#"{"id":3,"op":"delta","event":"left","resource":4294967297}"#,
            r#"{"id":3,"op":"delta","event":"finished","job":4294967296,"resource":0,"time":1}"#,
            r#"{"id":3,"op":"delta","event":"finished","job":0,"resource":4294967296,"time":1}"#,
        ] {
            let (id, msg) = Request::parse(line).unwrap_err();
            assert_eq!(id, 3, "{line}");
            assert!(msg.contains("out of range"), "{line}: {msg}");
        }
        for line in [r#"{"id":3,"op":"place","job":-1}"#, r#"{"id":3,"op":"place","job":"7"}"#] {
            let (_, msg) = Request::parse(line).unwrap_err();
            assert!(msg.contains("non-negative integer"), "{line}: {msg}");
        }
        // The largest id still parses, to itself.
        let r = Request::parse(r#"{"id":3,"op":"place","job":4294967295}"#).unwrap();
        assert!(matches!(r.op, Op::Place { job, .. } if job == JobId(u32::MAX)));
        let r = Request::parse(r#"{"id":3,"op":"delta","event":"left","resource":4294967295}"#)
            .unwrap();
        assert!(matches!(
            r.op,
            Op::Delta(Delta::ResourceLeft { resource }) if resource == ResourceId(u32::MAX)
        ));
    }

    #[test]
    fn float_rendering_matches_vendored_serde_json() {
        for v in [0.0, 1.5, 2.0, -3.25, 1e300, 0.1 + 0.2, 87.0, f64::NAN] {
            let mut ours = String::new();
            push_f64(&mut ours, v);
            assert_eq!(ours, serde_json::to_string(&Value::F64(v)).unwrap(), "mismatch for {v}");
        }
    }

    #[test]
    fn cache_keys_normalise_textual_variants() {
        let a = Request::parse(r#"{"id":1,"op":"whatif","add":[[2.0]],"remove":[]}"#).unwrap();
        let b = Request::parse(r#"{"id":999,"op":"whatif","add":[[2]]}"#).unwrap();
        assert_eq!(cache_key(&a.op), cache_key(&b.op));
        let d = Request::parse(r#"{"id":1,"op":"delta","event":"clock","clock":9.0}"#).unwrap();
        assert_eq!(cache_key(&d.op), None);
    }

    #[test]
    fn response_framing_is_stable() {
        let mut out = String::new();
        push_response(&mut out, 7, "\"ok\":true,\"version\":0");
        assert_eq!(out, "{\"id\":7,\"ok\":true,\"version\":0}\n");
        assert_eq!(error_tail("x\"y"), "\"ok\":false,\"error\":\"x\\\"y\"");
    }
}
