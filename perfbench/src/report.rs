//! Metric names, units and the JSON the benchmark prints.
//!
//! The two tables below are the benchmark's contract with
//! `BENCHMARK.json`: an untraced run prints every end-to-end metric, a
//! traced run every per-layer metric.

use std::collections::BTreeMap;
use std::fmt;

/// End-to-end metrics and their units, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("build_1t_s", "s"),
    ("index_mib", "MiB"),
    ("peak_rss_mib", "MiB"),
    ("qps", "1/s"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
    ("answered_share", "share"),
];

/// The engine stages, in the daemon's `Stage` order, as metric names.
pub const STAGE_METRICS: [&str; 7] = [
    "stage.parse_us",
    "stage.cache_probe_us",
    "stage.prepare_us",
    "stage.queue_wait_us",
    "stage.execute_us",
    "stage.merge_us",
    "stage.write_us",
];

/// Per-layer metrics and their units, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("order.s", "s"),
    ("landmark.s", "s"),
    ("construct.s", "s"),
    ("construct.iterations", "count"),
    ("construct.work_units", "count"),
    ("construct.entries", "count"),
    ("snapshot.load_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("merge.ns_per_query", "ns"),
    ("merge.entries_per_query", "count"),
    ("translate.ns_per_pair", "ns"),
    ("cache.hit_rate", "share"),
    ("cache.evictions_per_query", "count"),
    (STAGE_METRICS[0], "us"),
    (STAGE_METRICS[1], "us"),
    (STAGE_METRICS[2], "us"),
    (STAGE_METRICS[3], "us"),
    (STAGE_METRICS[4], "us"),
    (STAGE_METRICS[5], "us"),
    (STAGE_METRICS[6], "us"),
    ("engine.worker_busy_share", "share"),
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("net.rtt_us", "us"),
    ("openloop.req_p50_us", "us"),
    ("openloop.req_p99_us", "us"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_share", "share"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A minimal JSON value, enough for the result and context lines.
#[derive(Clone, Debug)]
pub enum Json {
    /// A number, printed with every digit Rust's shortest round-trip
    /// formatting keeps.
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A string (escaped on output).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Num(v) if v.is_finite() => write!(f, "{v:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The `metrics` object of the result line: exactly the names of
/// `table`, each with its unit. A name the workload did not measure is
/// an error naming it; `fill_missing` instead reports it as 0 (used for
/// per-layer metrics a workload does not exercise, which the context
/// line lists).
pub fn metrics_json(
    table: &[(&'static str, &'static str)],
    values: &Metrics,
    fill_missing: bool,
) -> Result<Json, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if fill_missing => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        fields.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_numbers_strings_and_nesting() {
        let j = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::Num(3.0)),
            ("c", Json::str("q\"\\\n")),
            ("d", Json::Arr(vec![Json::Int(7), Json::Bool(false)])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a":1.25,"b":3.0,"c":"q\"\\\u000a","d":[7,false]}"#
        );
    }

    #[test]
    fn metrics_json_requires_every_name() {
        let mut m = Metrics::new();
        m.insert("setup_s", 0.5);
        let table = [("setup_s", "s"), ("qps", "1/s")];
        assert!(metrics_json(&table, &m, false).unwrap_err().contains("qps"));
        let j = metrics_json(&table, &m, true).expect("filled");
        assert_eq!(
            j.to_string(),
            r#"{"setup_s":{"value":0.5,"unit":"s"},"qps":{"value":0.0,"unit":"1/s"}}"#
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks {name} in {unit}"
            );
        }
        let units = json.matches("\"unit\":").count();
        assert_eq!(units, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
